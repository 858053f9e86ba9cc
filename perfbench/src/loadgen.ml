(* The load generator: one process, one connection per worker endpoint,
   multiplexed with [select].  Requests are written as precomputed
   frames; every reply is decoded and compared with its reference before
   it counts.  A wrong answer raises [Wrong_answer] and aborts the run. *)

module P = Tcmm_server.Protocol
module W = Workload

exception Wrong_answer of string

let now = Tcmm_util.Clock.now

(* Growable float buffer (samples in milliseconds). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Nearest-rank percentile of a sorted array. *)
  let pct s p =
    let n = Array.length s in
    if n = 0 then nan
    else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

  (* The highest of p99 / p90 / p50 with at least ten samples beyond it. *)
  let tail_pct n =
    List.find_opt (fun p -> float_of_int n *. (1. -. p) >= 10.) [ 0.99; 0.9; 0.5 ]
    |> Option.value ~default:0.5
end

type stats = {
  mutable attempted : int;
  mutable completed : int;  (** verified replies *)
  mutable failed : int;  (** typed failures and transport errors *)
  mutable firings : int;  (** gate firings reported by verified replies *)
  latency : Samples.t;
  done_at : Samples.t;  (** completion instant of each latency sample (s) *)
  lag : Samples.t;
}

let stats () =
  { attempted = 0; completed = 0; failed = 0; firings = 0;
    latency = Samples.create (); done_at = Samples.create (); lag = Samples.create () }

type pending = {
  op : W.op;
  t0 : float;  (** latency origin: send time, or due time in the open loop *)
  mutable answered : bool;
}

type conn = {
  fd : Unix.file_descr;
  dech : P.dechunker;
  by_class : (W.cls, pending Queue.t) Hashtbl.t;
  in_order : pending Queue.t;  (** every in-flight request, oldest first *)
  mutable inflight : int;
  mutable alive : bool;
  mutable idle_since : float;  (** when the last reply left nothing in flight *)
  mutable last : P.response option;  (** last verified reply *)
  lat : Samples.t;  (** this connection's share of the latency samples *)
}

let connect addr =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (P.sockaddr_of_addr addr);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* Room for a whole burst (62 x 4 KiB) in the kernel, so a burst
     keeps flowing to the worker while this process is descheduled. *)
  Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20);
  { fd; dech = P.create_dechunker (); by_class = Hashtbl.create 8;
    in_order = Queue.create (); inflight = 0; alive = true;
    idle_since = now (); last = None; lat = Samples.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let track c p =
  let q =
    match Hashtbl.find_opt c.by_class p.op.W.cls with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace c.by_class p.op.W.cls q;
        q
  in
  Queue.push p q;
  Queue.push p c.in_order;
  c.inflight <- c.inflight + 1

(* Send requests with one write; [due] is when the generator meant to
   send them, and latency runs from it when [from_due] (the open loop),
   else from the send itself.  [frames] is the ops' frames concatenated,
   precomputed. *)
let send_all st c ?due ?(from_due = false) ~frames (ops : W.op array) =
  let sent = now () in
  let due = Option.value due ~default:sent in
  st.attempted <- st.attempted + Array.length ops;
  Array.iter (fun _ -> Samples.add st.lag ((sent -. due) *. 1e3)) ops;
  match write_all c.fd frames with
  | () ->
      Array.iter
        (fun op -> track c { op; t0 = (if from_due then due else sent); answered = false })
        ops
  | exception Unix.Unix_error _ ->
      c.alive <- false;
      st.failed <- st.failed + Array.length ops

let send st c ?due ?from_due (op : W.op) = send_all st c ?due ?from_due ~frames:op.W.frame [| op |]

let rec pop_live q =
  match Queue.take_opt q with
  | Some p when p.answered -> pop_live q
  | r -> r

let retire c p =
  p.answered <- true;
  c.inflight <- c.inflight - 1;
  if c.inflight = 0 then c.idle_since <- now ()

let on_response st c (r : P.response) =
  match W.class_of_response r with
  | Some (cls, firings) -> (
      match Option.bind (Hashtbl.find_opt c.by_class cls) pop_live with
      | None -> raise (Wrong_answer "reply of a class with nothing in flight")
      | Some p ->
          if not (W.correct p.op r) then
            raise
              (Wrong_answer
                 (Printf.sprintf "reply for %s differs from the integer reference"
                    (W.key p.op.W.spec)));
          retire c p;
          st.completed <- st.completed + 1;
          st.firings <- st.firings + firings;
          c.last <- Some r;
          let t = now () in
          let ms = (t -. p.t0) *. 1e3 in
          Samples.add st.latency ms;
          Samples.add st.done_at t;
          Samples.add c.lat ms)
  | None -> (
      (* Overloaded / Deadline_exceeded / Error name no request: charge
         the oldest one in flight. *)
      match pop_live c.in_order with
      | Some p ->
          retire c p;
          st.failed <- st.failed + 1
      | None -> raise (Wrong_answer "unsolicited failure reply"))

let fail_inflight st c =
  st.failed <- st.failed + c.inflight;
  c.inflight <- 0;
  c.alive <- false;
  Hashtbl.reset c.by_class;
  Queue.clear c.in_order

let buf = Bytes.create 65536

let read_conn st c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> fail_inflight st c
  | n ->
      P.feed c.dech buf 0 n;
      let rec frames () =
        match P.next_frame c.dech with
        | `More -> ()
        | `Corrupt _ -> fail_inflight st c
        | `Frame payload -> (
            match P.decode_response payload with
            | Ok r ->
                on_response st c r;
                frames ()
            | Error _ -> fail_inflight st c)
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error _ -> fail_inflight st c

(* Wait up to [timeout] seconds for replies and absorb what arrived. *)
let poll st conns ~timeout =
  let fds = List.filter_map (fun c -> if c.alive then Some c.fd else None) conns in
  if fds <> [] then
    match Unix.select fds [] [] timeout with
    | r, _, _ -> List.iter (fun c -> if List.mem c.fd r then read_conn st c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let inflight conns = List.exists (fun c -> c.alive && c.inflight > 0) conns

(* Absorb replies until nothing is in flight; whatever is still missing
   after [timeout] seconds counts as failed. *)
let drain st conns ~timeout =
  let deadline = now () +. timeout in
  while inflight conns && now () < deadline do
    poll st conns ~timeout:0.5
  done;
  List.iter (fun c -> if c.inflight > 0 then fail_inflight st c) conns

(* Closed loop, bursts: each connection writes [W.burst] requests, waits
   for all their replies, and repeats until [seconds] have passed.
   Returns the measured window in seconds. *)
let bursts st conns pools ~seconds =
  (* One write per burst, so a whole burst reaches the worker before its
     event loop runs dry and dispatches a partial batch. *)
  let chunks =
    Array.map
      (fun pool ->
        Array.init (Array.length pool / W.burst) (fun b ->
            let ops = Array.sub pool (b * W.burst) W.burst in
            (ops, String.concat "" (Array.to_list (Array.map (fun o -> o.W.frame) ops)))))
      pools
  in
  let t_start = now () in
  let next = Array.make (Array.length pools) 0 in
  let send_burst i c =
    let ops, frames = chunks.(i).(next.(i)) in
    send_all st c ~due:c.idle_since ~frames ops;
    next.(i) <- (next.(i) + 1) mod Array.length chunks.(i)
  in
  List.iteri (fun i c -> c.idle_since <- t_start; send_burst i c) conns;
  while inflight conns do
    poll st conns ~timeout:1.;
    List.iteri
      (fun i c -> if c.alive && c.inflight = 0 && now () < t_start +. seconds then send_burst i c)
      conns
  done;
  now () -. t_start

(* Open loop: requests go out at their scheduled instants, round-robin
   over the connections, whether or not earlier ones were answered.
   Latency runs from the due instant. *)
let open_loop st conns (arrivals : W.arrival array) ~seconds =
  let conns_a = Array.of_list conns in
  let t_start = now () in
  let n = Array.length arrivals in
  let i = ref 0 in
  while !i < n do
    let t = now () in
    while !i < n && t_start +. arrivals.(!i).W.due <= t do
      let c = conns_a.(!i mod Array.length conns_a) in
      if c.alive then send st c ~due:(t_start +. arrivals.(!i).W.due) ~from_due:true
          arrivals.(!i).W.aop
      else begin
        st.attempted <- st.attempted + 1;
        st.failed <- st.failed + 1
      end;
      incr i
    done;
    if !i < n then
      poll st conns ~timeout:(max 0. (t_start +. arrivals.(!i).W.due -. now ()))
  done;
  drain st conns ~timeout:(seconds +. 30.);
  now () -. t_start

(* Closed loop, lockstep session updates: each connection keeps one
   [Update] in flight on its own session and walks its flip cycle;
   [step.(i)] counts the updates connection [i] has sent so far.
   [tick] runs once the first updates are out and after every poll. *)
let updates ?(tick = ignore) st conns (frames : W.op array array) step ~seconds =
  let t_start = now () in
  let send_next i c =
    let ops = frames.(i) in
    send st c ~due:c.idle_since ops.(step.(i) mod Array.length ops);
    step.(i) <- step.(i) + 1
  in
  List.iteri (fun i c -> c.idle_since <- t_start; send_next i c) conns;
  tick ();
  while inflight conns do
    poll st conns ~timeout:1.;
    tick ();
    List.iteri
      (fun i c -> if c.alive && c.inflight = 0 && now () < t_start +. seconds then send_next i c)
      conns
  done;
  now () -. t_start

(* One request, answered before returning (warm-up, session opening,
   cross-checks). *)
let call st c op =
  c.last <- None;
  send st c op;
  drain st [ c ] ~timeout:60.;
  match c.last with
  | Some r when c.alive -> r
  | _ -> failwith "request failed"
