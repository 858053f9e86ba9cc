module P = Tcmm_server.Protocol
module Sv = Tcmm_server
module T = Tcmm
module F = Tcmm_fastmm
module Prng = Tcmm_util.Prng
module Clock = Tcmm_util.Clock
module Tablefmt = Tcmm_util.Tablefmt

type fault = Truncate | Corrupt | Stall | Reset | Reorder | Kill_restart

let fault_name = function
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"
  | Stall -> "stall"
  | Reset -> "reset"
  | Reorder -> "reorder"
  | Kill_restart -> "kill-restart"

let all_faults = [ Truncate; Corrupt; Stall; Reset; Reorder; Kill_restart ]

type outcome = {
  seed : int;
  requests : int;  (** logical requests issued across all segments *)
  completed : int;  (** answered with a result *)
  verified : int;  (** completed responses checked bit-identical to the oracle *)
  typed_failures : int;  (** requests resolved by a typed client failure *)
  watchdog_timeouts : int;  (** reads cut off by the client watchdog *)
  faults_injected : int;
  per_fault : (string * int) list;
  shed_observed : int;  (** [Overloaded] replies in the overload segment *)
  expired_observed : int;  (** [Deadline_exceeded] replies in the deadline segment *)
  retried_ok : int;  (** requests completed only after bounded retry *)
  drained_ok : bool;  (** SIGTERM drain answered the whole in-flight burst *)
  accounting_ok : bool;  (** server metrics account for every admitted request *)
  store_saves : int;  (** artifacts persisted by the store segment's first life *)
  store_loads : int;  (** warm loads observed after its SIGKILL restart *)
  store_zero_rebuilds : bool;
      (** the restarted server answered everything without building *)
  fleet_workers : int;  (** fleet size of the fleet segment; 0 = not run *)
  fleet_kills : int;  (** fleet workers SIGKILLed mid-soak *)
  fleet_restarts : int;  (** supervisor restarts observed in the final roster *)
  violations : string list;
}

let ok o = o.violations = []

(* ------------------------------------------------------------------ *)
(* The workload: one small matmul circuit, oracle-checked             *)
(* ------------------------------------------------------------------ *)

let spec =
  {
    P.kind = P.Matmul;
    algo = "strassen";
    schedule = "thm45";
    d = 2;
    n = 4;
    entry_bits = 2;
    signed = true;
    tau = 0;
    kronpow = false;
  }

let oracle_built =
  lazy
    (let algo = F.Instances.strassen in
     let schedule =
       T.Level_schedule.resolve ~algo ~name:spec.P.schedule ~d:spec.P.d
         ~n:spec.P.n
     in
     T.Matmul_circuit.build ~algo ~schedule ~signed_inputs:spec.P.signed
       ~entry_bits:spec.P.entry_bits ~n:spec.P.n ())

let oracle ~a ~b = T.Matmul_circuit.run (Lazy.force oracle_built) ~a ~b

let random_pair rng =
  let n = spec.P.n in
  let hi = (1 lsl spec.P.entry_bits) - 1 in
  ( F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi,
    F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi )

(* ------------------------------------------------------------------ *)
(* Server lifecycle (kill-and-restart needs ownership)                *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; addr : P.addr }

(* Port 0 on every (re)start: a restarted server comes back on a fresh
   kernel-assigned address, exactly the reconnect path a failed-over
   client must handle. *)
let start_server cfg0 =
  let cfg = { cfg0 with Sv.Server.addr = P.Tcp ("127.0.0.1", 0) } in
  let listen_fd, addr = Sv.Server.bind cfg in
  let cfg = { cfg with Sv.Server.addr = addr } in
  match Unix.fork () with
  | 0 ->
      (try Sv.Server.serve_fd cfg listen_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close listen_fd;
      { pid; addr }

let kill_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid)

(* Wait for exit with a watchdog: a drain that never quiesces is
   exactly the hang class this harness exists to catch, so escalate to
   SIGKILL and report instead of blocking forever. *)
let await_exit ~patience s =
  let deadline = Clock.now () +. patience in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if Clock.now () >= deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid);
          false
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _ -> true
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Raw transport (fault injection works below the client)             *)
(* ------------------------------------------------------------------ *)

let raw_connect addr =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  match Unix.connect fd (P.sockaddr_of_addr addr) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let write_all fd s =
  let len = String.length s in
  let written = ref 0 in
  try
    while !written < len do
      written := !written + Unix.write_substring fd s !written (len - !written)
    done;
    Ok ()
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_timeout = 10.

let read_response fd =
  match
    P.read_frame_within fd
      ~deadline:(Clock.now () +. read_timeout)
      ~now:Clock.now
  with
  | Error `Timeout -> Error `Timeout
  | Error (`Closed msg) -> Error (`Closed msg)
  | Ok payload -> (
      match P.decode_response payload with
      | Ok r -> Ok r
      | Error msg -> Error (`Closed ("undecodable response: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* Soak state                                                         *)
(* ------------------------------------------------------------------ *)

type st = {
  rng : Prng.t;
  mutable requests : int;
  mutable completed : int;
  mutable verified : int;
  mutable typed_failures : int;
  mutable watchdog_timeouts : int;
  mutable faults_injected : int;
  fault_counts : (fault * int ref) list;
  mutable shed_observed : int;
  mutable expired_observed : int;
  mutable retried_ok : int;
  mutable drained_ok : bool;
  mutable accounting_ok : bool;
  mutable store_saves : int;
  mutable store_loads : int;
  mutable store_zero_rebuilds : bool;
  mutable fleet_kills : int;
  mutable fleet_restarts : int;
  mutable violations : string list;
}

let violation st fmt =
  Printf.ksprintf (fun msg -> st.violations <- msg :: st.violations) fmt

let count_fault st f =
  st.faults_injected <- st.faults_injected + 1;
  incr (List.assq f st.fault_counts)

let policy =
  { Sv.Client.attempts = 6; timeout_ms = read_timeout *. 1000.;
    base_delay_ms = 25.; max_delay_ms = 500. }

(* One logical request through the retrying client.  Every terminal
   state is typed: a verified completion, a typed failure, or a
   correctness violation. *)
let issue st addr (a, b) =
  st.requests <- st.requests + 1;
  match Sv.Client.call ~policy ~seed:(Prng.next st.rng) addr (P.Run_matmul (spec, a, b)) with
  | Ok (P.Matmul_result (c, _)) ->
      st.completed <- st.completed + 1;
      let expect = oracle ~a ~b in
      if F.Matrix.equal c expect && F.Matrix.equal c (F.Matrix.mul a b) then
        st.verified <- st.verified + 1
      else violation st "completed response differs from Matmul_circuit.run"
  | Ok _ ->
      violation st "run request answered with a non-run response"
  | Error f ->
      (match f with Sv.Client.Timeout -> st.watchdog_timeouts <- st.watchdog_timeouts + 1 | _ -> ());
      st.typed_failures <- st.typed_failures + 1

(* ------------------------------------------------------------------ *)
(* Fault legs                                                         *)
(* ------------------------------------------------------------------ *)

let frame_of req = P.frame (P.encode_request req)

(* Truncate / Reset: a partial frame then close.  The server must treat
   it as a dead connection, never as a request; the request is then
   made for real on a fresh connection. *)
let leg_partial_then_retry st addr pair =
  let full = frame_of (P.Run_matmul (spec, fst pair, snd pair)) in
  let cut = 1 + Prng.int st.rng ~bound:(String.length full - 1) in
  (match raw_connect addr with
  | Error _ -> ()
  | Ok fd ->
      ignore (write_all fd (String.sub full 0 cut));
      close_fd fd);
  issue st addr pair

(* Stall: split a valid frame around a mid-frame pause.  The dechunker
   must reassemble it and the reply must still be bit-exact. *)
let leg_stall st addr (a, b) =
  st.requests <- st.requests + 1;
  let full = frame_of (P.Run_matmul (spec, a, b)) in
  let cut = 1 + Prng.int st.rng ~bound:(String.length full - 1) in
  match raw_connect addr with
  | Error _ ->
      st.typed_failures <- st.typed_failures + 1
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          match
            match write_all fd (String.sub full 0 cut) with
            | Error _ as e -> e
            | Ok () ->
                Unix.sleepf (0.01 +. (Prng.float st.rng *. 0.04));
                write_all fd (String.sub full cut (String.length full - cut))
          with
          | Error _ -> st.typed_failures <- st.typed_failures + 1
          | Ok () -> (
              match read_response fd with
              | Ok (P.Matmul_result (c, _)) ->
                  st.completed <- st.completed + 1;
                  if F.Matrix.equal c (oracle ~a ~b) then
                    st.verified <- st.verified + 1
                  else violation st "stalled frame produced wrong bits"
              | Ok _ -> violation st "stalled frame: unexpected response"
              | Error `Timeout ->
                  st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                  violation st "stalled frame: server hung instead of replying"
              | Error (`Closed _) -> st.typed_failures <- st.typed_failures + 1))

(* Corrupt: flip one payload byte (framing intact — framing damage is
   the truncate/reset legs' job and the dechunker property test's).
   The flipped bytes may still decode to a VALID request; the reply is
   then verified against that request's own oracle, so the
   bit-exactness claim survives the server answering "the question the
   wire actually asked". *)
let leg_corrupt st addr (a, b) =
  let payload = P.encode_request (P.Run_matmul (spec, a, b)) in
  let pick () =
    let pos = Prng.int st.rng ~bound:(String.length payload) in
    let bit = Prng.int st.rng ~bound:8 in
    let bytes = Bytes.of_string payload in
    Bytes.set bytes pos
      (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
    Bytes.to_string bytes
  in
  (* Only send corruptions whose server-side meaning we can predict
     cheaply: an undecodable payload, the same-spec matmul with
     perturbed matrices, or a ping.  A flip that rewrites the spec
     would trigger an arbitrary (possibly huge) circuit build. *)
  let rec find tries =
    if tries = 0 then None
    else
      let corrupted = pick () in
      match P.decode_request corrupted with
      | Error _ -> Some (corrupted, `Undecodable)
      | Ok (P.Run_matmul (s, a', b')) when s = spec ->
          Some (corrupted, `Matmul (a', b'))
      | Ok P.Ping -> Some (corrupted, `Ping)
      | Ok _ -> find (tries - 1)
  in
  match find 8 with
  | None -> leg_partial_then_retry st addr (a, b)
  | Some (corrupted, expectation) -> (
      st.requests <- st.requests + 1;
      match raw_connect addr with
      | Error _ -> st.typed_failures <- st.typed_failures + 1
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              match write_all fd (P.frame corrupted) with
              | Error _ -> st.typed_failures <- st.typed_failures + 1
              | Ok () -> (
                  match (read_response fd, expectation) with
                  | Ok (P.Error _), `Undecodable ->
                      st.typed_failures <- st.typed_failures + 1
                  | Ok P.Pong, `Ping -> st.completed <- st.completed + 1
                  | Ok (P.Matmul_result (c, _)), `Matmul (a', b') -> (
                      st.completed <- st.completed + 1;
                      match oracle ~a:a' ~b:b' with
                      | expect ->
                          if F.Matrix.equal c expect then
                            st.verified <- st.verified + 1
                          else
                            violation st
                              "corrupted-but-valid request answered with wrong \
                               bits"
                      | exception _ ->
                          violation st
                            "server evaluated a request the oracle rejects")
                  | Ok (P.Error _), `Matmul (a', b') -> (
                      (* Entries knocked out of the layout's range are
                         rejected — the oracle must reject them too. *)
                      match oracle ~a:a' ~b:b' with
                      | _ ->
                          violation st
                            "server rejected a request the oracle accepts"
                      | exception _ ->
                          st.typed_failures <- st.typed_failures + 1)
                  | Ok _, _ -> violation st "corrupt leg: unexpected response"
                  | Error `Timeout, _ ->
                      st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                      violation st "corrupt leg: server hung instead of replying"
                  | Error (`Closed _), _ ->
                      st.typed_failures <- st.typed_failures + 1)))

(* Reorder: two pipelined requests written in one swapped burst.  The
   server answers in arrival order, so the replies must match the
   swapped order bit-for-bit. *)
let leg_reorder st addr pair1 pair2 =
  let send_order = [ pair2; pair1 ] in
  let burst =
    String.concat ""
      (List.map
         (fun (a, b) -> frame_of (P.Run_matmul (spec, a, b)))
         send_order)
  in
  match raw_connect addr with
  | Error _ ->
      st.requests <- st.requests + 2;
      st.typed_failures <- st.typed_failures + 2
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          match write_all fd burst with
          | Error _ ->
              st.requests <- st.requests + 2;
              st.typed_failures <- st.typed_failures + 2
          | Ok () ->
              List.iter
                (fun (a, b) ->
                  st.requests <- st.requests + 1;
                  match read_response fd with
                  | Ok (P.Matmul_result (c, _)) ->
                      st.completed <- st.completed + 1;
                      if F.Matrix.equal c (oracle ~a ~b) then
                        st.verified <- st.verified + 1
                      else violation st "reordered burst answered out of order"
                  | Ok _ -> violation st "reorder leg: unexpected response"
                  | Error `Timeout ->
                      st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                      violation st "reorder leg: server hung"
                  | Error (`Closed _) ->
                      st.typed_failures <- st.typed_failures + 1)
                send_order)

(* Kill mid-request: write a request, SIGKILL the server before reading,
   then restart on a fresh address and complete the same request through
   the retrying client — the idempotency that makes retry safe. *)
let leg_kill_restart st server cfg pair =
  let full = frame_of (P.Run_matmul (spec, fst pair, snd pair)) in
  (match raw_connect !server.addr with
  | Error _ -> ()
  | Ok fd ->
      ignore (write_all fd full);
      kill_server !server;
      (match read_response fd with
      | Ok (P.Matmul_result (c, _)) ->
          (* The reply raced out before the kill landed — still must be
             correct.  The re-issue below then just completes again. *)
          if not (F.Matrix.equal c (oracle ~a:(fst pair) ~b:(snd pair))) then
            violation st "pre-kill reply had wrong bits"
      | Ok _ | Error (`Closed _) -> ()
      | Error `Timeout -> st.watchdog_timeouts <- st.watchdog_timeouts + 1);
      close_fd fd);
  server := start_server cfg;
  issue st !server.addr pair

(* ------------------------------------------------------------------ *)
(* Accounting check                                                   *)
(* ------------------------------------------------------------------ *)

(* Fetched sequentially while the server is idle, so the queue is empty
   and the invariant must hold exactly. *)
let check_accounting st addr label =
  match Sv.Client.call ~policy ~seed:(Prng.next st.rng) addr P.Metrics with
  | Ok (P.Metrics_result m) ->
      let balanced =
        m.P.accepted
        = m.P.run_requests + m.P.deadline_expired + m.P.eval_failures
      in
      if not balanced then begin
        st.accounting_ok <- false;
        violation st
          "%s: metrics do not account for every admitted request \
           (accepted=%d completed=%d expired=%d failed=%d)"
          label m.P.accepted m.P.run_requests m.P.deadline_expired
          m.P.eval_failures
      end;
      Some m
  | Ok _ | Error _ ->
      violation st "%s: metrics request failed" label;
      None

(* ------------------------------------------------------------------ *)
(* Segment A: fault soak + kill/restart + SIGTERM drain               *)
(* ------------------------------------------------------------------ *)

let segment_faults st ~requests ~fault_rate =
  let cfg = Sv.Server.default_config (P.Tcp ("127.0.0.1", 0)) in
  let cfg = { cfg with Sv.Server.cache_capacity = 4; grace_s = 8. } in
  let server = ref (start_server cfg) in
  let kill_at = requests / 2 in
  (* Warm the build so fault legs exercise serving, not compilation. *)
  (match
     Sv.Client.call ~policy ~seed:(Prng.next st.rng) !server.addr
       (P.Compile spec)
   with
  | Ok (P.Compiled _) -> ()
  | _ -> violation st "warm-up compile failed");
  for i = 0 to requests - 1 do
    let pair = random_pair st.rng in
    if i = kill_at then begin
      count_fault st Kill_restart;
      leg_kill_restart st server cfg pair
    end
    else if Prng.float st.rng < fault_rate then begin
      match List.nth all_faults (Prng.int st.rng ~bound:5) with
      | Truncate ->
          count_fault st Truncate;
          leg_partial_then_retry st !server.addr pair
      | Reset ->
          count_fault st Reset;
          leg_partial_then_retry st !server.addr pair
      | Corrupt ->
          count_fault st Corrupt;
          leg_corrupt st !server.addr pair
      | Stall ->
          count_fault st Stall;
          leg_stall st !server.addr pair
      | Reorder ->
          count_fault st Reorder;
          leg_reorder st !server.addr pair (random_pair st.rng)
      | Kill_restart -> assert false
    end
    else issue st !server.addr pair
  done;
  (* Quiescent accounting: every request the restarted server admitted
     is completed/expired/failed, none lost. *)
  ignore (check_accounting st !server.addr "fault segment");
  (* SIGTERM drain: a pipelined burst is in flight when the signal
     lands; the drain must answer all of it before exiting. *)
  let burst = Array.init 30 (fun _ -> random_pair st.rng) in
  (match raw_connect !server.addr with
  | Error msg -> violation st "drain burst connect failed: %s" msg
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          let bytes =
            String.concat ""
              (Array.to_list
                 (Array.map
                    (fun (a, b) -> frame_of (P.Run_matmul (spec, a, b)))
                    burst))
          in
          match write_all fd bytes with
          | Error msg -> violation st "drain burst write failed: %s" msg
          | Ok () ->
              (try Unix.kill !server.pid Sys.sigterm
               with Unix.Unix_error _ -> ());
              Array.iter
                (fun (a, b) ->
                  st.requests <- st.requests + 1;
                  match read_response fd with
                  | Ok (P.Matmul_result (c, _)) ->
                      st.completed <- st.completed + 1;
                      if F.Matrix.equal c (oracle ~a ~b) then
                        st.verified <- st.verified + 1
                      else violation st "drained reply had wrong bits"
                  | Ok _ ->
                      st.drained_ok <- false;
                      violation st "drain: unexpected response"
                  | Error `Timeout ->
                      st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                      st.drained_ok <- false;
                      violation st "drain: reply never arrived (hang)"
                  | Error (`Closed _) ->
                      st.drained_ok <- false;
                      violation st "drain: connection dropped before reply")
                burst));
  if not (await_exit ~patience:10. !server) then begin
    st.drained_ok <- false;
    violation st "server did not exit after SIGTERM drain"
  end

(* ------------------------------------------------------------------ *)
(* Segment B: overload and shedding                                   *)
(* ------------------------------------------------------------------ *)

let segment_overload st ~burst_size =
  let cfg = Sv.Server.default_config (P.Tcp ("127.0.0.1", 0)) in
  let cfg = { cfg with Sv.Server.cache_capacity = 4; max_pending = 8 } in
  let server = start_server cfg in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Sv.Client.shutdown server.addr) with _ -> ());
      ignore (await_exit ~patience:10. server))
    (fun () ->
      (match
         Sv.Client.call ~policy ~seed:(Prng.next st.rng) server.addr
           (P.Compile spec)
       with
      | Ok (P.Compiled _) -> ()
      | _ -> violation st "overload warm-up compile failed");
      let pairs = Array.init burst_size (fun _ -> random_pair st.rng) in
      (* Completed replies interleave with [Overloaded] on the wire (a
         shed is answered during frame processing, a run at dispatch),
         so match results against the expected-product multiset. *)
      let unmatched =
        ref (Array.to_list (Array.map (fun (a, b) -> oracle ~a ~b) pairs))
      in
      let shed = ref 0 and completed = ref 0 in
      (match raw_connect server.addr with
      | Error msg -> violation st "overload connect failed: %s" msg
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              (* One write: the whole burst lands ahead of any dispatch,
                 so the admission gate must actually engage. *)
              let bytes =
                String.concat ""
                  (Array.to_list
                     (Array.map
                        (fun (a, b) -> frame_of (P.Run_matmul (spec, a, b)))
                        pairs))
              in
              match write_all fd bytes with
              | Error msg -> violation st "overload write failed: %s" msg
              | Ok () ->
                  Array.iter
                    (fun _ ->
                      st.requests <- st.requests + 1;
                      match read_response fd with
                      | Ok P.Overloaded ->
                          incr shed;
                          st.typed_failures <- st.typed_failures + 1
                      | Ok (P.Matmul_result (c, _)) ->
                          incr completed;
                          st.completed <- st.completed + 1;
                          let rec take acc = function
                            | [] -> None
                            | m :: rest when F.Matrix.equal m c ->
                                Some (List.rev_append acc rest)
                            | m :: rest -> take (m :: acc) rest
                          in
                          (match take [] !unmatched with
                          | Some rest ->
                              unmatched := rest;
                              st.verified <- st.verified + 1
                          | None ->
                              violation st
                                "overload: completed product matches no request")
                      | Ok _ -> violation st "overload: unexpected response"
                      | Error `Timeout ->
                          st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                          violation st "overload: reply never arrived (hang)"
                      | Error (`Closed _) ->
                          violation st "overload: connection dropped mid-burst")
                    pairs));
      st.shed_observed <- st.shed_observed + !shed;
      if !shed = 0 then
        violation st "overload: %d-request burst against max_pending=8 shed \
                      nothing" burst_size;
      if !shed + !completed <> burst_size then
        violation st "overload: %d replies for %d requests" (!shed + !completed)
          burst_size;
      (* Every shed request retried to completion: sequential re-issue is
         always admitted. *)
      Array.iter
        (fun pair ->
          let before = st.verified in
          issue st server.addr pair;
          if st.verified > before then st.retried_ok <- st.retried_ok + 1)
        pairs;
      ignore (check_accounting st server.addr "overload segment"))

(* ------------------------------------------------------------------ *)
(* Segment C: deadlines                                               *)
(* ------------------------------------------------------------------ *)

let segment_deadline st =
  let cfg = Sv.Server.default_config (P.Tcp ("127.0.0.1", 0)) in
  (* flush_ms far beyond deadline_ms: a lone request cannot fill a
     batch, so it must be answered by deadline expiry, not dispatch. *)
  let cfg =
    { cfg with Sv.Server.cache_capacity = 4; flush_ms = 2000.; deadline_ms = 50. }
  in
  let server = start_server cfg in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Sv.Client.shutdown server.addr) with _ -> ());
      ignore (await_exit ~patience:10. server))
    (fun () ->
      (match
         Sv.Client.call ~policy ~seed:(Prng.next st.rng) server.addr
           (P.Compile spec)
       with
      | Ok (P.Compiled _) -> ()
      | _ -> violation st "deadline warm-up compile failed");
      let single = { policy with Sv.Client.attempts = 1 } in
      for _ = 1 to 5 do
        st.requests <- st.requests + 1;
        let a, b = random_pair st.rng in
        match
          Sv.Client.call ~policy:single ~seed:(Prng.next st.rng) server.addr
            (P.Run_matmul (spec, a, b))
        with
        | Error Sv.Client.Deadline_exceeded ->
            st.typed_failures <- st.typed_failures + 1;
            st.expired_observed <- st.expired_observed + 1
        | Ok (P.Matmul_result _) ->
            violation st
              "deadline: a lone request completed although the batch could \
               not fill before its deadline"
        | Ok _ -> violation st "deadline: unexpected response"
        | Error Sv.Client.Timeout ->
            st.watchdog_timeouts <- st.watchdog_timeouts + 1;
            violation st "deadline: expiry never answered (hang)"
        | Error _ -> st.typed_failures <- st.typed_failures + 1
      done;
      (* A full 62-lane burst fills the batch, which dispatches on fill —
         before any deadline — so all of it completes bit-exactly. *)
      let pairs = Array.init 62 (fun _ -> random_pair st.rng) in
      (match raw_connect server.addr with
      | Error msg -> violation st "deadline burst connect failed: %s" msg
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              let bytes =
                String.concat ""
                  (Array.to_list
                     (Array.map
                        (fun (a, b) -> frame_of (P.Run_matmul (spec, a, b)))
                        pairs))
              in
              match write_all fd bytes with
              | Error msg -> violation st "deadline burst write failed: %s" msg
              | Ok () ->
                  Array.iter
                    (fun (a, b) ->
                      st.requests <- st.requests + 1;
                      match read_response fd with
                      | Ok (P.Matmul_result (c, _)) ->
                          st.completed <- st.completed + 1;
                          if F.Matrix.equal c (oracle ~a ~b) then
                            st.verified <- st.verified + 1
                          else violation st "deadline burst: wrong bits"
                      | Ok P.Deadline_exceeded ->
                          (* A filled batch dispatches synchronously on
                             enqueue; expiry here means the wheel fired
                             on a dispatchable batch. *)
                          violation st
                            "deadline burst: a full batch was expired instead \
                             of dispatched"
                      | Ok _ -> violation st "deadline burst: unexpected response"
                      | Error `Timeout ->
                          st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                          violation st "deadline burst: hang"
                      | Error (`Closed _) ->
                          violation st "deadline burst: connection dropped")
                    pairs));
      match check_accounting st server.addr "deadline segment" with
      | Some m ->
          if m.P.deadline_expired < 5 then
            violation st "deadline segment: expected >= 5 expirations, saw %d"
              m.P.deadline_expired
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Segment D: SIGKILL with a persistent artifact store                 *)
(* ------------------------------------------------------------------ *)

(* Remove the store directory the segment created (flat: artifacts only). *)
let remove_dir dir =
  (try Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
         (Sys.readdir dir)
   with _ -> ());
  try Unix.rmdir dir with _ -> ()

(* The crash-recovery claim of the artifact store: a server SIGKILLed
   mid-service and restarted on the same store directory must answer
   bit-identically to the oracle having rebuilt NOTHING — every cache
   miss of its second life is a warm mmap load of what the first life
   persisted. *)
let segment_store st =
  let dir =
    let f = Filename.temp_file "tcmm_chaos_store" "" in
    Sys.remove f;
    Unix.mkdir f 0o700;
    f
  in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let cfg = Sv.Server.default_config (P.Tcp ("127.0.0.1", 0)) in
  let cfg = { cfg with Sv.Server.cache_capacity = 4; store = Some dir } in
  let server = start_server cfg in
  (* First life: cold build, persisted write-behind. *)
  let pairs = Array.init 6 (fun _ -> random_pair st.rng) in
  Array.iter (fun pair -> issue st server.addr pair) pairs;
  (match Sv.Client.call ~policy ~seed:(Prng.next st.rng) server.addr P.Metrics with
  | Ok (P.Metrics_result m) ->
      st.store_saves <- m.P.store_saves;
      if m.P.store_saves < 1 then
        violation st "store segment: first life persisted no artifact"
  | Ok _ | Error _ -> violation st "store segment: first-life metrics failed");
  (* SIGKILL: no drain, no flush — only the already-published artifact
     survives. *)
  kill_server server;
  let server = start_server cfg in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Sv.Client.shutdown server.addr) with _ -> ());
      ignore (await_exit ~patience:10. server))
    (fun () ->
      (* Second life: same requests (and fresh ones) answered warm;
         [issue] verifies every reply against the in-process oracle, so
         bit-identity is checked here, not just liveness. *)
      Array.iter (fun pair -> issue st server.addr pair) pairs;
      Array.iter (fun _ -> issue st server.addr (random_pair st.rng)) pairs;
      match
        Sv.Client.call ~policy ~seed:(Prng.next st.rng) server.addr P.Metrics
      with
      | Ok (P.Metrics_result m) ->
          st.store_loads <- m.P.store_loads;
          let zero_rebuilds =
            m.P.store_loads >= 1
            && m.P.store_saves = 0
            && m.P.build_seconds = 0.
            && m.P.cache.P.misses = m.P.store_loads
          in
          st.store_zero_rebuilds <- zero_rebuilds;
          if not zero_rebuilds then
            violation st
              "store segment: restart rebuilt instead of loading warm \
               (loads=%d saves=%d build_seconds=%g misses=%d)"
              m.P.store_loads m.P.store_saves m.P.build_seconds
              m.P.cache.P.misses;
          if m.P.store_invalid > 0 then
            violation st "store segment: %d artifacts quarantined on restart"
              m.P.store_invalid
      | Ok _ | Error _ ->
          violation st "store segment: second-life metrics failed")

(* ------------------------------------------------------------------ *)
(* Segment E: fleet — SIGKILL random workers mid-soak                  *)
(* ------------------------------------------------------------------ *)

(* Distinct cache keys over the same tiny circuit: [tau] is part of the
   spec key but ignored by matmul evaluation, so the rendezvous router
   spreads these keys across workers while the one in-process oracle
   verifies every reply. *)
let fleet_specs = List.init 4 (fun t -> { spec with P.tau = t })

let fleet_roster st control =
  match Sv.Client.call ~policy ~seed:(Prng.next st.rng) control P.Fleet with
  | Ok (P.Fleet_result ws) -> ws
  | Ok _ | Error _ -> []

(* One logical request through the failing-over shard router. *)
let issue_pool st pool sp (a, b) =
  st.requests <- st.requests + 1;
  match
    Sv.Client.Pool.call ~policy ~seed:(Prng.next st.rng) pool
      ~key:(Sv.Client.Pool.key_of_spec sp)
      (P.Run_matmul (sp, a, b))
  with
  | Ok (P.Matmul_result (c, _)) ->
      st.completed <- st.completed + 1;
      if F.Matrix.equal c (oracle ~a ~b) && F.Matrix.equal c (F.Matrix.mul a b)
      then st.verified <- st.verified + 1
      else
        violation st "fleet: completed response differs from Matmul_circuit.run"
  | Ok _ -> violation st "fleet: run request answered with a non-run response"
  | Error f ->
      (match f with
      | Sv.Client.Timeout ->
          st.watchdog_timeouts <- st.watchdog_timeouts + 1
      | _ -> ());
      st.typed_failures <- st.typed_failures + 1

(* The roster is refreshed right before every kill so a restart between
   kills cannot leave us signalling a recycled pid. *)
let kill_random_worker st control =
  match
    List.filter (fun w -> w.P.fw_alive && w.P.fw_pid > 0)
      (fleet_roster st control)
  with
  | [] -> ()
  | live -> (
      let w = List.nth live (Prng.int st.rng ~bound:(List.length live)) in
      match Unix.kill w.P.fw_pid Sys.sigkill with
      | () ->
          st.fleet_kills <- st.fleet_kills + 1;
          count_fault st Kill_restart
      | exception Unix.Unix_error _ -> ())

(* SIGKILL the shard mid-pipelined-burst: every reply that did arrive
   must be bit-exact, the remainder must resolve as typed failures and
   complete on re-issue through the failing-over pool — no request is
   ever silently dropped and no completed response is ever wrong. *)
let leg_fleet_burst st pool control sp =
  let key = Sv.Client.Pool.key_of_spec sp in
  let shard = Sv.Client.Pool.shard pool ~key in
  let pairs = Array.init 20 (fun _ -> random_pair st.rng) in
  let reissue pair = issue_pool st pool sp pair in
  match raw_connect shard with
  | Error _ -> Array.iter reissue pairs
  | Ok fd ->
      Fun.protect ~finally:(fun () -> close_fd fd) @@ fun () ->
      let bytes =
        String.concat ""
          (Array.to_list
             (Array.map (fun (a, b) -> frame_of (P.Run_matmul (sp, a, b))) pairs))
      in
      (match write_all fd bytes with
      | Error _ -> Array.iter reissue pairs
      | Ok () ->
          let dead = ref false in
          Array.iteri
            (fun i (a, b) ->
              if i = 5 then
                (match
                   List.find_opt
                     (fun w -> w.P.fw_addr = P.addr_string shard)
                     (fleet_roster st control)
                 with
                | Some w when w.P.fw_pid > 0 -> (
                    match Unix.kill w.P.fw_pid Sys.sigkill with
                    | () ->
                        st.fleet_kills <- st.fleet_kills + 1;
                        count_fault st Kill_restart
                    | exception Unix.Unix_error _ -> ())
                | _ -> ());
              if !dead then reissue (a, b)
              else begin
                st.requests <- st.requests + 1;
                match read_response fd with
                | Ok (P.Matmul_result (c, _)) ->
                    st.completed <- st.completed + 1;
                    if F.Matrix.equal c (oracle ~a ~b) then
                      st.verified <- st.verified + 1
                    else violation st "fleet burst: completed reply had wrong bits"
                | Ok _ -> violation st "fleet burst: unexpected response"
                | Error `Timeout ->
                    st.watchdog_timeouts <- st.watchdog_timeouts + 1;
                    st.typed_failures <- st.typed_failures + 1;
                    dead := true
                | Error (`Closed _) ->
                    st.typed_failures <- st.typed_failures + 1;
                    dead := true
              end)
            pairs)

let segment_fleet st ~workers ~requests ~fault_rate =
  let dir =
    let f = Filename.temp_file "tcmm_chaos_fleet" "" in
    Sys.remove f;
    Unix.mkdir f 0o700;
    f
  in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let cfg = Sv.Server.default_config (P.Tcp ("127.0.0.1", 0)) in
  let cfg =
    { cfg with Sv.Server.cache_capacity = 8; grace_s = 8.; store = Some dir }
  in
  (* The soak IS a crash loop by design: the restart budget must never
     exhaust, or kills late in the run would down a shard for good. *)
  let fleet_cfg =
    {
      (Sv.Fleet.default_config cfg) with
      Sv.Fleet.workers;
      restart_limit = requests + 8;
      restart_window_s = 3600.;
    }
  in
  (* Bind-then-fork, fleet edition: every front / control / endpoint
     port is concrete before the supervisor child exists. *)
  let handle = Sv.Fleet.bind fleet_cfg in
  let endpoints = Sv.Fleet.endpoints handle in
  let control = Sv.Fleet.control_addr handle in
  let front = Sv.Fleet.front_addr handle in
  match Unix.fork () with
  | 0 ->
      (try Sv.Fleet.supervise handle with _ -> ());
      Unix._exit 0
  | sup_pid ->
      Sv.Fleet.close_handle handle;
      let sup = { pid = sup_pid; addr = front } in
      let pool = Sv.Client.Pool.create endpoints in
      (* Warm every spec through the kernel-balanced front socket, so
         the shared store holds all artifacts before the first kill and
         every restart is warm. *)
      List.iter
        (fun sp ->
          match
            Sv.Client.call ~policy ~seed:(Prng.next st.rng) front (P.Compile sp)
          with
          | Ok (P.Compiled _) -> ()
          | _ -> violation st "fleet warm-up compile failed")
        fleet_specs;
      let burst_at = max 1 (requests / 3) in
      for i = 0 to requests - 1 do
        let sp =
          List.nth fleet_specs
            (Prng.int st.rng ~bound:(List.length fleet_specs))
        in
        if i = burst_at then leg_fleet_burst st pool control sp
        else begin
          if Prng.float st.rng < fault_rate then kill_random_worker st control;
          issue_pool st pool sp (random_pair st.rng)
        end
      done;
      (* Settle: one request per spec proves every shard is serving
         again, and leaves every worker quiescent for the accounting
         fetch below. *)
      List.iter (fun sp -> issue_pool st pool sp (random_pair st.rng)) fleet_specs;
      let ws = fleet_roster st control in
      if List.length ws <> workers then
        violation st "fleet: roster has %d workers, expected %d" (List.length ws)
          workers;
      st.fleet_restarts <-
        List.fold_left (fun acc w -> acc + w.P.fw_restarts) 0 ws;
      List.iter
        (fun w ->
          if not w.P.fw_alive then
            violation st "fleet: worker %d left down (restart budget exhausted)"
              w.P.fw_id)
        ws;
      if st.fleet_kills > 0 && st.fleet_restarts = 0 then
        violation st "fleet: %d SIGKILLs but the roster shows no restarts"
          st.fleet_kills;
      if st.fleet_restarts > st.fleet_kills then
        violation st "fleet: %d restarts for %d kills (spontaneous crashes)"
          st.fleet_restarts st.fleet_kills;
      (* The PR 5 identity, fleet-wide: summed over the live workers'
         metrics, accepted = run_requests + deadline_expired +
         eval_failures — fetched at quiescence, so it must hold exactly
         even though every counter-holding process may have been
         SIGKILLed and restarted since the soak began. *)
      let acc = ref 0 and run = ref 0 and dl = ref 0 and ef = ref 0 in
      let invalid = ref 0 in
      List.iter
        (fun w ->
          match P.parse_addr w.P.fw_addr with
          | Error msg ->
              violation st "fleet: roster endpoint %S does not parse: %s"
                w.P.fw_addr msg
          | Ok a -> (
              match
                Sv.Client.call ~policy ~seed:(Prng.next st.rng) a P.Metrics
              with
              | Ok (P.Metrics_result m) ->
                  if m.P.worker_id <> w.P.fw_id then
                    violation st "fleet: worker %d reports worker_id %d"
                      w.P.fw_id m.P.worker_id;
                  acc := !acc + m.P.accepted;
                  run := !run + m.P.run_requests;
                  dl := !dl + m.P.deadline_expired;
                  ef := !ef + m.P.eval_failures;
                  invalid := !invalid + m.P.store_invalid
              | Ok _ | Error _ ->
                  violation st "fleet: worker %d metrics failed" w.P.fw_id))
        ws;
      if !acc <> !run + !dl + !ef then begin
        st.accounting_ok <- false;
        violation st
          "fleet: summed worker metrics do not balance (accepted=%d run=%d \
           expired=%d failed=%d)"
          !acc !run !dl !ef
      end;
      if !invalid > 0 then
        violation st "fleet: %d artifacts quarantined during the soak" !invalid;
      (* The supervisor-side aggregate must satisfy the same identity
         (it is a sum of balanced snapshots) and stamp worker_id 0. *)
      (match Sv.Client.call ~policy ~seed:(Prng.next st.rng) control P.Metrics with
      | Ok (P.Metrics_result m) ->
          if m.P.worker_id <> 0 then
            violation st "fleet: aggregate stamped worker_id %d, want 0"
              m.P.worker_id;
          if
            m.P.accepted
            <> m.P.run_requests + m.P.deadline_expired + m.P.eval_failures
          then begin
            st.accounting_ok <- false;
            violation st
              "fleet: aggregated metrics do not balance (accepted=%d run=%d \
               expired=%d failed=%d)"
              m.P.accepted m.P.run_requests m.P.deadline_expired
              m.P.eval_failures
          end
      | Ok _ | Error _ -> violation st "fleet: aggregated metrics request failed");
      (* SIGTERM to the supervisor is a fleet-wide graceful drain: every
         worker must drain and exit, the supervisor must reap them all
         and terminate inside grace + slack. *)
      (try Unix.kill sup_pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (await_exit ~patience:(cfg.Sv.Server.grace_s +. 6.) sup) then begin
        st.drained_ok <- false;
        violation st "fleet: supervisor did not exit after SIGTERM drain"
      end

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 1) ?(requests = 200) ?(fault_rate = 0.25) ?(workers = 1) () =
  let st =
    {
      rng = Prng.create ~seed;
      requests = 0;
      completed = 0;
      verified = 0;
      typed_failures = 0;
      watchdog_timeouts = 0;
      faults_injected = 0;
      fault_counts = List.map (fun f -> (f, ref 0)) all_faults;
      shed_observed = 0;
      expired_observed = 0;
      retried_ok = 0;
      drained_ok = true;
      accounting_ok = true;
      store_saves = 0;
      store_loads = 0;
      store_zero_rebuilds = false;
      fleet_kills = 0;
      fleet_restarts = 0;
      violations = [];
    }
  in
  (* [workers > 1] runs the fleet soak alone (the single-daemon
     segments are the [workers = 1] run's job — CI runs both slices);
     its kill-heavy loop wants the whole request budget. *)
  if workers > 1 then segment_fleet st ~workers ~requests ~fault_rate
  else begin
    segment_faults st ~requests ~fault_rate;
    segment_overload st ~burst_size:(max 40 (requests / 2));
    segment_deadline st;
    segment_store st
  end;
  (* Client-side conservation: every issued request resolved exactly
     once — completed or a typed failure.  Anything else is a hang or a
     lost request. *)
  if st.completed + st.typed_failures <> st.requests then
    violation st "client accounting: %d requests but %d completed + %d failed"
      st.requests st.completed st.typed_failures;
  if st.completed <> st.verified then
    violation st "%d completed responses but only %d verified"
      st.completed st.verified;
  {
    seed;
    requests = st.requests;
    completed = st.completed;
    verified = st.verified;
    typed_failures = st.typed_failures;
    watchdog_timeouts = st.watchdog_timeouts;
    faults_injected = st.faults_injected;
    per_fault = List.map (fun (f, r) -> (fault_name f, !r)) st.fault_counts;
    shed_observed = st.shed_observed;
    expired_observed = st.expired_observed;
    retried_ok = st.retried_ok;
    drained_ok = st.drained_ok;
    accounting_ok = st.accounting_ok;
    store_saves = st.store_saves;
    store_loads = st.store_loads;
    store_zero_rebuilds = st.store_zero_rebuilds;
    fleet_workers = (if workers > 1 then workers else 0);
    fleet_kills = st.fleet_kills;
    fleet_restarts = st.fleet_restarts;
    violations = List.rev st.violations;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let print_report o =
  let open Tablefmt in
  print ~title:"Chaos soak"
    ~header:[ "metric"; "value" ]
    ~rows:
      ([
         [ Str "seed"; Int o.seed ];
         [ Str "requests"; Int o.requests ];
         [ Str "completed"; Int o.completed ];
         [ Str "verified bit-exact"; Int o.verified ];
         [ Str "typed failures"; Int o.typed_failures ];
         [ Str "watchdog timeouts"; Int o.watchdog_timeouts ];
         [ Str "faults injected"; Int o.faults_injected ];
       ]
      @ List.map (fun (name, k) -> [ Str ("  " ^ name); Int k ]) o.per_fault
      @ [
          [ Str "shed observed"; Int o.shed_observed ];
          [ Str "deadline expirations"; Int o.expired_observed ];
          [ Str "retried to completion"; Int o.retried_ok ];
          [ Str "SIGTERM drain"; Str (if o.drained_ok then "ok" else "FAILED") ];
          [
            Str "metrics accounting";
            Str (if o.accounting_ok then "ok" else "FAILED");
          ];
          [ Str "store artifacts saved"; Int o.store_saves ];
          [ Str "store warm loads"; Int o.store_loads ];
          [
            Str "SIGKILL restart rebuilds";
            Str
              (if o.fleet_workers > 0 then "n/a"
               else if o.store_zero_rebuilds then "zero"
               else "FAILED");
          ];
          [ Str "fleet workers"; Int o.fleet_workers ];
          [ Str "fleet kills"; Int o.fleet_kills ];
          [ Str "fleet restarts"; Int o.fleet_restarts ];
        ]);
  List.iter (fun v -> Format.printf "  VIOLATION: %s@." v) o.violations;
  Format.printf "chaos: %s@." (if ok o then "OK" else "FAILED")

let to_json o =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seed\":%d,\"requests\":%d,\"completed\":%d,\"verified\":%d,\
        \"typed_failures\":%d,\"watchdog_timeouts\":%d,\"faults_injected\":%d,"
       o.seed o.requests o.completed o.verified o.typed_failures
       o.watchdog_timeouts o.faults_injected);
  Buffer.add_string b "\"per_fault\":{";
  List.iteri
    (fun i (name, k) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name k))
    o.per_fault;
  Buffer.add_string b "},";
  Buffer.add_string b
    (Printf.sprintf
       "\"shed_observed\":%d,\"expired_observed\":%d,\"retried_ok\":%d,\
        \"drained_ok\":%b,\"accounting_ok\":%b,\"store_saves\":%d,\
        \"store_loads\":%d,\"store_zero_rebuilds\":%b,\"fleet_workers\":%d,\
        \"fleet_kills\":%d,\"fleet_restarts\":%d,\"violations\":["
       o.shed_observed o.expired_observed o.retried_ok o.drained_ok
       o.accounting_ok o.store_saves o.store_loads o.store_zero_rebuilds
       o.fleet_workers o.fleet_kills o.fleet_restarts);
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S" v))
    o.violations;
  Buffer.add_string b (Printf.sprintf "],\"ok\":%b}" (ok o));
  Buffer.contents b
