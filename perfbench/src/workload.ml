(* Workload definitions: circuit specs, seeded request generation and the
   integer references every reply is checked against.

   Every request is generated, encoded and framed before timing starts;
   the load generator only writes precomputed bytes and compares decoded
   replies with precomputed answers. *)

module P = Tcmm_server.Protocol
module M = Tcmm_fastmm.Matrix
module T = Tcmm
module G = Tcmm_graph
module C = Tcmm_convnet
module Prng = Tcmm_util.Prng

type name = Mm16_burst | Mixed_open | Trace8_stream

let all = [ Mm16_burst; Mixed_open; Trace8_stream ]

let to_string = function
  | Mm16_burst -> "mm16_burst"
  | Mixed_open -> "mixed_open"
  | Trace8_stream -> "trace8_stream"

let of_string s = List.find_opt (fun w -> to_string w = s) all

let spec ?(algo = "strassen") ?(entry_bits = 1) ?(signed = false) ?(tau = 0)
    kind n =
  { P.kind; algo; schedule = "thm45"; d = 2; n; entry_bits; signed; tau;
    kronpow = false }

let mm16 = spec P.Matmul 16

(* The mixed_open circuits.  mm4 is the E25 spec; conv8 is the n=8
   strassen circuit a 2x4x4 image with four 2x2 stride-2 kernels lowers
   to (P = 4 patches, Q = 8, K = 4). *)
let mm4 = spec P.Matmul 4 ~entry_bits:2 ~signed:true
let mm8 = spec P.Matmul 8 ~algo:"winograd"
let trace8 = spec P.Trace 8 ~tau:6
let tri8 = spec P.Triangles 8 ~tau:2
let conv8 = spec P.Conv 8 ~entry_bits:2 ~signed:true

(* mixed_open: every 49th arrival is an mm16 "elephant" (about 2%; the
   odd spacing alternates them over the two workers), the rest are small
   circuits in these proportions.  Served latencies form modes by
   circuit: mm4 about 1.5 ms, trace8 and tri8 about 3 ms, mm8 and conv8
   10-17 ms.  The shares put the overall median in the middle of the
   trace8/tri8 mode, so a slower host shifts it rather than making it
   jump to another mode. *)
let small_mix = [ (mm4, 30); (mm8, 10); (trace8, 25); (tri8, 25); (conv8, 10) ]
let elephant_every = 49

(* Share of mixed_open arrivals per circuit. *)
let mix =
  let total = float_of_int (List.fold_left (fun acc (_, w) -> acc + w) 0 small_mix) in
  let small = 1. -. (1. /. float_of_int elephant_every) in
  List.map (fun (s, w) -> (s, small *. float_of_int w /. total)) small_mix
  @ [ (mm16, 1. /. float_of_int elephant_every) ]

(* Circuits that must be resident on every worker before timing. *)
let specs = function
  | Mm16_burst -> [ mm16 ]
  | Mixed_open -> List.map fst mix
  | Trace8_stream -> [ trace8 ]

(* The workers' batch flush deadline (ms).  mm16_burst waits for whole
   bursts: a burst of 62 frames (about 250 KB) reaches a worker in
   several reads, and the default adaptive flush (0, flush when input
   runs dry) splits it into two batches at a point that moves with host
   timing.  A 62-lane batch costs about as much as a 20-lane one, so the
   split point decides the median latency.  The other workloads serve
   one lane at a time and keep the default. *)
let flush_ms = function Mm16_burst -> 20. | Mixed_open | Trace8_stream -> 0.

(* Connections the load generator opens, on the worker endpoints in
   order.  trace8_stream drives one session on the first worker: its
   lockstep updates are short, and with two sessions both workers and
   the client compete for two cores, so the figures would measure the
   scheduler rather than the update path. *)
let connections ~workers = function Trace8_stream -> 1 | Mm16_burst | Mixed_open -> workers

(* The server shares one compiled circuit between a conv spec and the
   matmul spec with the same parameters; so does everything keyed by
   [Circuit_cache.key]. *)
let key = Tcmm_server.Circuit_cache.key

(* ------------------------------------------------------------------ *)
(* Requests with their references                                     *)
(* ------------------------------------------------------------------ *)

(* Replies carry no request id.  A worker answers requests of one
   circuit in arrival order, but requests of different circuits may
   overtake each other when batches dispatch; the load generator keeps
   one FIFO per reply class and matches a reply to the oldest request of
   its class.  Within one workload, each reply class maps to exactly one
   circuit. *)
type cls = Mm of int | Trace_cls | Tri_cls | Conv_cls | Update_cls | Open_cls

let class_of_response = function
  | P.Matmul_result (m, f) -> Some (Mm (M.rows m), f)
  | P.Trace_result (_, f) -> Some (Trace_cls, f)
  | P.Triangles_result (_, f) -> Some (Tri_cls, f)
  | P.Conv_result (_, f) -> Some (Conv_cls, f)
  | P.Update_result u -> Some (Update_cls, u.P.ur_firings)
  | P.Session_opened o -> Some (Open_cls, o.P.so_firings)
  | _ -> None

type op = {
  spec : P.spec;
  request : P.request;
  frame : string;  (** the framed request, written verbatim *)
  cls : cls;
  expected : P.response;
      (** the reference answer; firing counts in it are placeholders *)
}

(* Bit-identical comparison against the integer reference.  Firing
   counts are not part of the reference. *)
let correct op (r : P.response) =
  match (op.expected, r) with
  | P.Matmul_result (e, _), P.Matmul_result (m, _) -> M.equal e m
  | P.Trace_result (e, _), P.Trace_result (b, _) -> e = b
  | P.Triangles_result (e, _), P.Triangles_result (b, _) -> e = b
  | P.Conv_result (e, _), P.Conv_result (s, _) -> e = s
  | P.Update_result e, P.Update_result u -> e.P.ur_fires = u.P.ur_fires
  | P.Session_opened e, P.Session_opened o -> e.P.so_fires = o.P.so_fires
  | _ -> false

let make spec request cls expected =
  { spec; request; frame = P.frame (P.encode_request request); cls; expected }

let graph rng ~n = G.Generate.erdos_renyi rng ~n ~p:0.3

let matmul_op rng (s : P.spec) =
  let lo, hi = if s.P.signed then (-3, 3) else (0, 1) in
  let a = M.random rng ~rows:s.P.n ~cols:s.P.n ~lo ~hi in
  let b = M.random rng ~rows:s.P.n ~cols:s.P.n ~lo ~hi in
  make s (P.Run_matmul (s, a, b)) (Mm s.P.n) (P.Matmul_result (M.mul a b, 0))

let trace_op rng (s : P.spec) =
  let a = G.Graph.adjacency (graph rng ~n:s.P.n) in
  let t = T.Trace_circuit.reference a in
  match s.P.kind with
  | P.Triangles ->
      make s (P.Run_triangles (s, a)) Tri_cls
        (P.Triangles_result (t >= 6 * s.P.tau, 0))
  | _ -> make s (P.Run_trace (s, a)) Trace_cls (P.Trace_result (t >= s.P.tau, 0))

let conv_job_of rng ~channels ~size ~stride ~kernels =
  {
    P.cj_q = 2;
    cj_stride = stride;
    cj_image = C.Image.random rng ~channels ~height:size ~width:size ~lo:0 ~hi:3;
    cj_kernels =
      Array.init kernels (fun _ ->
          C.Image.random rng ~channels ~height:2 ~width:2 ~lo:(-3) ~hi:3);
  }

let conv_job rng = conv_job_of rng ~channels:2 ~size:4 ~stride:2 ~kernels:4

(* A job filling an n=16 circuit (P = Q = K = 16): the im2col reference
   point for workloads that serve no convolution. *)
let conv_job16 rng = conv_job_of rng ~channels:4 ~size:5 ~stride:1 ~kernels:16

let conv_spec (j : P.conv_job) = { C.Im2col.q = j.P.cj_q; stride = j.P.cj_stride }

let conv_op rng (s : P.spec) =
  let j = conv_job rng in
  make s (P.Run_conv (s, j)) Conv_cls
    (P.Conv_result (C.Conv.direct (conv_spec j) j.P.cj_image j.P.cj_kernels, 0))

let run_op rng (s : P.spec) =
  match s.P.kind with
  | P.Matmul -> matmul_op rng s
  | P.Trace | P.Triangles -> trace_op rng s
  | P.Conv -> conv_op rng s

(* mm16_burst: a pool of distinct products per connection, cycled in
   bursts of 62 (one full batch of bit-packed lanes). *)
let burst = 62

let burst_pool rng ~bursts = Array.init (burst * bursts) (fun _ -> matmul_op rng mm16)

(* mixed_open: a Poisson arrival schedule at [rate] requests/s over
   [seconds] — round (rate * seconds) instants drawn uniformly and
   sorted, which is a Poisson process conditioned on its count — with the
   circuits in exact proportion: elephants at fixed spacing, the small
   circuits shuffled over the remaining slots. *)
type arrival = { due : float;  (** seconds after the window opens *) aop : op }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let schedule rng ~rate ~seconds =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let due = Array.init n (fun _ -> Prng.float rng *. seconds) in
  Array.sort compare due;
  let elephant i = i mod elephant_every = elephant_every - 1 in
  let slots = n - (n / elephant_every) in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 small_mix in
  (* Largest-remainder apportionment of the small slots. *)
  let quota = List.map (fun (s, w) -> (s, slots * w / total, slots * w mod total)) small_mix in
  let short = slots - List.fold_left (fun acc (_, q, _) -> acc + q) 0 quota in
  let by_rem = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) quota in
  let small =
    Array.of_list
      (List.concat
         (List.mapi
            (fun k (s, q, _) -> List.init (q + if k < short then 1 else 0) (fun _ -> s))
            by_rem))
  in
  shuffle rng small;
  let next = ref 0 in
  Array.init n (fun i ->
      let s =
        if elephant i then mm16
        else begin
          incr next;
          small.(!next - 1)
        end
      in
      { due = due.(i); aop = run_op rng s })

(* trace8_stream: a seeded Erdos-Renyi start graph, then a cycle of
   single-edge flips that walks [steps] flips away and retraces them, so
   the stream can loop for any duration with every state's reference
   precomputed.  The session runs mixed_open's trace8 circuit, not a
   trace N=16 one: an N=16 dirty cone misses the cache on almost every
   touch, so on a shared host its cost follows neighbouring load (30-40%
   between runs) more than the program. *)
type stream = {
  open_op : op;
  updates : (int * bool) array array;  (** one input-bit delta per step *)
  fires : bool array;  (** reference answer after each step *)
  states : M.t array;  (** adjacency matrix after each step *)
}

(* The trace circuit allocates its input layout first, so the wires
   carrying A start at 0 — the same reconstruction a warm load from the
   artifact store performs. *)
let trace_layout n = T.Encode.restore ~rows:n ~cols:n ~entry_bits:1 ~signed:false ~base:0

let stream rng ~steps =
  let n = trace8.P.n and tau = trace8.P.tau in
  let layout = trace_layout n in
  let g0 = graph rng ~n in
  let flips =
    Array.init steps (fun _ ->
        let i = Prng.int rng ~bound:(n - 1) in
        (i, Prng.int_range rng ~lo:(i + 1) ~hi:(n - 1)))
  in
  let order = Array.append flips (Array.of_list (List.rev (Array.to_list flips))) in
  let g = ref g0 in
  let states =
    Array.map
      (fun f ->
        let g', d = G.Stream.delta ~layout !g [ f ] in
        g := g';
        (d, G.Graph.adjacency g'))
      order
  in
  let start = G.Graph.adjacency g0 in
  let fires_of a = T.Trace_circuit.reference a >= tau in
  {
    open_op =
      make trace8 (P.Open_session (trace8, start)) Open_cls
        (P.Session_opened { P.so_sid = 0; so_fires = fires_of start; so_firings = 0 });
    updates = Array.map fst states;
    fires = Array.map (fun (_, a) -> fires_of a) states;
    states = Array.map snd states;
  }

(* A one-shot [Run_trace] of the graph after step [k]: the end-of-stream
   cross-check of the session path against the batch path. *)
let final_check (st : stream) k =
  make trace8
    (P.Run_trace (trace8, st.states.(k)))
    Trace_cls
    (P.Trace_result (st.fires.(k), 0))

let update_op ~sid (st : stream) k =
  make trace8
    (P.Update (sid, st.updates.(k)))
    Update_cls
    (P.Update_result
       { P.ur_fires = st.fires.(k); ur_firings = 0; ur_dirty_gates = 0; ur_gates = 0 })
