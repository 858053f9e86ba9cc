(* In-process layer timings for the traced run, taken by calling each
   layer's public functions from here on the workload's own inputs, after
   the fleet has drained.  Nothing inside lib/ is instrumented. *)

module P = Tcmm_server.Protocol
module T = Tcmm
module Th = Tcmm_threshold
module F = Tcmm_fastmm
module C = Tcmm_convnet
module S = Tcmm_store
module CC = Tcmm_server.Circuit_cache
module W = Workload

let now = Tcmm_util.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over [reps] timings of [f] (seconds). *)
let timed ~reps f = median (List.init reps (fun _ -> snd (time f)))

(* ------------------------------------------------------------------ *)
(* Requests as circuit inputs                                         *)
(* ------------------------------------------------------------------ *)

(* The server-side im2col of a served convolution: patch and kernel
   matrices embedded into the circuit's n x n operands. *)
let im2col (j : P.conv_job) ~n =
  let spec = W.conv_spec j in
  ( C.Im2col.embed (C.Im2col.patch_matrix spec j.P.cj_image) ~n,
    C.Im2col.embed (C.Im2col.kernel_matrix j.P.cj_kernels) ~n )

let input (built : CC.compiled) (op : W.op) =
  match (built, op.W.request) with
  | Matmul b, P.Run_matmul (_, a, bm) -> T.Matmul_circuit.encode_inputs b ~a ~b:bm
  | Matmul b, P.Run_conv (s, j) ->
      let a, bm = im2col j ~n:s.P.n in
      T.Matmul_circuit.encode_inputs b ~a ~b:bm
  | Trace b, (P.Run_trace (_, a) | P.Run_triangles (_, a) | P.Open_session (_, a)) ->
      T.Trace_circuit.encode_input b a
  | _ -> invalid_arg "request does not match the circuit"

(* Lane [lane] of a batch against the op's integer reference. *)
let lane_correct (built : CC.compiled) (op : W.op) br ~lane =
  let value w = Th.Packed.batch_value br ~lane w in
  match (built, op.W.expected) with
  | Matmul b, P.Matmul_result (e, _) -> F.Matrix.equal (T.Matmul_circuit.decode b value) e
  | Matmul b, P.Conv_result (e, _) -> (
      match op.W.request with
      | P.Run_conv (_, j) ->
          let m = T.Matmul_circuit.decode b value in
          let spec = W.conv_spec j in
          let product =
            F.Matrix.init
              ~rows:(C.Im2col.patch_count spec j.P.cj_image)
              ~cols:(Array.length j.P.cj_kernels)
              (F.Matrix.get m)
          in
          C.Im2col.scores_of_product spec j.P.cj_image product = e
      | _ -> false)
  | Trace b, (P.Trace_result (e, _) | P.Triangles_result (e, _)) ->
      value b.T.Trace_circuit.output = e
  | Trace b, P.Session_opened e -> value b.T.Trace_circuit.output = e.P.so_fires
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-circuit legs                                                   *)
(* ------------------------------------------------------------------ *)

type leg = {
  weight : float;  (** share of the workload's ops on this circuit *)
  construct_s : float;
  lower_s : float;
  save_s : float;
  load_s : float;
  artifact_mb : float;
  gates : int;
  levels : int;
  pool_edges : int;
  kernel_gates : int;
  batch62_ms_per_vec : float;
  batch1_ms : float;
  run_ms : float;
  update_ms : float;
  dirty_ratio : float;
}

(* Input-bit deltas for the update leg: the workload's own edge flips
   when it streams, else flips of two seeded input wires. *)
type deltas = Given of (int * bool) array array | Random_pairs of int

(* Make [spec] resident in a fresh circuit cache over [store], as a
   worker does on its first request for it: the entry, how it got there,
   and the wall time of the call. *)
let resident store spec =
  let cache = CC.create ~store ~capacity:1 () in
  let t0 = now () in
  match CC.find_or_build cache spec with
  | Ok (e, outcome) -> (e, outcome, now () -. t0)
  | Error msg -> failwith ("circuit cache: " ^ msg)

(* The cold set-up's two legs on an empty [store]: one cache builds the
   circuit and saves it, a second one loads it back.  The rest is timed
   on the loaded circuit, the one the measured fleet serves. *)
let circuit_leg ~store ~reps ~weight ~deltas (spec : P.spec) (ops : W.op array) =
  let fresh, built_outcome, build_wall = resident store spec in
  let warm, load_outcome, _ = resident store spec in
  if built_outcome <> CC.Built || load_outcome <> CC.Loaded then
    failwith ("expected a build, then a store load, for " ^ W.key spec);
  let packed = warm.CC.packed in
  if not (Th.Packed.structural_equal packed fresh.CC.packed) then
    failwith ("store round trip changed " ^ W.key spec);
  let built = fresh.CC.compiled in
  let batch = Array.init W.burst (fun i -> ops.(i mod Array.length ops)) in
  let inputs = Array.map (input built) batch in
  let ws = Th.Packed.workspace () in
  let br = Th.Packed.run_batch ~ws packed inputs in
  Array.iteri
    (fun lane op ->
      if not (lane_correct built op br ~lane) then
        failwith ("in-process batch disagrees with the reference on " ^ W.key spec))
    batch;
  let batch62 = timed ~reps (fun () -> ignore (Th.Packed.run_batch ~ws packed inputs)) in
  let k = ref 0 in
  let next () =
    incr k;
    inputs.(!k mod Array.length inputs)
  in
  let batch1 = timed ~reps (fun () -> ignore (Th.Packed.run_batch ~ws packed [| next () |])) in
  let run = timed ~reps (fun () -> ignore (Th.Packed.run packed (next ()))) in
  let session = Th.Packed.session packed inputs.(0) in
  let deltas =
    match deltas with
    | Given d -> d
    | Random_pairs count ->
        let rng = Tcmm_util.Prng.create ~seed:(Hashtbl.hash (W.key spec)) in
        let cur = Array.copy inputs.(0) in
        let width = Array.length cur in
        Array.init count (fun _ ->
            Array.init 2 (fun _ ->
                let w = Tcmm_util.Prng.int rng ~bound:width in
                cur.(w) <- not cur.(w);
                (w, cur.(w))))
  in
  let s0 = Th.Packed.session_stats session in
  let (), t_upd =
    time (fun () -> Array.iter (fun d -> ignore (Th.Packed.update session d)) deltas)
  in
  let s1 = Th.Packed.session_stats session in
  let cov = Th.Packed.coverage packed in
  let gates = Th.Packed.num_gates packed in
  let n_upd = Array.length deltas in
  {
    weight;
    construct_s = fresh.CC.construct_seconds;
    lower_s = fresh.CC.lower_seconds;
    save_s = build_wall -. fresh.CC.build_seconds;
    load_s = warm.CC.build_seconds;
    artifact_mb =
      float_of_int (Unix.stat (S.Store.path_of_key store (W.key spec))).Unix.st_size /. 1048576.;
    gates;
    levels = Th.Packed.num_levels packed;
    pool_edges = Th.Packed.pool_edges packed;
    kernel_gates = cov.Th.Packed.kernel_gates;
    batch62_ms_per_vec = batch62 *. 1e3 /. float_of_int W.burst;
    batch1_ms = batch1 *. 1e3;
    run_ms = run *. 1e3;
    update_ms = t_upd *. 1e3 /. float_of_int n_upd;
    dirty_ratio =
      float_of_int (s1.Th.Packed.su_dirty_gates - s0.Th.Packed.su_dirty_gates)
      /. float_of_int (n_upd * gates);
  }

(* ------------------------------------------------------------------ *)
(* Protocol and im2col legs                                           *)
(* ------------------------------------------------------------------ *)

(* Encode + decode of each request and its reply, microseconds per op. *)
let codec_us ~reps (ops : W.op array) =
  let pass () =
    Array.iter
      (fun (op : W.op) ->
        ignore (P.decode_request (P.encode_request op.W.request));
        ignore (P.decode_response (P.encode_response op.W.expected)))
      ops
  in
  timed ~reps pass *. 1e6 /. float_of_int (Array.length ops)

(* Framed request plus framed reply, bytes per op. *)
let bytes_per_op (ops : W.op array) =
  let total =
    Array.fold_left
      (fun acc (op : W.op) ->
        acc + String.length op.W.frame + 4
        + String.length (P.encode_response op.W.expected))
      0 ops
  in
  float_of_int total /. float_of_int (Array.length ops)

let im2col_us ~reps (jobs : (P.conv_job * int) array) =
  let pass () = Array.iter (fun (j, n) -> ignore (im2col j ~n)) jobs in
  timed ~reps pass *. 1e6 /. float_of_int (Array.length jobs)
