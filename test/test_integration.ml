(* Cross-library integration properties: whole pipelines driven by
   randomized configurations.  Each property exercises several libraries
   at once (encode -> trees -> products -> combine -> simulate/export/
   spike -> decode) against exact integer references. *)

open Tcmm
open Tcmm_fastmm
open Tcmm_threshold
module S = Tcmm_test_support.Support
module Prng = Tcmm_util.Prng

let strassen = Instances.strassen
let profile = Sparsity.analyze strassen

(* A random small configuration: size, schedule, bits, signedness. *)
let random_config rng =
  let n = [| 2; 4; 4; 8 |].(Prng.int rng ~bound:4) in
  let l = Level_schedule.height ~t_dim:2 ~n in
  let schedule =
    match Prng.int rng ~bound:4 with
    | 0 -> Level_schedule.full ~l
    | 1 -> Level_schedule.direct ~l
    | 2 -> Level_schedule.uniform ~steps:(1 + Prng.int rng ~bound:l) ~l
    | _ -> Level_schedule.theorem45 ~profile ~d:(1 + Prng.int rng ~bound:3) ~n
  in
  let entry_bits = 1 + Prng.int rng ~bound:2 in
  let signed = Prng.bool rng in
  let share_top = Prng.bool rng in
  (n, schedule, entry_bits, signed, share_top)

let random_matrix rng ~n ~entry_bits ~signed =
  let hi = (1 lsl entry_bits) - 1 in
  let lo = if signed then -hi else 0 in
  Matrix.random rng ~rows:n ~cols:n ~lo ~hi

let prop_matmul_pipeline =
  S.qcheck_case ~count:25 "matmul circuit = exact product (random configs)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n, schedule, entry_bits, signed, share_top = random_config rng in
      let a = random_matrix rng ~n ~entry_bits ~signed in
      let b = random_matrix rng ~n ~entry_bits ~signed in
      let built =
        Matmul_circuit.build ~algo:strassen ~schedule ~signed_inputs:signed ~share_top
          ~entry_bits ~n ()
      in
      Matrix.equal (Matmul_circuit.run built ~a ~b) (Matrix.mul a b))

let prop_trace_pipeline =
  S.qcheck_case ~count:25 "trace circuit = exact trace (random configs)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n, schedule, entry_bits, signed, share_top = random_config rng in
      let m = random_matrix rng ~n ~entry_bits ~signed in
      let expect = Trace_circuit.reference m in
      let built =
        Trace_circuit.build ~algo:strassen ~schedule ~signed_inputs:signed ~share_top
          ~entry_bits ~tau:expect ~n ()
      in
      Trace_circuit.trace_value built m = expect && Trace_circuit.run built m)

let prop_trace_dp_matches_builder =
  S.qcheck_case ~count:25 "trace counting DP = count-only builder (random configs)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n, schedule, entry_bits, signed, share_top = random_config rng in
      let built =
        Trace_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
          ~signed_inputs:signed ~share_top ~entry_bits ~tau:1 ~n ()
      in
      let s = Trace_circuit.stats built in
      let dp =
        Gate_count.trace ~algo:strassen ~schedule ~entry_bits ~signed_inputs:signed
          ~share_top ~n ()
      in
      s.Stats.gates = dp.Gate_count.gates && s.Stats.edges = dp.Gate_count.edges)

let prop_matmul_dp_matches_builder =
  S.qcheck_case ~count:15 "matmul counting DP = count-only builder (random configs)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n, schedule, entry_bits, signed, share_top = random_config rng in
      (* Keep the heaviest direct-combine cases out of the property's
         budget. *)
      let n = min n 4 in
      let schedule =
        if Level_schedule.height ~t_dim:2 ~n < Level_schedule.steps schedule then
          Level_schedule.full ~l:(Level_schedule.height ~t_dim:2 ~n)
        else
          Level_schedule.of_levels ~description:"clipped"
            (Array.of_list
               (List.sort_uniq compare
                  (List.filter
                     (fun h -> h <= Level_schedule.height ~t_dim:2 ~n)
                     (Array.to_list schedule.Level_schedule.levels)
                  @ [ Level_schedule.height ~t_dim:2 ~n ])))
      in
      let built =
        Matmul_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
          ~signed_inputs:signed ~share_top ~entry_bits ~n ()
      in
      let s = Matmul_circuit.stats built in
      let dp =
        Gate_count_matmul.matmul ~algo:strassen ~schedule ~entry_bits
          ~signed_inputs:signed ~share_top ~n ()
      in
      s.Stats.gates = dp.Gate_count.gates && s.Stats.edges = dp.Gate_count.edges)

let prop_tiled_matches_mul =
  S.qcheck_case ~count:20 "tiled rectangular product = exact product"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let block_l = 1 + Prng.int rng ~bound:2 in
      let block = 1 lsl block_l in
      let dim () = block * (1 + Prng.int rng ~bound:2) in
      let rows = dim () and inner = dim () and cols = dim () in
      let entry_bits = 1 + Prng.int rng ~bound:2 in
      let signed = Prng.bool rng in
      let hi = (1 lsl entry_bits) - 1 in
      let lo = if signed then -hi else 0 in
      let a = Matrix.random rng ~rows ~cols:inner ~lo ~hi in
      let b = Matrix.random rng ~rows:inner ~cols ~lo ~hi in
      let built =
        Tiled_matmul.build ~algo:strassen ~schedule:(Level_schedule.full ~l:block_l)
          ~signed_inputs:signed ~entry_bits ~rows ~inner ~cols ()
      in
      Matrix.equal (Tiled_matmul.run built ~a ~b) (Matrix.mul a b))

let prop_graph_threshold_queries =
  S.qcheck_case ~count:20 "triangle threshold query = exact comparison"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 8 in
      let p = 0.2 +. (0.6 *. Prng.float rng) in
      let g = Tcmm_graph.Generate.erdos_renyi rng ~n ~p in
      let exact = Tcmm_graph.Triangles.count g in
      let tau = Prng.int rng ~bound:(max 1 (2 * max exact 1)) in
      let schedule = Level_schedule.theorem45 ~profile ~d:2 ~n in
      let built =
        Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau:(6 * tau) ~n ()
      in
      Trace_circuit.run built (Tcmm_graph.Graph.adjacency g) = (exact >= tau))

let prop_export_spike_roundtrip =
  S.qcheck_case ~count:10 "export -> parse -> spike = simulate"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let m = random_matrix rng ~n:4 ~entry_bits:1 ~signed:false in
      let built =
        Trace_circuit.build ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
          ~entry_bits:1 ~tau:(Prng.int_range rng ~lo:0 ~hi:20) ~n:4 ()
      in
      let c = Trace_circuit.circuit built in
      let reloaded = Export.of_netlist (Export.to_netlist c) in
      let input = Trace_circuit.encode_input built m in
      let _, spiked = Spiking.settle reloaded input in
      spiked = Simulator.read_outputs c input)

let prop_prune_keeps_matmul_exact =
  S.qcheck_case ~count:10 "pruned matmul circuit still computes the product"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let a = random_matrix rng ~n:4 ~entry_bits:2 ~signed:true in
      let b = random_matrix rng ~n:4 ~entry_bits:2 ~signed:true in
      let built =
        Matmul_circuit.build ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
          ~signed_inputs:true ~entry_bits:2 ~n:4 ()
      in
      let c = Matmul_circuit.circuit built in
      let { Transform.circuit = pruned; wire_map } = Transform.prune c in
      let input = Matmul_circuit.encode_inputs built ~a ~b in
      let r = Simulator.run pruned input in
      let read w = Simulator.value r wire_map.(w) in
      let decoded =
        Matrix.init ~rows:4 ~cols:4 (fun i j ->
            Tcmm_arith.Repr.eval_sbits read built.Matmul_circuit.c_grid.(i).(j))
      in
      Matrix.equal decoded (Matrix.mul a b))

let prop_energy_deterministic =
  S.qcheck_case ~count:10 "simulation and firing counts are deterministic"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let m = random_matrix rng ~n:4 ~entry_bits:1 ~signed:false in
      let built =
        Trace_circuit.build ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
          ~entry_bits:1 ~tau:3 ~n:4 ()
      in
      let c = Trace_circuit.circuit built in
      let input = Trace_circuit.encode_input built m in
      let r1 = Simulator.run c input and r2 = Simulator.run c input in
      r1.Simulator.firings = r2.Simulator.firings
      && r1.Simulator.firings <= Circuit.num_gates c
      && r1.Simulator.outputs = r2.Simulator.outputs)

let prop_validate_clean_constructions =
  S.qcheck_case ~count:10 "constructed circuits pass structural validation"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n, schedule, entry_bits, signed, share_top = random_config rng in
      ignore rng;
      let built =
        Trace_circuit.build ~algo:strassen ~schedule ~signed_inputs:signed ~share_top
          ~entry_bits ~tau:1 ~n ()
      in
      let c = Trace_circuit.circuit built in
      (* Our constructors never emit error-severity issues (dangling
         wires, duplicate inputs, zero weights); warnings such as
         constant gates can legitimately appear near the threshold
         comparator. *)
      List.for_all
        (fun issue -> Validate.severity issue = `Warning)
        (Validate.check c))

let () =
  Alcotest.run "tcmm_integration"
    [
      ( "pipelines",
        [
          prop_matmul_pipeline;
          prop_trace_pipeline;
          prop_tiled_matches_mul;
          prop_graph_threshold_queries;
        ] );
      ( "counting",
        [ prop_trace_dp_matches_builder; prop_matmul_dp_matches_builder ] );
      ( "interop",
        [
          prop_export_spike_roundtrip;
          prop_prune_keeps_matmul_exact;
          prop_energy_deterministic;
          prop_validate_clean_constructions;
        ] );
    ]
