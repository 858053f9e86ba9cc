open Tcmm_threshold
module S = Tcmm_test_support.Support

(* ------------------------------------------------------------------ *)
(* Gate                                                               *)
(* ------------------------------------------------------------------ *)

let test_gate_make_mismatch () =
  try
    ignore (Gate.make ~inputs:[| 0; 1 |] ~weights:[| 1 |] ~threshold:0);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_gate_eval () =
  let g = Gate.make ~inputs:[| 0; 1; 2 |] ~weights:[| 2; -1; 3 |] ~threshold:3 in
  let read values w = values.(w) in
  S.check_bool "2-1+3>=3" true (Gate.eval g (read [| true; true; true |]));
  S.check_bool "2>=3 false" false (Gate.eval g (read [| true; false; false |]));
  S.check_bool "3>=3" true (Gate.eval g (read [| false; false; true |]));
  S.check_bool "-1>=3 false" false (Gate.eval g (read [| false; true; false |]));
  S.check_bool "empty sum" true
    (Gate.eval (Gate.make ~inputs:[||] ~weights:[||] ~threshold:0) (fun _ -> false))

let test_gate_eval_checked_matches () =
  let g = Gate.make ~inputs:[| 0; 1 |] ~weights:[| 5; -7 |] ~threshold:(-1) in
  S.all_inputs 2
  |> List.iter (fun input ->
         S.check_bool "checked = unchecked"
           (Gate.eval g (fun w -> input.(w)))
           (Gate.eval_checked g (fun w -> input.(w))))

let test_gate_max_abs_weight () =
  let g = Gate.make ~inputs:[| 0; 1 |] ~weights:[| -9; 4 |] ~threshold:0 in
  S.check_int "max |w|" 9 (Gate.max_abs_weight g);
  S.check_int "empty" 0 (Gate.max_abs_weight (Gate.make ~inputs:[||] ~weights:[||] ~threshold:1))

(* ------------------------------------------------------------------ *)
(* Builder + Circuit                                                  *)
(* ------------------------------------------------------------------ *)

let test_builder_inputs_first () =
  let b = Builder.create () in
  let _ = Builder.add_input b in
  let _ = Builder.add_gate b ~inputs:[| 0 |] ~weights:[| 1 |] ~threshold:1 in
  try
    ignore (Builder.add_input b);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_builder_dangling_wire () =
  let b = Builder.create () in
  let _ = Builder.add_inputs b 2 in
  try
    ignore (Builder.add_gate b ~inputs:[| 5 |] ~weights:[| 1 |] ~threshold:1);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_builder_depth_tracking () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  S.check_int "input depth" 0 (Builder.depth_of b x);
  let g1 = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  S.check_int "first layer" 1 (Builder.depth_of b g1);
  let g2 = Builder.add_gate b ~inputs:[| x; g1 |] ~weights:[| 1; 1 |] ~threshold:2 in
  S.check_int "second layer" 2 (Builder.depth_of b g2);
  let g3 = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  S.check_int "parallel gate stays shallow" 1 (Builder.depth_of b g3)

let test_builder_stats () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 3 in
  let g1 =
    Builder.add_gate b ~inputs:ins ~weights:[| 1; 2; -4 |] ~threshold:1
  in
  let g2 = Builder.add_gate b ~inputs:[| g1 |] ~weights:[| 1 |] ~threshold:1 in
  Builder.output b g2;
  let s = Builder.stats b in
  S.check_int "inputs" 3 s.Stats.inputs;
  S.check_int "outputs" 1 s.Stats.outputs;
  S.check_int "gates" 2 s.Stats.gates;
  S.check_int "edges" 4 s.Stats.edges;
  S.check_int "depth" 2 s.Stats.depth;
  S.check_int "max fan-in" 3 s.Stats.max_fan_in;
  S.check_int "max |w|" 4 s.Stats.max_abs_weight;
  Alcotest.(check (array int)) "by depth" [| 1; 1 |] s.Stats.gates_by_depth

let test_count_only_matches_materialize () =
  (* The same construction must produce identical stats in both modes. *)
  let build b =
    let ins = Builder.add_inputs b 4 in
    let layer1 =
      Array.map
        (fun w -> Builder.add_gate b ~inputs:[| w |] ~weights:[| 1 |] ~threshold:1)
        ins
    in
    let top =
      Builder.add_gate b ~inputs:layer1 ~weights:[| 1; 1; 1; 1 |] ~threshold:2
    in
    Builder.output b top
  in
  let bm = Builder.create () in
  build bm;
  let bc = Builder.create ~mode:Builder.Count_only () in
  build bc;
  let sm = Builder.stats bm and sc = Builder.stats bc in
  S.check_int "gates" sm.Stats.gates sc.Stats.gates;
  S.check_int "edges" sm.Stats.edges sc.Stats.edges;
  S.check_int "depth" sm.Stats.depth sc.Stats.depth;
  S.check_int "fan-in" sm.Stats.max_fan_in sc.Stats.max_fan_in;
  Alcotest.(check (array int)) "by depth" sm.Stats.gates_by_depth sc.Stats.gates_by_depth

let test_shared_gates_match_individual () =
  (* add_shared_gates must be observationally identical to a sequence of
     add_gate calls: same stats, same simulation. *)
  let inputs_weights = ([| 0; 1; 2 |], [| 2; -1; 3 |]) in
  let thresholds = [| 0; 1; 2; 3; 4 |] in
  let build_shared b =
    let _ = Builder.add_inputs b 3 in
    let inputs, weights = inputs_weights in
    let y = Builder.add_shared_gates b ~inputs ~weights ~thresholds in
    Array.iter (Builder.output b) y
  in
  let build_individual b =
    let _ = Builder.add_inputs b 3 in
    let inputs, weights = inputs_weights in
    Array.iter
      (fun threshold -> Builder.output b (Builder.add_gate b ~inputs ~weights ~threshold))
      thresholds
  in
  let bs = Builder.create () and bi = Builder.create () in
  build_shared bs;
  build_individual bi;
  let ss = Builder.stats bs and si = Builder.stats bi in
  S.check_int "gates" si.Stats.gates ss.Stats.gates;
  S.check_int "edges" si.Stats.edges ss.Stats.edges;
  S.check_int "depth" si.Stats.depth ss.Stats.depth;
  S.check_int "fan-in" si.Stats.max_fan_in ss.Stats.max_fan_in;
  S.check_int "|w|" si.Stats.max_abs_weight ss.Stats.max_abs_weight;
  let cs = Builder.finalize bs and ci = Builder.finalize bi in
  S.all_inputs 3
  |> List.iter (fun input ->
         Alcotest.(check (array bool))
           "same outputs"
           (Simulator.read_outputs ci input)
           (Simulator.read_outputs cs input))

let test_shared_gates_empty_thresholds () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  let y = Builder.add_shared_gates b ~inputs:[| x |] ~weights:[| 5 |] ~thresholds:[||] in
  S.check_int "no wires" 0 (Array.length y);
  let s = Builder.stats b in
  S.check_int "no gates" 0 s.Stats.gates;
  S.check_int "no weight recorded" 0 s.Stats.max_abs_weight

let test_shared_gates_validation () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  (try
     ignore (Builder.add_shared_gates b ~inputs:[| x |] ~weights:[| 1; 2 |] ~thresholds:[| 1 |]);
     Alcotest.fail "expected invalid_arg (length)"
   with Invalid_argument _ -> ());
  try
    ignore (Builder.add_shared_gates b ~inputs:[| 7 |] ~weights:[| 1 |] ~thresholds:[| 1 |]);
    Alcotest.fail "expected invalid_arg (dangling)"
  with Invalid_argument _ -> ()

let test_count_only_finalize_rejected () =
  let b = Builder.create ~mode:Builder.Count_only () in
  let _ = Builder.add_input b in
  try
    ignore (Builder.finalize b);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_circuit_stats_match_builder () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 2 in
  let g = Builder.add_gate b ~inputs:ins ~weights:[| 1; 1 |] ~threshold:2 in
  Builder.output b g;
  let c = Builder.finalize b in
  let sb = Builder.stats b and sc = Circuit.stats c in
  S.check_int "gates" sb.Stats.gates sc.Stats.gates;
  S.check_int "edges" sb.Stats.edges sc.Stats.edges;
  S.check_int "depth" sb.Stats.depth sc.Stats.depth;
  S.check_int "outputs" sb.Stats.outputs sc.Stats.outputs

let test_const_wires () =
  let b = Builder.create () in
  let t = Builder.const b true in
  let f = Builder.const b false in
  Builder.output b t;
  Builder.output b f;
  let c = Builder.finalize b in
  let r = Simulator.run c [||] in
  Alcotest.(check (array bool)) "consts" [| true; false |] r.Simulator.outputs

(* ------------------------------------------------------------------ *)
(* Simulator                                                          *)
(* ------------------------------------------------------------------ *)

let test_simulate_and_or_majority () =
  (* AND, OR and MAJ of three inputs as single threshold gates. *)
  let b = Builder.create () in
  let ins = Builder.add_inputs b 3 in
  let weights = [| 1; 1; 1 |] in
  let and3 = Builder.add_gate b ~inputs:ins ~weights ~threshold:3 in
  let or3 = Builder.add_gate b ~inputs:ins ~weights ~threshold:1 in
  let maj3 = Builder.add_gate b ~inputs:ins ~weights ~threshold:2 in
  List.iter (Builder.output b) [ and3; or3; maj3 ];
  let c = Builder.finalize b in
  S.all_inputs 3
  |> List.iter (fun input ->
         let expect_and = Array.for_all Fun.id input in
         let expect_or = Array.exists Fun.id input in
         let ones = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 input in
         let out = Simulator.read_outputs c input in
         S.check_bool "and" expect_and out.(0);
         S.check_bool "or" expect_or out.(1);
         S.check_bool "maj" (ones >= 2) out.(2))

let test_simulate_parity_2layer () =
  (* XOR via threshold gates: x+y>=1 and -(x+y)>=-1 ANDed. *)
  let b = Builder.create () in
  let ins = Builder.add_inputs b 2 in
  let ge1 = Builder.add_gate b ~inputs:ins ~weights:[| 1; 1 |] ~threshold:1 in
  let le1 = Builder.add_gate b ~inputs:ins ~weights:[| -1; -1 |] ~threshold:(-1) in
  let xor = Builder.add_gate b ~inputs:[| ge1; le1 |] ~weights:[| 1; 1 |] ~threshold:2 in
  Builder.output b xor;
  let c = Builder.finalize b in
  S.all_inputs 2
  |> List.iter (fun input ->
         let out = Simulator.read_outputs c input in
         S.check_bool "xor" (input.(0) <> input.(1)) out.(0))

let test_simulate_firings () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  let id = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  let neg = Builder.add_gate b ~inputs:[| x |] ~weights:[| -1 |] ~threshold:0 in
  Builder.output b id;
  Builder.output b neg;
  let c = Builder.finalize b in
  let r1 = Simulator.run c [| true |] in
  S.check_int "one fires on true" 1 r1.Simulator.firings;
  let r0 = Simulator.run c [| false |] in
  S.check_int "one fires on false" 1 r0.Simulator.firings

let test_simulate_input_mismatch () =
  let b = Builder.create () in
  let _ = Builder.add_inputs b 2 in
  let c = Builder.finalize b in
  try
    ignore (Simulator.run c [| true |]);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let prop_random_circuit_firings_bounded =
  S.qcheck_case "firings never exceed gate count"
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Tcmm_util.Prng.create ~seed in
      let b = Builder.create () in
      let _ = Builder.add_inputs b n in
      (* Random layered circuit over the existing wires. *)
      for _ = 1 to 20 do
        let avail = Builder.num_wires b in
        let fan = 1 + Tcmm_util.Prng.int rng ~bound:(min 4 avail) in
        let inputs = Array.init fan (fun _ -> Tcmm_util.Prng.int rng ~bound:avail) in
        (* Deduplicate to keep Validate clean. *)
        let inputs = Array.of_list (List.sort_uniq compare (Array.to_list inputs)) in
        let weights =
          Array.map (fun _ -> Tcmm_util.Prng.int_range rng ~lo:(-3) ~hi:3) inputs
        in
        let weights = Array.map (fun w -> if w = 0 then 1 else w) weights in
        let threshold = Tcmm_util.Prng.int_range rng ~lo:(-2) ~hi:4 in
        ignore (Builder.add_gate b ~inputs ~weights ~threshold)
      done;
      let c = Builder.finalize b in
      let input = Array.init n (fun _ -> Tcmm_util.Prng.bool rng) in
      let r = Simulator.run ~check:true c input in
      r.Simulator.firings <= Circuit.num_gates c)

(* ------------------------------------------------------------------ *)
(* Validate                                                           *)
(* ------------------------------------------------------------------ *)

let test_validate_clean () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 2 in
  let g = Builder.add_gate b ~inputs:ins ~weights:[| 1; -1 |] ~threshold:0 in
  Builder.output b g;
  let c = Builder.finalize b in
  S.check_bool "clean" true (Validate.is_clean c)

let test_validate_duplicate_and_zero () =
  let g1 = Gate.make ~inputs:[| 0; 0 |] ~weights:[| 1; 1 |] ~threshold:1 in
  let g2 = Gate.make ~inputs:[| 0 |] ~weights:[| 0 |] ~threshold:1 in
  let c = Circuit.make ~num_inputs:1 ~gates:[| g1; g2 |] ~outputs:[| 0 |] in
  let issues = Validate.check c in
  (* g1: duplicate wire; g2: zero weight and (threshold 1 > max sum 0) a
     never-fires warning; output 0 is a raw input. *)
  S.check_int "four issues" 4 (List.length issues);
  S.check_bool "has duplicate" true
    (List.exists (function Validate.Duplicate_input_wire _ -> true | _ -> false) issues);
  S.check_bool "has zero weight" true
    (List.exists (function Validate.Zero_weight _ -> true | _ -> false) issues);
  S.check_bool "has never-fires" true
    (List.exists
       (function Validate.Never_fires { gate = 1; _ } -> true | _ -> false)
       issues);
  S.check_bool "has raw-input output" true
    (List.exists (function Validate.Unreachable_output _ -> true | _ -> false) issues);
  (* Only the zero weight is error-severity; duplicates, constant gates
     and raw-input outputs are warnings. *)
  S.check_int "one error" 1 (List.length (Validate.errors c))

let test_validate_reports_every_gate () =
  (* One violation per gate across four gates: the checker must return
     them all, in gate order, each carrying the offending gate id. *)
  let g0 = Gate.make ~inputs:[| 0 |] ~weights:[| 0 |] ~threshold:0 in
  let g1 = Gate.make ~inputs:[| 0; 0 |] ~weights:[| 1; 2 |] ~threshold:1 in
  let g2 = Gate.make ~inputs:[| 0 |] ~weights:[| 1 |] ~threshold:5 in
  let g3 = Gate.make ~inputs:[| 0 |] ~weights:[| 1 |] ~threshold:0 in
  let c =
    Circuit.make ~num_inputs:1 ~gates:[| g0; g1; g2; g3 |] ~outputs:[| 4 |]
  in
  let gate_of = function
    | Validate.Dangling_wire { gate; _ }
    | Validate.Duplicate_input_wire { gate; _ }
    | Validate.Zero_weight { gate; _ }
    | Validate.Never_fires { gate; _ }
    | Validate.Always_fires { gate; _ } ->
        gate
    | Validate.Unreachable_output _ -> -1
  in
  let issues = Validate.check c in
  (* g0: zero weight + always fires (threshold 0 <= min sum 0);
     g1: duplicate read; g2: never fires (5 > 1); g3: always fires. *)
  Alcotest.(check (list int)) "all gates reported, in order" [ 0; 0; 1; 2; 3 ]
    (List.map gate_of issues);
  S.check_bool "g2 detail" true
    (List.exists
       (function
         | Validate.Never_fires { gate = 2; threshold = 5; max_sum = 1 } -> true
         | _ -> false)
       issues);
  S.check_bool "g3 detail" true
    (List.exists
       (function
         | Validate.Always_fires { gate = 3; threshold = 0; min_sum = 0 } -> true
         | _ -> false)
       issues);
  S.check_int "one error (the zero weight)" 1 (List.length (Validate.errors c))

(* ------------------------------------------------------------------ *)
(* Energy                                                             *)
(* ------------------------------------------------------------------ *)

let test_energy_summary () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  let g = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  Builder.output b g;
  let c = Builder.finalize b in
  let s = Energy.measure c [ [| true |]; [| false |]; [| true |] ] in
  S.check_int "samples" 3 s.Energy.samples;
  S.check_int "min" 0 s.Energy.min_firings;
  S.check_int "max" 1 s.Energy.max_firings;
  Alcotest.(check (float 1e-9)) "mean" (2. /. 3.) s.Energy.mean_firings;
  Alcotest.(check (float 1e-9)) "fraction" (2. /. 3.) (Energy.firing_fraction s);
  S.check_int "one level" 1 (Array.length s.Energy.mean_level_firings);
  Alcotest.(check (float 1e-9)) "level mean" (2. /. 3.) s.Energy.mean_level_firings.(0);
  (* Both engines aggregate identically. *)
  let s_ref =
    Energy.measure ~engine:Simulator.Reference c
      [ [| true |]; [| false |]; [| true |] ]
  in
  Alcotest.(check (float 1e-9)) "engines agree" s.Energy.mean_firings
    s_ref.Energy.mean_firings;
  S.check_int "engines agree (min)" s.Energy.min_firings s_ref.Energy.min_firings

(* Energy's per-level aggregation must agree gate-for-gate with a
   direct [Simulator.run] on the same input — across every standard
   schedule, both matrix sizes, and both build paths (legacy gate
   derivation and template stamping, which are documented to be
   gate-for-gate identical). *)
let test_energy_levels_match_simulator () =
  let algo = Tcmm_fastmm.Instances.strassen in
  let rng = Tcmm_util.Prng.create ~seed:5 in
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          List.iter
            (fun templates ->
              let ctx =
                Printf.sprintf "%s n=%d %s" name n
                  (if templates then "templated" else "legacy")
              in
              let schedule = Tcmm.Level_schedule.resolve ~algo ~name ~d:2 ~n in
              let built =
                Tcmm.Matmul_circuit.build ~templates ~algo ~schedule
                  ~entry_bits:1 ~n ()
              in
              match built.Tcmm.Matmul_circuit.circuit with
              | None -> Alcotest.fail (ctx ^ ": expected a materialized circuit")
              | Some c ->
                  Energy.random_inputs rng ~num_inputs:c.Circuit.num_inputs
                    ~samples:2
                  |> List.iter (fun input ->
                         let r = Simulator.run c input in
                         let s = Energy.measure c [ input ] in
                         S.check_int (ctx ^ ": total firings")
                           r.Simulator.firings s.Energy.min_firings;
                         S.check_int (ctx ^ ": max = min at one sample")
                           s.Energy.min_firings s.Energy.max_firings;
                         S.check_int (ctx ^ ": level count")
                           (Array.length r.Simulator.level_firings)
                           (Array.length s.Energy.mean_level_firings);
                         Array.iteri
                           (fun lvl expect ->
                             S.check_int
                               (Printf.sprintf "%s: level %d firings" ctx lvl)
                               expect
                               (int_of_float s.Energy.mean_level_firings.(lvl)))
                           r.Simulator.level_firings))
            [ false; true ])
        [ 4; 8 ])
    [ "uniform-2"; "direct"; "thm44"; "thm45" ]

let test_energy_empty_rejected () =
  let b = Builder.create () in
  let _ = Builder.add_input b in
  let c = Builder.finalize b in
  try
    ignore (Energy.measure c []);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Spiking                                                            *)
(* ------------------------------------------------------------------ *)

let test_spiking_settles_to_simulator () =
  (* A 3-layer circuit: spiking semantics must converge to the DAG value
     within depth ticks. *)
  let b = Builder.create () in
  let ins = Builder.add_inputs b 4 in
  let l1 =
    Array.init 3 (fun i ->
        Builder.add_gate b ~inputs:[| ins.(i); ins.(i + 1) |] ~weights:[| 1; 1 |]
          ~threshold:1)
  in
  let l2 = Builder.add_gate b ~inputs:l1 ~weights:[| 1; 1; -1 |] ~threshold:1 in
  let l3 = Builder.add_gate b ~inputs:[| l2; ins.(0) |] ~weights:[| 2; -1 |] ~threshold:1 in
  Builder.output b l3;
  let c = Builder.finalize b in
  S.all_inputs 4
  |> List.iter (fun input ->
         let ticks, out = Spiking.settle c input in
         Alcotest.(check (array bool))
           "fixed point = DAG semantics" (Simulator.read_outputs c input) out;
         S.check_bool "settles within depth" true
           (ticks <= (Circuit.stats c).Stats.depth))

let test_spiking_settles_arithmetic_circuit () =
  let built =
    Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
      ~schedule:(Tcmm.Level_schedule.full ~l:1) ~entry_bits:1 ~tau:2 ~n:2 ()
  in
  match built.Tcmm.Trace_circuit.circuit with
  | None -> Alcotest.fail "expected circuit"
  | Some c ->
      let m = Tcmm_fastmm.Matrix.of_rows [| [| 1; 1 |]; [| 1; 0 |] |] in
      let input = Tcmm.Trace_circuit.encode_input built m in
      let ticks, out = Spiking.settle c input in
      let expect = Simulator.read_outputs c input in
      Alcotest.(check (array bool)) "same answer" expect out;
      let depth = (Circuit.stats c).Stats.depth in
      S.check_bool
        (Printf.sprintf "ticks %d <= depth %d" ticks depth)
        true (ticks <= depth)

let test_spiking_tick_progression () =
  (* A chain of identity gates: the signal front advances one gate per
     tick, exactly modelling per-layer latency. *)
  let b = Builder.create () in
  let x = Builder.add_input b in
  let g1 = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  let g2 = Builder.add_gate b ~inputs:[| g1 |] ~weights:[| 1 |] ~threshold:1 in
  let g3 = Builder.add_gate b ~inputs:[| g2 |] ~weights:[| 1 |] ~threshold:1 in
  Builder.output b g3;
  let c = Builder.finalize b in
  let st = Spiking.init c [| true |] in
  S.check_bool "t0: output quiet" false (Spiking.value st g3);
  Spiking.tick st;
  S.check_bool "t1: first gate" true (Spiking.value st g1);
  S.check_bool "t1: output still quiet" false (Spiking.value st g3);
  Spiking.tick st;
  S.check_bool "t2: second gate" true (Spiking.value st g2);
  Spiking.tick st;
  S.check_bool "t3: output fires" true (Spiking.value st g3)

let test_spiking_max_ticks () =
  let b = Builder.create () in
  let x = Builder.add_input b in
  let g = Builder.add_gate b ~inputs:[| x |] ~weights:[| 1 |] ~threshold:1 in
  Builder.output b g;
  let c = Builder.finalize b in
  (* max_ticks 0 forces failure whenever a change is needed. *)
  try
    ignore (Spiking.settle ~max_ticks:0 c [| true |]);
    Alcotest.fail "expected failure"
  with Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let sample_circuit () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 3 in
  let g1 = Builder.add_gate b ~inputs:ins ~weights:[| 1; -2; 3 |] ~threshold:1 in
  let g2 = Builder.add_gate b ~inputs:[| ins.(0); g1 |] ~weights:[| 1; 1 |] ~threshold:2 in
  Builder.output b g2;
  Builder.output b g1;
  Builder.finalize b

let test_netlist_roundtrip () =
  let c = sample_circuit () in
  let c' = Export.of_netlist (Export.to_netlist c) in
  S.check_int "inputs" c.Circuit.num_inputs c'.Circuit.num_inputs;
  S.check_int "gates" (Circuit.num_gates c) (Circuit.num_gates c');
  Alcotest.(check (array int)) "outputs" c.Circuit.outputs c'.Circuit.outputs;
  S.all_inputs 3
  |> List.iter (fun input ->
         Alcotest.(check (array bool))
           "same behaviour"
           (Simulator.read_outputs c input)
           (Simulator.read_outputs c' input))

let test_netlist_roundtrip_large () =
  (* A real arithmetic circuit must survive the round trip. *)
  let b = Builder.create () in
  let ins = Builder.add_inputs b 6 in
  let u =
    Tcmm_arith.Repr.unsigned_of_terms
      (Array.to_list (Array.mapi (fun i w -> (w, i + 1)) ins))
  in
  let bits = Tcmm_arith.Weighted_sum.to_bits b u in
  Array.iter (Builder.output b) bits;
  let c = Builder.finalize b in
  let c' = Export.of_netlist (Export.to_netlist c) in
  S.all_inputs 6
  |> List.iter (fun input ->
         Alcotest.(check (array bool))
           "same bits"
           (Simulator.read_outputs c input)
           (Simulator.read_outputs c' input))

let test_netlist_rejects_garbage () =
  List.iter
    (fun text ->
      try
        ignore (Export.of_netlist text);
        Alcotest.fail "expected failure"
      with Failure _ -> ())
    [
      "";
      "inputs two";
      "tcmm-netlist 2\ninputs 1";
      "inputs 1\ngate x";
      "inputs 1\ngate 1 0-1";
      "inputs 1\nbogus 3";
      "inputs 1\ninputs 1";
    ]

let test_netlist_comments_and_blanks () =
  let c =
    Export.of_netlist
      "tcmm-netlist 1\n# a comment\ninputs 2\n\ngate 2 0:1 1:1  # and\noutput 2\n"
  in
  S.check_int "one gate" 1 (Circuit.num_gates c);
  Alcotest.(check (array bool)) "AND" [| true |] (Simulator.read_outputs c [| true; true |]);
  Alcotest.(check (array bool)) "not AND" [| false |]
    (Simulator.read_outputs c [| true; false |])

let test_dot_renders () =
  let c = sample_circuit () in
  let dot = Export.to_dot c in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length dot && (String.sub dot i n = sub || go (i + 1)) in
    go 0
  in
  S.check_bool "digraph" true (contains "digraph tcmm");
  S.check_bool "input box" true (contains "shape=box");
  S.check_bool "threshold label" true (contains ">=1");
  S.check_bool "weight edge" true (contains "label=\"-2\"");
  S.check_bool "output doublecircle" true (contains "doublecircle");
  try
    ignore (Export.to_dot ~max_gates:1 c);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_export_write_file () =
  (* The full file-based hand-off: serialize, write, read back, parse. *)
  let c = sample_circuit () in
  let path = "exported.netlist" in
  Export.write_file path (Export.to_netlist c);
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let c' = Export.of_netlist contents in
  S.all_inputs 3
  |> List.iter (fun input ->
         Alcotest.(check (array bool))
           "same behaviour after file round-trip"
           (Simulator.read_outputs c input)
           (Simulator.read_outputs c' input))

(* ------------------------------------------------------------------ *)
(* Transform                                                          *)
(* ------------------------------------------------------------------ *)

let test_prune_removes_dead_gates () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 2 in
  let live = Builder.add_gate b ~inputs:ins ~weights:[| 1; 1 |] ~threshold:2 in
  let dead = Builder.add_gate b ~inputs:ins ~weights:[| 1; 1 |] ~threshold:1 in
  let dead2 = Builder.add_gate b ~inputs:[| dead |] ~weights:[| 1 |] ~threshold:1 in
  ignore dead2;
  Builder.output b live;
  let c = Builder.finalize b in
  let lv = Transform.live_gates c in
  Alcotest.(check (array bool)) "liveness" [| true; false; false |] lv;
  let { Transform.circuit = pruned; wire_map } = Transform.prune c in
  S.check_int "one gate left" 1 (Circuit.num_gates pruned);
  S.check_int "live wire mapped" 2 wire_map.(live);
  S.check_int "dead wire dropped" (-1) wire_map.(dead);
  S.all_inputs 2
  |> List.iter (fun input ->
         Alcotest.(check (array bool))
           "same outputs"
           (Simulator.read_outputs c input)
           (Simulator.read_outputs pruned input))

let test_prune_keeps_everything_live () =
  (* A trace circuit: every gate feeds the single output. *)
  let built =
    Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
      ~schedule:(Tcmm.Level_schedule.full ~l:1) ~entry_bits:1 ~tau:1 ~n:2 ()
  in
  match built.Tcmm.Trace_circuit.circuit with
  | None -> Alcotest.fail "expected materialized circuit"
  | Some c ->
      let { Transform.circuit = pruned; _ } = Transform.prune c in
      S.check_int "nothing pruned" (Circuit.num_gates c) (Circuit.num_gates pruned)

let test_prune_chain () =
  (* Deep chain: all live through transitivity. *)
  let b = Builder.create () in
  let x = Builder.add_input b in
  let rec chain w k = if k = 0 then w else chain (Builder.add_gate b ~inputs:[| w |] ~weights:[| 1 |] ~threshold:1) (k - 1) in
  let top = chain x 10 in
  Builder.output b top;
  let c = Builder.finalize b in
  let { Transform.circuit = pruned; _ } = Transform.prune c in
  S.check_int "all kept" 10 (Circuit.num_gates pruned)

(* ------------------------------------------------------------------ *)
(* Cross-cutting properties on random circuits                        *)
(* ------------------------------------------------------------------ *)

let random_circuit seed =
  let rng = Tcmm_util.Prng.create ~seed in
  let n = 2 + Tcmm_util.Prng.int rng ~bound:4 in
  let b = Builder.create () in
  let _ = Builder.add_inputs b n in
  for _ = 1 to 5 + Tcmm_util.Prng.int rng ~bound:20 do
    let avail = Builder.num_wires b in
    let fan = 1 + Tcmm_util.Prng.int rng ~bound:(min 5 avail) in
    let inputs =
      Array.init fan (fun _ -> Tcmm_util.Prng.int rng ~bound:avail)
      |> Array.to_list |> List.sort_uniq compare |> Array.of_list
    in
    let weights =
      Array.map
        (fun _ ->
          let w = Tcmm_util.Prng.int_range rng ~lo:(-4) ~hi:4 in
          if w = 0 then 1 else w)
        inputs
    in
    let threshold = Tcmm_util.Prng.int_range rng ~lo:(-3) ~hi:5 in
    ignore (Builder.add_gate b ~inputs ~weights ~threshold)
  done;
  (* Mark a few random wires as outputs (gates only, to keep Validate quiet). *)
  let gates = Builder.num_gates b in
  for _ = 1 to 3 do
    Builder.output b (Builder.num_inputs b + Tcmm_util.Prng.int rng ~bound:gates)
  done;
  let input = Array.init n (fun _ -> Tcmm_util.Prng.bool rng) in
  (Builder.finalize b, input)

let prop_netlist_roundtrip_random =
  S.qcheck_case ~count:100 "netlist roundtrip preserves behaviour"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, input = random_circuit seed in
      let c' = Export.of_netlist (Export.to_netlist c) in
      Simulator.read_outputs c input = Simulator.read_outputs c' input)

let prop_spiking_settles_random =
  S.qcheck_case ~count:100 "spiking settles to DAG semantics within depth"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, input = random_circuit seed in
      let ticks, out = Spiking.settle c input in
      out = Simulator.read_outputs c input && ticks <= (Circuit.stats c).Stats.depth)

let prop_prune_preserves_outputs =
  S.qcheck_case ~count:100 "prune preserves output behaviour"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, input = random_circuit seed in
      let { Transform.circuit = pruned; _ } = Transform.prune c in
      Simulator.read_outputs c input = Simulator.read_outputs pruned input
      && Circuit.num_gates pruned <= Circuit.num_gates c)

(* ------------------------------------------------------------------ *)
(* Packed engine agreement                                            *)
(* ------------------------------------------------------------------ *)

(* Random levelized circuit exercising the packed engine's code paths:
   shared-threshold layers (multi-gate segments), negative weights,
   const gates, mixed fan-ins, and occasionally a 0-gate circuit. *)
let random_packed_circuit seed =
  let rng = Tcmm_util.Prng.create ~seed in
  let b = Builder.create () in
  let n = 1 + Tcmm_util.Prng.int rng ~bound:6 in
  let _ = Builder.add_inputs b n in
  let gates = ref [] in
  if Tcmm_util.Prng.int rng ~bound:20 > 0 then begin
    if Tcmm_util.Prng.bool rng then
      gates := Builder.const b (Tcmm_util.Prng.bool rng) :: !gates;
    for _ = 1 to 3 + Tcmm_util.Prng.int rng ~bound:15 do
      let avail = Builder.num_wires b in
      let fan = 1 + Tcmm_util.Prng.int rng ~bound:(min 12 avail) in
      let inputs =
        Array.init fan (fun _ -> Tcmm_util.Prng.int rng ~bound:avail)
        |> Array.to_list |> List.sort_uniq compare |> Array.of_list
      in
      let weights =
        Array.map
          (fun _ ->
            let w = Tcmm_util.Prng.int_range rng ~lo:(-4) ~hi:4 in
            if w = 0 then -1 else w)
          inputs
      in
      if Tcmm_util.Prng.bool rng then begin
        (* Shared layer: becomes one multi-gate segment. *)
        let k = 1 + Tcmm_util.Prng.int rng ~bound:5 in
        let thresholds =
          Array.init k (fun _ -> Tcmm_util.Prng.int_range rng ~lo:(-5) ~hi:6)
        in
        Builder.add_shared_gates b ~inputs ~weights ~thresholds
        |> Array.iter (fun g -> gates := g :: !gates)
      end
      else
        gates :=
          Builder.add_gate b ~inputs ~weights
            ~threshold:(Tcmm_util.Prng.int_range rng ~lo:(-3) ~hi:5)
          :: !gates
    done
  end;
  List.iter
    (fun g -> if Tcmm_util.Prng.int rng ~bound:3 = 0 then Builder.output b g)
    !gates;
  (match !gates with g :: _ -> Builder.output b g | [] -> ());
  let c = Builder.finalize b in
  let input = Array.init n (fun _ -> Tcmm_util.Prng.bool rng) in
  (c, input, rng)

let same_result (a : Simulator.result) (b : Simulator.result) =
  a.Simulator.outputs = b.Simulator.outputs
  && a.Simulator.firings = b.Simulator.firings
  && a.Simulator.level_firings = b.Simulator.level_firings
  && a.Simulator.values = b.Simulator.values

let prop_packed_matches_reference =
  S.qcheck_case ~count:150 "packed run = reference run (exactly)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, input, _ = random_packed_circuit seed in
      let r_ref = Simulator.run ~check:true c input in
      let r_seq = Packed.run (Packed.of_circuit c) input in
      same_result r_ref r_seq
      && Array.fold_left ( + ) 0 r_seq.Simulator.level_firings
         = r_seq.Simulator.firings)

let prop_packed_batch_matches_reference =
  S.qcheck_case ~count:60 "batched lanes = reference runs (exactly)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, _, rng = random_packed_circuit seed in
      let n = c.Circuit.num_inputs in
      let lanes = 1 + Tcmm_util.Prng.int rng ~bound:7 in
      let batch =
        Array.init lanes (fun _ ->
            Array.init n (fun _ -> Tcmm_util.Prng.bool rng))
      in
      let br = Packed.run_batch (Packed.of_circuit c) batch in
      Packed.lanes br = lanes
      && Array.for_all Fun.id
           (Array.mapi
              (fun lane input ->
                let r = Simulator.run c input in
                Packed.batch_outputs br ~lane = r.Simulator.outputs
                && Packed.batch_firings br ~lane = r.Simulator.firings
                && Packed.batch_level_firings br ~lane
                   = r.Simulator.level_firings)
              batch))

(* Incremental sessions: every intermediate state of a random flip
   sequence must match a from-scratch run exactly — outputs, firings,
   level_firings, and every wire value. *)
let session_agrees c input rng =
  let p = Packed.of_circuit c in
  let ss = Packed.session p input in
  let current = Array.copy input in
  let n = Array.length input in
  let steps = 1 + Tcmm_util.Prng.int rng ~bound:8 in
  let ok = ref (same_result (Packed.run p current) (Packed.session_result ss)) in
  for _ = 1 to steps do
    let k = 1 + Tcmm_util.Prng.int rng ~bound:(max n 1) in
    let delta =
      Array.init k (fun _ ->
          let i = Tcmm_util.Prng.int rng ~bound:n in
          (* Mix real flips, no-op rewrites and duplicate indices. *)
          let v =
            if Tcmm_util.Prng.int rng ~bound:4 = 0 then current.(i)
            else not current.(i)
          in
          (i, v))
    in
    Array.iter (fun (i, v) -> current.(i) <- v) delta;
    let r_inc = Packed.update ss delta in
    let r_full = Packed.run p current in
    ok := !ok && same_result r_full r_inc;
    ok := !ok && Packed.session_inputs ss = current
  done;
  !ok

let prop_packed_session_matches_full =
  S.qcheck_case ~count:120 "incremental update = from-scratch run (exactly)"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let c, input, rng = random_packed_circuit seed in
      if c.Circuit.num_inputs = 0 then true
      else session_agrees c input rng)

let test_packed_session_rejects_bad_delta () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 2 in
  let g =
    Builder.add_gate b ~inputs:ins ~weights:[| 1; 1 |] ~threshold:2
  in
  Builder.output b g;
  let p = Packed.of_circuit (Builder.finalize b) in
  let ss = Packed.session p [| false; false |] in
  let rejected delta =
    try
      ignore (Packed.update ss delta);
      Alcotest.fail "expected invalid_arg"
    with Invalid_argument _ -> ()
  in
  rejected [| (2, true) |];
  (* Valid entries ahead of a bad index must not be half-applied: the
     whole delta is refused and the session is left exactly as it was. *)
  rejected [| (0, true); (1, true); (2, true) |];
  S.check_bool "inputs unchanged" true
    (Packed.session_inputs ss = [| false; false |]);
  S.check_int "rejected deltas are not updates" 0
    (Packed.session_stats ss).Packed.su_updates;
  S.check_bool "next update = from-scratch run" true
    (same_result (Packed.run p [| false; false |]) (Packed.update ss [||]));
  (* Flip-then-unflip in one delta: a structural no-op. *)
  let r = Packed.update ss [| (0, true); (0, false) |] in
  S.check_bool "no-op outputs" true (r.Simulator.outputs = [| false |]);
  let stats = Packed.session_stats ss in
  S.check_int "two flips counted" 2 stats.Packed.su_flips;
  S.check_int "gates" 1 stats.Packed.su_gates;
  (* More real flips in one delta than the circuit has wires. *)
  let r = Packed.update ss (Array.init 10 (fun k -> (0, k mod 2 = 0))) in
  S.check_bool "long delta = from-scratch run" true
    (same_result (Packed.run p [| false; false |]) r);
  S.check_int "ten more flips" 12 (Packed.session_stats ss).Packed.su_flips

(* Drive [p] through [updates] random deltas of 1-3 input flips and
   demand after every one that the session equals a from-scratch run in
   every wire value, output and firing count. *)
let session_tracks_run name p ~inputs ~updates rng =
  let current = Array.init inputs (fun _ -> Tcmm_util.Prng.bool rng) in
  let ss = Packed.session p current in
  for u = 1 to updates do
    let delta =
      Array.init
        (1 + Tcmm_util.Prng.int rng ~bound:3)
        (fun _ ->
          let i = Tcmm_util.Prng.int rng ~bound:inputs in
          current.(i) <- not current.(i);
          (i, current.(i)))
    in
    let r = Packed.update ss delta in
    if not (same_result (Packed.run p current) r) then
      Alcotest.failf "%s: update %d diverges from a from-scratch run" name u
  done

(* A chain of 300 levels, past any 7-bit level field: mostly inverters,
   so a flip at its head re-decides every level below, with gates every
   ten levels that mix in an input pair and can stop the cone. *)
let test_packed_session_deep_chain () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 8 in
  let prev = ref ins.(0) in
  for i = 1 to 300 do
    let g =
      if i mod 10 = 5 then
        Builder.add_gate b
          ~inputs:[| !prev; ins.(i mod 8); ins.((i + 3) mod 8) |]
          ~weights:[| 1; 1; -1 |] ~threshold:1
      else Builder.add_gate b ~inputs:[| !prev |] ~weights:[| -1 |] ~threshold:0
    in
    if i mod 50 = 0 then Builder.output b g;
    prev := g
  done;
  let p = Packed.of_circuit (Builder.finalize b) in
  S.check_bool "deeper than 128 levels" true (Packed.num_levels p > 128);
  session_tracks_run "deep chain" p ~inputs:8 ~updates:200
    (Tcmm_util.Prng.create ~seed:128)

(* One shared segment of 70,000 gates, past any 16-bit cut or gate-count
   field, with one threshold per integer: a flip of an input of weight w
   moves the cut by w gates, up or down.  The thresholds put gate 65,536
   at the mean sum, so the cut keeps crossing it.  A second level reads
   a spread of the segment's gates, so the moved gate wires
   propagate. *)
let test_packed_session_wide_segment () =
  let rng = Tcmm_util.Prng.create ~seed:65_536 in
  let b = Builder.create () in
  let ins = Builder.add_inputs b 20 in
  let weights =
    Array.map
      (fun _ ->
        let w = Tcmm_util.Prng.int_range rng ~lo:(-3000) ~hi:3000 in
        if w = 0 then 1 else w)
      ins
  in
  let mean = Array.fold_left ( + ) 0 weights / 2 in
  let thresholds = Array.init 70_000 (fun i -> i - 65_536 + mean) in
  let layer = Builder.add_shared_gates b ~inputs:ins ~weights ~thresholds in
  let readers = Array.init 50 (fun k -> layer.(k * 1_399)) in
  Builder.output b
    (Builder.add_gate b ~inputs:readers
       ~weights:(Array.mapi (fun k _ -> if k mod 2 = 0 then 1 else -1) readers)
       ~threshold:1);
  Array.iter (Builder.output b) readers;
  let p = Packed.of_circuit (Builder.finalize b) in
  S.check_int "one segment per level" 2 (Packed.num_segments p);
  session_tracks_run "wide segment" p ~inputs:20 ~updates:200 rng

(* > 62 lanes forces the multi-word batch path; the wide shared layer with
   few distinct weights drives the grouped-popcount accumulation. *)
let test_packed_batch_multiword () =
  let rng = Tcmm_util.Prng.create ~seed:42 in
  let b = Builder.create () in
  let n = 10 in
  let ins = Builder.add_inputs b n in
  let wide =
    Array.init 120 (fun _ -> ins.(Tcmm_util.Prng.int rng ~bound:n))
    |> Array.to_list |> List.sort_uniq compare |> Array.of_list
  in
  (* Only three distinct weights: every group is a popcount candidate. *)
  let weights =
    Array.map (fun _ -> [| 1; -2; 3 |].(Tcmm_util.Prng.int rng ~bound:3)) wide
  in
  let layer =
    Builder.add_shared_gates b ~inputs:wide ~weights
      ~thresholds:(Array.init 8 (fun i -> (2 * i) - 6))
  in
  let top =
    Builder.add_gate b ~inputs:layer
      ~weights:(Array.map (fun _ -> 1) layer)
      ~threshold:4
  in
  Array.iter (Builder.output b) layer;
  Builder.output b top;
  let c = Builder.finalize b in
  let lanes = 70 in
  let batch =
    Array.init lanes (fun _ ->
        Array.init n (fun _ -> Tcmm_util.Prng.bool rng))
  in
  let p = Packed.of_circuit c in
  let br = Packed.run_batch p batch in
  S.check_int "lanes" lanes (Packed.lanes br);
  Array.iteri
    (fun lane input ->
      let r = Simulator.run ~check:true c input in
      S.check_bool "outputs agree" true
        (Packed.batch_outputs br ~lane = r.Simulator.outputs);
      S.check_int "firings agree" r.Simulator.firings
        (Packed.batch_firings br ~lane);
      S.check_bool "level firings agree" true
        (Packed.batch_level_firings br ~lane = r.Simulator.level_firings);
      for w = 0 to Circuit.num_wires c - 1 do
        S.check_bool "wire value agrees" (Simulator.value r w)
          (Packed.batch_value br ~lane w)
      done)
    batch

(* Lane counts straddling the 62-bit word boundary: 61 (one partial
   word), 62 (one exactly-full word), 63 (a one-lane second word) and
   124 (two full words), with lone lanes (the scalar walk) in between.
   The circuit goes through a Direct-mode arena so the specialized
   kernels (not just the generic CSR loop) sit on the dispatch path,
   and every batch is checked bit-identically against both the
   kernel-free batch and the sequential evaluator; each lone lane is
   also checked wire by wire against the reference simulator and lane
   0 of a kernel batch.  One workspace is reused across every batch on
   purpose. *)
let test_packed_batch_lane_boundaries () =
  let rng = Tcmm_util.Prng.create ~seed:7 in
  let b = Builder.create ~mode:Builder.Direct () in
  let n = 24 in
  let ins = Builder.add_inputs b n in
  let block slots =
    let res, _ =
      Builder.templated b ~tag:91 ~data:[||] ~inputs:slots
        ~build:(fun () ->
          (* Three weight groups of eight: a carry-save kernel shape. *)
          let csa =
            Builder.add_shared_gates b ~inputs:slots
              ~weights:(Array.init n (fun i -> [| 1; -2; 4 |].(i / 8)))
              ~thresholds:[| -9; -3; 0; 4; 11; 26 |]
          in
          (* Single weight, fan-in above the truth-table cap: popcount. *)
          let pop =
            Builder.add_shared_gates b
              ~inputs:(Array.sub slots 0 12)
              ~weights:(Array.make 12 1) ~thresholds:[| 2; 5; 9 |]
          in
          (* Fan-in 3: truth-table kernel. *)
          let tt =
            Builder.add_gate b
              ~inputs:[| csa.(0); pop.(1); csa.(4) |]
              ~weights:[| 2; -1; 1 |] ~threshold:1
          in
          (Array.concat [ csa; pop; [| tt |] ], [||]))
    in
    res
  in
  let r1 = block ins in
  let r2 = block (Array.init n (fun i -> ins.(n - 1 - i))) in
  Array.iter (Builder.output b) r1;
  Array.iter (Builder.output b) r2;
  let arena = Builder.arena b in
  let p_k = Packed.of_arena ~kernels:true arena in
  let p_g = Packed.of_arena ~kernels:false arena in
  let cov = Packed.coverage p_k in
  S.check_bool "stamped segments have kernels" true
    (cov.Packed.kernel_segments > 0 && cov.Packed.kernel_gates > 0);
  S.check_int "kernels:false compile is all-fallback" 0
    (Packed.coverage p_g).Packed.kernel_segments;
  let ws = Packed.workspace () in
  let c = Packed.circuit p_k in
  List.iter
    (fun lanes ->
      let batch =
        Array.init lanes (fun _ ->
            Array.init n (fun _ -> Tcmm_util.Prng.bool rng))
      in
      let bk = Packed.run_batch ~ws p_k batch in
      let bg = Packed.run_batch p_g batch in
      S.check_int "lanes" lanes (Packed.lanes bk);
      if lanes = 1 then begin
        let r = Simulator.run c batch.(0) in
        let kb = Packed.run_batch p_k [| batch.(0); batch.(0) |] in
        for w = 0 to Circuit.num_wires c - 1 do
          S.check_bool "lone lane wire = simulator" (Simulator.value r w)
            (Packed.batch_value bk ~lane:0 w);
          S.check_bool "lone lane wire = kernel lane 0"
            (Packed.batch_value kb ~lane:0 w)
            (Packed.batch_value bk ~lane:0 w)
        done;
        S.check_bool "lone lane outputs = kernel lane 0" true
          (Packed.batch_outputs bk ~lane:0 = Packed.batch_outputs kb ~lane:0);
        S.check_int "lone lane firings = kernel lane 0"
          (Packed.batch_firings kb ~lane:0)
          (Packed.batch_firings bk ~lane:0);
        S.check_bool "lone lane level firings = kernel lane 0" true
          (Packed.batch_level_firings bk ~lane:0
          = Packed.batch_level_firings kb ~lane:0)
      end;
      for lane = 0 to lanes - 1 do
        let r = Packed.run p_k batch.(lane) in
        S.check_bool "outputs: kernel batch = generic batch" true
          (Packed.batch_outputs bk ~lane = Packed.batch_outputs bg ~lane);
        S.check_bool "outputs: batch = sequential" true
          (Packed.batch_outputs bk ~lane = r.Simulator.outputs);
        S.check_int "firings" r.Simulator.firings
          (Packed.batch_firings bk ~lane);
        S.check_int "generic firings" r.Simulator.firings
          (Packed.batch_firings bg ~lane);
        S.check_bool "level firings" true
          (Packed.batch_level_firings bk ~lane = r.Simulator.level_firings)
      done)
    [ 1; 61; 62; 1; 63; 124; 1 ]

let test_packed_zero_gates () =
  let b = Builder.create () in
  let _ = Builder.add_inputs b 3 in
  let c = Builder.finalize b in
  let p = Packed.of_circuit c in
  let input = [| true; false; true |] in
  let r = Packed.run p input in
  S.check_int "no firings" 0 r.Simulator.firings;
  S.check_int "no outputs" 0 (Array.length r.Simulator.outputs);
  S.check_bool "matches reference" true
    (same_result (Simulator.run c input) r);
  let br = Packed.run_batch p [| input; [| false; false; false |] |] in
  S.check_int "batch lanes" 2 (Packed.lanes br);
  S.check_int "batch firings" 0 (Packed.batch_firings br ~lane:1)

(* The weight-mass bound at its edges, for both signs.  A segment whose
   positive (or negative) mass is exactly [max_int] packs, through
   [of_circuit] and through a Direct-mode arena, survives a save/load
   round trip, and every packed evaluator matches the overflow-checked
   reference on every input.  One more unit of mass is refused by both
   constructors.  A sum that really wraps still traps in the checked
   reference, and that circuit is refused too. *)
let test_packed_overflow_all_engines () =
  let third = max_int / 3 in
  S.check_int "max_int splits in three" max_int (3 * third);
  let build mode weights thresholds =
    let b = Builder.create ~mode () in
    let ins = Builder.add_inputs b (Array.length weights) in
    Array.iter (Builder.output b)
      (Builder.add_shared_gates b ~inputs:ins ~weights ~thresholds);
    b
  in
  let circuit weights thresholds =
    Builder.finalize (build Builder.Materialize weights thresholds)
  in
  let of_arena weights thresholds () =
    Packed.of_arena (Builder.arena (build Builder.Direct weights thresholds))
  in
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s: packed" name
    | exception Invalid_argument _ -> ()
  in
  let agrees name p c =
    let inputs = Array.of_list (S.all_inputs c.Circuit.num_inputs) in
    let br = Packed.run_batch p inputs in
    let ss = Packed.session p inputs.(0) in
    Array.iteri
      (fun lane input ->
        let r = Simulator.run ~check:true c input in
        let one = Packed.run_batch p [| input |] in
        let batch_ok br lane =
          Packed.batch_outputs br ~lane = r.Simulator.outputs
          && Packed.batch_level_firings br ~lane = r.Simulator.level_firings
        in
        S.check_bool (name ^ ": run") true (same_result r (Packed.run p input));
        S.check_bool (name ^ ": batch lane") true (batch_ok br lane);
        S.check_bool (name ^ ": one-lane batch") true (batch_ok one 0);
        let delta = Array.mapi (fun i v -> (i, v)) input in
        S.check_bool (name ^ ": session") true
          (same_result r (Packed.update ss delta)))
      inputs
  in
  List.iter
    (fun sign ->
      let name = if sign > 0 then "positive" else "negative" in
      (* Thresholds at and next to the extreme sum [sign * max_int]. *)
      let ths =
        if sign > 0 then [| max_int - 1; max_int |]
        else [| -max_int; 1 - max_int |]
      in
      let exact = Array.make 3 (sign * third) in
      let c = circuit exact ths in
      let p = Packed.of_circuit c in
      agrees (name ^ " of_circuit") p c;
      agrees (name ^ " of_arena") (of_arena exact ths ()) c;
      (match Packed.load (Packed.save p) with
      | Ok p' -> agrees (name ^ " loaded") p' c
      | Error m -> Alcotest.failf "%s: exact mass refused by load: %s" name m);
      let over = Array.append exact [| sign |] in
      refused (name ^ " of_circuit, one unit over") (fun () ->
          Packed.of_circuit (circuit over ths));
      refused (name ^ " of_arena, one unit over") (of_arena over ths);
      let c = circuit (Array.make 3 (sign * (max_int / 2))) [| sign |] in
      (try
         ignore (Simulator.run ~check:true c [| true; true; true |]);
         Alcotest.failf "%s: reference did not trap" name
       with Tcmm_util.Checked.Overflow _ -> ());
      refused (name ^ " of_circuit, wrapping sum") (fun () ->
          Packed.of_circuit c))
    [ 1; -1 ]

(* [--profile-eval] reads these counters: a lone lane (the scalar walk)
   must count as a batch and fill every level's time like a kernel
   batch does.  Enough repetitions that even a sub-microsecond level
   crosses a clock tick. *)
let test_packed_one_lane_profile () =
  let b = Builder.create () in
  let n = 64 in
  let ins = Builder.add_inputs b n in
  let layer =
    Builder.add_shared_gates b ~inputs:ins ~weights:(Array.make n 1)
      ~thresholds:[| 8; 16; 32; 48 |]
  in
  let top =
    Builder.add_gate b ~inputs:layer ~weights:[| 1; 1; 1; 1 |] ~threshold:2
  in
  Builder.output b top;
  let p = Packed.of_circuit (Builder.finalize b) in
  let rng = Tcmm_util.Prng.create ~seed:11 in
  let prof = Packed.make_profile p in
  let reps = 2000 in
  for _ = 1 to reps do
    let input = Array.init n (fun _ -> Tcmm_util.Prng.bool rng) in
    ignore (Packed.run_batch ~profile:prof p [| input |])
  done;
  S.check_int "one batch per lone lane" reps prof.Packed.ep_batches;
  S.check_int "one lane per lone lane" reps prof.Packed.ep_lanes;
  S.check_int "a time per level" (Packed.num_levels p)
    (Array.length prof.Packed.ep_level_ns);
  Array.iteri
    (fun l ns ->
      S.check_bool (Printf.sprintf "level %d timed" l) true (ns > 0.))
    prof.Packed.ep_level_ns

(* Sections are outside input: a checksum-clean but hostile set must be
   refused with [Error] — never an exception, never adopted for the
   unsafe evaluators to read out of bounds. *)
let test_packed_load_rejects_hostile_sections () =
  let b = Builder.create () in
  let ins = Builder.add_inputs b 6 in
  let layer =
    Builder.add_shared_gates b ~inputs:ins ~weights:[| 1; 1; 1; -2; -2; -2 |]
      ~thresholds:[| -1; 1; 2 |]
  in
  Array.iter (Builder.output b) layer;
  let s = Packed.save (Packed.of_circuit (Builder.finalize b)) in
  let nsegs = Array.length s.Packed.sec_seg_off in
  let num_wires = s.Packed.sec_num_inputs + s.Packed.sec_num_gates in
  (* One generic spec shared by every segment: a well-formed table. *)
  let s =
    {
      s with
      Packed.sec_kern_table = Kernel.encode_specs [| Kernel.Generic |];
      sec_kern_index = Array.make nsegs 0;
    }
  in
  S.check_bool "clean sections load" true (Result.is_ok (Packed.load s));
  let with_wire v i w =
    let v' =
      Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
        (Bigarray.Array1.dim v)
    in
    Bigarray.Array1.blit v v';
    v'.{i} <- Int32.of_int w;
    v'
  in
  let refused name s =
    match Packed.load s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: loaded" name
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  refused "negative pool wire"
    { s with Packed.sec_pool_wires = with_wire s.Packed.sec_pool_wires 0 (-1) };
  refused "pool wire equal to the wire count"
    {
      s with
      Packed.sec_pool_wires = with_wire s.Packed.sec_pool_wires 0 num_wires;
    };
  refused "g_wire naming an input"
    { s with Packed.sec_g_wire = with_wire s.Packed.sec_g_wire 0 0 };
  List.iter
    (fun past ->
      refused
        (Printf.sprintf "kern index %d past the table" past)
        {
          s with
          Packed.sec_kern_index =
            Array.init nsegs (fun i -> if i = 0 then past else 0);
        })
    [ 1; max_int ];
  refused "table entry that does not decode"
    { s with Packed.sec_kern_table = [| 99 |] };
  (* Group 0 holds three edges: a weight of max_int / 2 puts the
     segment's positive mass past max_int. *)
  refused "weight mass past max_int"
    {
      s with
      Packed.sec_grp_weight =
        Array.mapi
          (fun g w -> if g = 0 then max_int / 2 else w)
          s.Packed.sec_grp_weight;
    };
  (* Wire ids are int32: a gateless circuit is otherwise valid at any
     input count, so only the wire-count bound refuses one past 2^31. *)
  let b0 = Builder.create () in
  ignore (Builder.add_inputs b0 1);
  let z = Packed.save (Packed.of_circuit (Builder.finalize b0)) in
  S.check_bool "2^31 wires fit" true
    (Result.is_ok (Packed.load { z with Packed.sec_num_inputs = 1 lsl 31 }));
  refused "wire count past 2^31"
    { z with Packed.sec_num_inputs = (1 lsl 31) + 1 }

(* The drivers memoize their compiled form on the built value: a
   Materialize build is compiled once by [Packed.of_circuit], and every
   later [pack] or packed run reuses it. *)
let small_matmul () =
  Tcmm.Matmul_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
    ~schedule:(Tcmm.Level_schedule.full ~l:1) ~entry_bits:2 ~n:2 ()

let small_trace () =
  Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
    ~schedule:(Tcmm.Level_schedule.full ~l:1) ~entry_bits:2 ~tau:3 ~n:2 ()

let test_engine_cache_reuse () =
  let built = small_matmul () in
  let p = Tcmm.Matmul_circuit.pack built in
  S.check_bool "compiled once" true (Tcmm.Matmul_circuit.pack built == p);
  let rng = Tcmm_util.Prng.create ~seed:12 in
  for _ = 1 to 4 do
    let a = Tcmm_fastmm.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3 in
    let b = Tcmm_fastmm.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3 in
    let packed = Tcmm.Matmul_circuit.run built ~a ~b in
    let reference =
      Tcmm.Matmul_circuit.run ~engine:Simulator.Reference built ~a ~b
    in
    S.check_bool "engines agree" true (Tcmm_fastmm.Matrix.equal packed reference);
    S.check_bool "engines match the integer product" true
      (Tcmm_fastmm.Matrix.equal packed (Tcmm_fastmm.Matrix.mul a b))
  done;
  S.check_bool "runs reuse the pack" true (Tcmm.Matmul_circuit.pack built == p);
  let tri = Tcmm.Naive_circuits.triangle_threshold ~n:4 ~tau:1 () in
  let k4 = Tcmm_fastmm.Matrix.init ~rows:4 ~cols:4 (fun i j -> if i = j then 0 else 1) in
  S.check_bool "naive engines agree" true
    (Tcmm.Naive_circuits.triangle_run tri k4
    = Tcmm.Naive_circuits.triangle_run ~engine:Simulator.Reference tri k4);
  S.check_bool "naive packed form compiled on the packed run" true
    (Lazy.is_val tri.Tcmm.Naive_circuits.packed)

(* Alternating runs over two built circuits never recompile either:
   each built value keeps its own compiled form, and two structurally
   equal builds are two values with two packs. *)
let test_engine_cache_alternation () =
  let mm = small_matmul () and tr = small_trace () in
  let p_mm = Tcmm.Matmul_circuit.pack mm and p_tr = Tcmm.Trace_circuit.pack tr in
  let m = Tcmm_fastmm.Matrix.identity 2 in
  for _ = 1 to 3 do
    ignore (Tcmm.Matmul_circuit.run mm ~a:m ~b:m);
    ignore (Tcmm.Trace_circuit.run tr m);
    S.check_bool "matmul stays compiled" true (Tcmm.Matmul_circuit.pack mm == p_mm);
    S.check_bool "trace stays compiled" true (Tcmm.Trace_circuit.pack tr == p_tr)
  done;
  let twin = small_matmul () in
  let p_twin = Tcmm.Matmul_circuit.pack twin in
  S.check_bool "equal builds get distinct packs" true (p_twin != p_mm);
  S.check_bool "distinct packs are structurally equal" true
    (Packed.structural_equal p_twin p_mm)

let () =
  Alcotest.run "tcmm_threshold"
    [
      ( "gate",
        [
          Alcotest.test_case "make mismatch" `Quick test_gate_make_mismatch;
          Alcotest.test_case "eval" `Quick test_gate_eval;
          Alcotest.test_case "eval checked" `Quick test_gate_eval_checked_matches;
          Alcotest.test_case "max_abs_weight" `Quick test_gate_max_abs_weight;
        ] );
      ( "builder",
        [
          Alcotest.test_case "inputs first" `Quick test_builder_inputs_first;
          Alcotest.test_case "dangling wire" `Quick test_builder_dangling_wire;
          Alcotest.test_case "depth tracking" `Quick test_builder_depth_tracking;
          Alcotest.test_case "stats" `Quick test_builder_stats;
          Alcotest.test_case "count-only = materialize" `Quick
            test_count_only_matches_materialize;
          Alcotest.test_case "shared gates = individual" `Quick
            test_shared_gates_match_individual;
          Alcotest.test_case "shared gates empty" `Quick test_shared_gates_empty_thresholds;
          Alcotest.test_case "shared gates validation" `Quick test_shared_gates_validation;
          Alcotest.test_case "count-only finalize" `Quick
            test_count_only_finalize_rejected;
          Alcotest.test_case "circuit stats" `Quick test_circuit_stats_match_builder;
          Alcotest.test_case "const wires" `Quick test_const_wires;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "and/or/majority" `Quick test_simulate_and_or_majority;
          Alcotest.test_case "xor depth 2" `Quick test_simulate_parity_2layer;
          Alcotest.test_case "firing counts" `Quick test_simulate_firings;
          Alcotest.test_case "input mismatch" `Quick test_simulate_input_mismatch;
          prop_random_circuit_firings_bounded;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean circuit" `Quick test_validate_clean;
          Alcotest.test_case "flags issues" `Quick test_validate_duplicate_and_zero;
          Alcotest.test_case "reports every gate" `Quick test_validate_reports_every_gate;
        ] );
      ( "spiking",
        [
          Alcotest.test_case "settles to DAG semantics" `Quick
            test_spiking_settles_to_simulator;
          Alcotest.test_case "settles trace circuit" `Quick
            test_spiking_settles_arithmetic_circuit;
          Alcotest.test_case "tick progression" `Quick test_spiking_tick_progression;
          Alcotest.test_case "max ticks" `Quick test_spiking_max_ticks;
        ] );
      ( "export",
        [
          Alcotest.test_case "netlist roundtrip" `Quick test_netlist_roundtrip;
          Alcotest.test_case "netlist roundtrip large" `Quick test_netlist_roundtrip_large;
          Alcotest.test_case "netlist rejects garbage" `Quick test_netlist_rejects_garbage;
          Alcotest.test_case "comments and blanks" `Quick test_netlist_comments_and_blanks;
          Alcotest.test_case "dot renders" `Quick test_dot_renders;
          Alcotest.test_case "write file" `Quick test_export_write_file;
        ] );
      ( "transform",
        [
          Alcotest.test_case "prune dead gates" `Quick test_prune_removes_dead_gates;
          Alcotest.test_case "prune keeps live" `Quick test_prune_keeps_everything_live;
          Alcotest.test_case "prune chain" `Quick test_prune_chain;
        ] );
      ( "energy",
        [
          Alcotest.test_case "summary" `Quick test_energy_summary;
          Alcotest.test_case "levels match simulator" `Quick
            test_energy_levels_match_simulator;
          Alcotest.test_case "empty rejected" `Quick test_energy_empty_rejected;
        ] );
      ( "properties",
        [
          prop_netlist_roundtrip_random;
          prop_spiking_settles_random;
          prop_prune_preserves_outputs;
        ] );
      ( "packed",
        [
          Alcotest.test_case "batch multiword" `Quick test_packed_batch_multiword;
          Alcotest.test_case "batch lane boundaries" `Quick
            test_packed_batch_lane_boundaries;
          Alcotest.test_case "zero gates" `Quick test_packed_zero_gates;
          Alcotest.test_case "overflow traps everywhere" `Quick
            test_packed_overflow_all_engines;
          Alcotest.test_case "one-lane profile" `Quick test_packed_one_lane_profile;
          Alcotest.test_case "load rejects hostile sections" `Quick
            test_packed_load_rejects_hostile_sections;
          Alcotest.test_case "engine cache" `Quick test_engine_cache_reuse;
          Alcotest.test_case "engine cache alternation" `Quick
            test_engine_cache_alternation;
          prop_packed_matches_reference;
          prop_packed_batch_matches_reference;
          Alcotest.test_case "session delta validation" `Quick
            test_packed_session_rejects_bad_delta;
          prop_packed_session_matches_full;
          Alcotest.test_case "session past 128 levels" `Quick
            test_packed_session_deep_chain;
          Alcotest.test_case "session segment past 65,536 gates" `Quick
            test_packed_session_wide_segment;
        ] );
    ]
