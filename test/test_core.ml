open Tcmm
open Tcmm_fastmm
open Tcmm_threshold
open Tcmm_arith
module S = Tcmm_test_support.Support
module Prng = Tcmm_util.Prng

let strassen = Instances.strassen

(* ------------------------------------------------------------------ *)
(* Level_schedule                                                     *)
(* ------------------------------------------------------------------ *)

let levels s = (s : Level_schedule.t).Level_schedule.levels

let test_schedule_of_levels_validation () =
  let attempt ls =
    try
      ignore (Level_schedule.of_levels ~description:"x" ls);
      Alcotest.fail "expected invalid_arg"
    with Invalid_argument _ -> ()
  in
  attempt [||];
  attempt [| 1; 2 |];
  attempt [| 0; 2; 2 |];
  attempt [| 0; 3; 1 |];
  Alcotest.(check (array int)) "valid" [| 0; 2; 5 |]
    (levels (Level_schedule.of_levels ~description:"ok" [| 0; 2; 5 |]))

let test_schedule_shapes () =
  Alcotest.(check (array int)) "full" [| 0; 1; 2; 3 |] (levels (Level_schedule.full ~l:3));
  Alcotest.(check (array int)) "direct" [| 0; 4 |] (levels (Level_schedule.direct ~l:4));
  Alcotest.(check (array int)) "uniform 2 of 4" [| 0; 2; 4 |]
    (levels (Level_schedule.uniform ~steps:2 ~l:4));
  Alcotest.(check (array int)) "uniform 3 of 4" [| 0; 2; 3; 4 |]
    (levels (Level_schedule.uniform ~steps:3 ~l:4));
  Alcotest.(check (array int)) "uniform clamps steps" [| 0; 1; 2 |]
    (levels (Level_schedule.uniform ~steps:5 ~l:2));
  S.check_int "steps" 2 (Level_schedule.steps (Level_schedule.uniform ~steps:2 ~l:4))

let test_schedule_height () =
  S.check_int "2^5" 5 (Level_schedule.height ~t_dim:2 ~n:32);
  S.check_int "3^2" 2 (Level_schedule.height ~t_dim:3 ~n:9);
  try
    ignore (Level_schedule.height ~t_dim:2 ~n:12);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let schedule_invariants name s ~l ~max_steps =
  let ls = levels s in
  S.check_int (name ^ " starts at 0") 0 ls.(0);
  S.check_int (name ^ " ends at L") l ls.(Array.length ls - 1);
  for i = 1 to Array.length ls - 1 do
    S.check_bool (name ^ " strictly increasing") true (ls.(i) > ls.(i - 1))
  done;
  S.check_bool
    (Printf.sprintf "%s steps %d <= %d" name (Level_schedule.steps s) max_steps)
    true
    (Level_schedule.steps s <= max_steps)

let test_schedule_geometric () =
  let gamma = 0.491 in
  (* rho = l: Theorem 4.4's setting. *)
  List.iter
    (fun l ->
      let s = Level_schedule.geometric ~gamma ~rho:(float_of_int l) ~l in
      schedule_invariants "geometric" s ~l ~max_steps:l)
    [ 1; 2; 3; 5; 8; 13 ];
  (* gamma = 0 degenerates to a direct jump. *)
  Alcotest.(check (array int)) "gamma 0" [| 0; 4 |]
    (levels (Level_schedule.geometric ~gamma:0. ~rho:4. ~l:4));
  (* Invalid parameters. *)
  List.iter
    (fun (gamma, rho) ->
      try
        ignore (Level_schedule.geometric ~gamma ~rho ~l:4);
        Alcotest.fail "expected invalid_arg"
      with Invalid_argument _ -> ())
    [ (-0.1, 4.); (1.0, 4.); (0.5, 0.) ]

let test_schedule_theorem44 () =
  let profile = Sparsity.analyze strassen in
  let gamma = profile.Sparsity.overall.Sparsity.gamma in
  List.iter
    (fun n ->
      let l = Level_schedule.height ~t_dim:2 ~n in
      let s = Level_schedule.theorem44 ~gamma ~t_dim:2 ~n in
      (* t = floor(log_{1/gamma} log_T N) + 1 per the theorem. *)
      let bound =
        int_of_float (floor (log (float_of_int l) /. log (1. /. gamma))) + 1
      in
      schedule_invariants "thm44" s ~l ~max_steps:(max bound 1))
    [ 4; 16; 64; 256; 1024 ]

let test_schedule_theorem45 () =
  let profile = Sparsity.analyze strassen in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          let l = Level_schedule.height ~t_dim:2 ~n in
          let s = Level_schedule.theorem45 ~profile ~d ~n in
          schedule_invariants (Printf.sprintf "thm45 d=%d n=%d" d n) s ~l ~max_steps:d)
        [ 1; 2; 3; 4 ])
    [ 4; 16; 64; 256 ];
  try
    ignore (Level_schedule.theorem45 ~profile:(Sparsity.analyze strassen) ~d:0 ~n:4);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_schedule_theorem45_winograd_and_naive () =
  (* Other sparsity profiles produce valid schedules too. *)
  List.iter
    (fun algo ->
      let profile = Sparsity.analyze algo in
      let s = Level_schedule.theorem45 ~profile ~d:2 ~n:16 in
      schedule_invariants algo.Bilinear.name s ~l:4 ~max_steps:2)
    [ Instances.winograd; Instances.naive ~t_dim:2 ]

(* ------------------------------------------------------------------ *)
(* Encode                                                             *)
(* ------------------------------------------------------------------ *)

let test_encode_roundtrip_unsigned () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:2 ~entry_bits:3 ~signed:false in
  let m = Matrix.of_rows [| [| 0; 7 |]; [| 3; 5 |] |] in
  let input = Array.make (Encode.total_wires layout) false in
  Encode.write layout m input;
  let grid = Encode.grid layout in
  let read w = input.(w) in
  for i = 0 to 1 do
    for j = 0 to 1 do
      S.check_int
        (Printf.sprintf "entry %d %d" i j)
        (Matrix.get m i j)
        (Repr.eval_sbits read grid.(i).(j))
    done
  done

let test_encode_roundtrip_signed () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:2 ~entry_bits:3 ~signed:true in
  let m = Matrix.of_rows [| [| -7; 0 |]; [| 3; -1 |] |] in
  let input = Array.make (Encode.total_wires layout) false in
  Encode.write layout m input;
  let grid = Encode.grid layout in
  let read w = input.(w) in
  for i = 0 to 1 do
    for j = 0 to 1 do
      S.check_int
        (Printf.sprintf "entry %d %d" i j)
        (Matrix.get m i j)
        (Repr.eval_sbits read grid.(i).(j))
    done
  done

let test_encode_transposed_grid () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:2 ~entry_bits:2 ~signed:false in
  let m = Matrix.of_rows [| [| 1; 2 |]; [| 3; 0 |] |] in
  let input = Array.make (Encode.total_wires layout) false in
  Encode.write layout m input;
  let tg = Encode.transposed_grid layout in
  let read w = input.(w) in
  S.check_int "transposed (0,1) = m(1,0)" 3 (Repr.eval_sbits read tg.(0).(1))

let test_encode_rejections () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:2 ~entry_bits:2 ~signed:false in
  let input = Array.make (Encode.total_wires layout) false in
  (try
     Encode.write layout (Matrix.of_rows [| [| -1; 0 |]; [| 0; 0 |] |]) input;
     Alcotest.fail "expected invalid_arg on negative"
   with Invalid_argument _ -> ());
  (try
     Encode.write layout (Matrix.of_rows [| [| 4; 0 |]; [| 0; 0 |] |]) input;
     Alcotest.fail "expected invalid_arg on overflow"
   with Invalid_argument _ -> ());
  try
    Encode.write layout (Matrix.identity 3) input;
    Alcotest.fail "expected invalid_arg on dims"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Sum_tree                                                           *)
(* ------------------------------------------------------------------ *)

let check_sum_tree ~algo ~coeffs ~schedule ~n ~signed ~seed ~transpose () =
  let rng = Prng.create ~seed in
  let lo = if signed then -3 else 0 in
  let m = Matrix.random rng ~rows:n ~cols:n ~lo ~hi:3 in
  let b = Builder.create () in
  let layout = Encode.alloc b ~n ~entry_bits:2 ~signed in
  let grid = if transpose then Encode.transposed_grid layout else Encode.grid layout in
  let leaves = Sum_tree.compute_leaves b ~algo ~coeffs ~schedule grid in
  let c = Builder.finalize b in
  let input = Array.make (Encode.total_wires layout) false in
  Encode.write layout m input;
  let r = Simulator.run ~check:true c input in
  let reference =
    Sum_tree.reference_leaves ~algo ~coeffs (if transpose then Matrix.transpose m else m)
  in
  S.check_int "leaf count" (Array.length reference) (Array.length leaves);
  Array.iteri
    (fun k sb ->
      S.check_int
        (Printf.sprintf "leaf %d" k)
        reference.(k)
        (Repr.eval_sbits (Simulator.value r) sb))
    leaves

let test_sum_tree_strassen_full () =
  check_sum_tree ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~signed:false ~seed:11 ~transpose:false ()

let test_sum_tree_strassen_direct () =
  check_sum_tree ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
    ~schedule:(Level_schedule.direct ~l:2) ~n:4 ~signed:true ~seed:12 ~transpose:false ()

let test_sum_tree_strassen_b_side () =
  check_sum_tree ~algo:strassen ~coeffs:(Sum_tree.b_coeffs strassen)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~signed:true ~seed:13 ~transpose:false ()

let test_sum_tree_w_side_transposed () =
  check_sum_tree ~algo:strassen ~coeffs:(Sum_tree.w_transposed_coeffs strassen)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~signed:false ~seed:14 ~transpose:true ()

let test_sum_tree_uniform_8 () =
  check_sum_tree ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
    ~schedule:(Level_schedule.uniform ~steps:2 ~l:3) ~n:8 ~signed:false ~seed:15
    ~transpose:false ()

let test_sum_tree_naive3 () =
  let algo = Instances.naive ~t_dim:3 in
  check_sum_tree ~algo ~coeffs:(Sum_tree.a_coeffs algo)
    ~schedule:(Level_schedule.full ~l:1) ~n:3 ~signed:true ~seed:16 ~transpose:false ()

let test_sum_tree_winograd () =
  check_sum_tree ~algo:Instances.winograd ~coeffs:(Sum_tree.a_coeffs Instances.winograd)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~signed:true ~seed:17 ~transpose:false ()

let test_sum_tree_depth () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:4 ~entry_bits:1 ~signed:false in
  let schedule = Level_schedule.full ~l:2 in
  let leaves =
    Sum_tree.compute_leaves b ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
      ~schedule (Encode.grid layout)
  in
  Array.iter
    (fun (sb : Repr.signed_bits) ->
      Array.iter
        (fun w -> S.check_bool "leaf depth <= 2*steps" true (Builder.depth_of b w <= 4))
        (Array.append sb.Repr.pos_bits sb.Repr.neg_bits))
    leaves

let test_sum_tree_rejects_bad_input () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:4 ~entry_bits:1 ~signed:false in
  (* Schedule height 3 => expects 8x8 input, got 4x4. *)
  try
    ignore
      (Sum_tree.compute_leaves b ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
         ~schedule:(Level_schedule.full ~l:3) (Encode.grid layout));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_sum_tree_rejects_bad_coeffs () =
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:4 ~entry_bits:1 ~signed:false in
  try
    ignore
      (Sum_tree.compute_leaves b ~algo:strassen ~coeffs:[| [| 1 |] |]
         ~schedule:(Level_schedule.full ~l:2) (Encode.grid layout));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_reference_leaves_strassen_2x2 () =
  (* Hand-checked: leaves of T_A at N = 2 are the 7 sums of Figure 1. *)
  let m = Matrix.of_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  let leaves = Sum_tree.reference_leaves ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen) m in
  (* M1: A11 = 1; M2: A21+A22 = 7; M3: A11+A22 = 5; M4: A22 = 4;
     M5: A11+A12 = 3; M6: A21-A11 = 2; M7: A12-A22 = -2. *)
  Alcotest.(check (array int)) "figure 1 sums" [| 1; 7; 5; 4; 3; 2; -2 |] leaves

(* ------------------------------------------------------------------ *)
(* Combine_tree                                                       *)
(* ------------------------------------------------------------------ *)

let test_reference_combine_recovers_product () =
  (* Pure-integer pipeline: leaf sums of A and B, multiplied pairwise,
     recombined via w — must equal A*B (this is the fast algorithm run
     by hand through the tree machinery). *)
  let rng = Prng.create ~seed:21 in
  List.iter
    (fun (algo, n) ->
      let l = Level_schedule.height ~t_dim:algo.Bilinear.t_dim ~n in
      let a = Matrix.random rng ~rows:n ~cols:n ~lo:(-4) ~hi:4 in
      let b = Matrix.random rng ~rows:n ~cols:n ~lo:(-4) ~hi:4 in
      let la = Sum_tree.reference_leaves ~algo ~coeffs:(Sum_tree.a_coeffs algo) a in
      let lb = Sum_tree.reference_leaves ~algo ~coeffs:(Sum_tree.b_coeffs algo) b in
      let products = Array.map2 ( * ) la lb in
      let c = Combine_tree.reference_combine ~algo ~l products in
      S.check_bool
        (Printf.sprintf "%s n=%d" algo.Bilinear.name n)
        true
        (Matrix.equal c (Matrix.mul a b)))
    [ (strassen, 2); (strassen, 4); (strassen, 8); (Instances.winograd, 4);
      (Instances.naive ~t_dim:2, 4); (Instances.naive ~t_dim:3, 9) ]

let test_combine_rejects_wrong_leaf_count () =
  let b = Builder.create () in
  try
    ignore
      (Combine_tree.combine b ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
         (Array.make 7 Repr.signed_zero));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace_circuit                                                      *)
(* ------------------------------------------------------------------ *)

let test_trace_exhaustive_2x2_binary () =
  (* All 16 binary 2x2 matrices, thresholds around the true trace. *)
  let schedule = Level_schedule.full ~l:1 in
  for mask = 0 to 15 do
    let m = Matrix.init ~rows:2 ~cols:2 (fun i j -> (mask lsr ((2 * i) + j)) land 1) in
    let expect = Trace_circuit.reference m in
    List.iter
      (fun tau ->
        let built =
          Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau ~n:2 ()
        in
        S.check_bool
          (Printf.sprintf "mask=%d tau=%d" mask tau)
          (expect >= tau) (Trace_circuit.run built m))
      [ expect - 1; expect; expect + 1 ]
  done

let check_trace ~algo ~schedule ~n ~entry_bits ~signed ~seed () =
  let rng = Prng.create ~seed in
  let lo = if signed then -((1 lsl entry_bits) - 1) else 0 in
  let m = Matrix.random rng ~rows:n ~cols:n ~lo ~hi:((1 lsl entry_bits) - 1) in
  let expect = Trace_circuit.reference m in
  let built =
    Trace_circuit.build ~algo ~schedule ~signed_inputs:signed ~entry_bits ~tau:expect
      ~n ()
  in
  S.check_int "trace value" expect (Trace_circuit.trace_value built m);
  S.check_bool "boundary fires" true (Trace_circuit.run built m)

let test_trace_strassen_4 () =
  check_trace ~algo:strassen ~schedule:(Level_schedule.full ~l:2) ~n:4 ~entry_bits:2
    ~signed:false ~seed:31 ()

let test_trace_strassen_4_signed () =
  check_trace ~algo:strassen ~schedule:(Level_schedule.direct ~l:2) ~n:4 ~entry_bits:2
    ~signed:true ~seed:32 ()

let test_trace_winograd_4 () =
  check_trace ~algo:Instances.winograd ~schedule:(Level_schedule.full ~l:2) ~n:4
    ~entry_bits:2 ~signed:true ~seed:33 ()

let test_trace_naive2_4 () =
  check_trace ~algo:(Instances.naive ~t_dim:2) ~schedule:(Level_schedule.full ~l:2)
    ~n:4 ~entry_bits:1 ~signed:false ~seed:34 ()

let test_trace_strassen_8_thm45 () =
  let profile = Sparsity.analyze strassen in
  check_trace ~algo:strassen
    ~schedule:(Level_schedule.theorem45 ~profile ~d:2 ~n:8)
    ~n:8 ~entry_bits:1 ~signed:false ~seed:35 ()

let test_trace_strassen_squared_16 () =
  check_trace ~algo:Instances.strassen_squared ~schedule:(Level_schedule.full ~l:1)
    ~n:4 ~entry_bits:1 ~signed:false ~seed:36 ()

let test_trace_depth_formula () =
  List.iter
    (fun (schedule, n) ->
      let built =
        Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau:0 ~n ()
      in
      let st = Trace_circuit.stats built in
      S.check_int
        (Printf.sprintf "depth 2t+2 (t=%d)" (Level_schedule.steps schedule))
        (Gate_model.trace_depth schedule)
        st.Stats.depth)
    [
      (Level_schedule.full ~l:1, 2);
      (Level_schedule.full ~l:2, 4);
      (Level_schedule.direct ~l:2, 4);
      (Level_schedule.full ~l:3, 8);
    ]

let test_trace_depth_within_paper_bound () =
  let profile = Sparsity.analyze strassen in
  List.iter
    (fun d ->
      let schedule = Level_schedule.theorem45 ~profile ~d ~n:16 in
      let built =
        Trace_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
          ~entry_bits:1 ~tau:0 ~n:16 ()
      in
      let st = Trace_circuit.stats built in
      S.check_bool
        (Printf.sprintf "depth <= 2d+5 at d=%d" d)
        true
        (st.Stats.depth <= Gate_model.trace_depth_bound ~d))
    [ 1; 2; 3 ]

let test_trace_count_only_matches () =
  let schedule = Level_schedule.full ~l:2 in
  let m1 = Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:2 ~tau:5 ~n:4 () in
  let m2 =
    Trace_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule ~entry_bits:2
      ~tau:5 ~n:4 ()
  in
  let s1 = Trace_circuit.stats m1 and s2 = Trace_circuit.stats m2 in
  S.check_int "gates" s1.Stats.gates s2.Stats.gates;
  S.check_int "edges" s1.Stats.edges s2.Stats.edges;
  S.check_int "depth" s1.Stats.depth s2.Stats.depth;
  S.check_bool "no circuit in count mode" true
    (match Trace_circuit.circuit m2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_trace_value_output () =
  (* build_with_value emits canonical sign/magnitude outputs for the
     trace itself. *)
  let rng = Prng.create ~seed:39 in
  List.iter
    (fun signed ->
      let lo = if signed then -3 else 0 in
      let m = Matrix.random rng ~rows:4 ~cols:4 ~lo ~hi:3 in
      let expect = Trace_circuit.reference m in
      let built, norm =
        Trace_circuit.build_with_value ~algo:strassen
          ~schedule:(Level_schedule.full ~l:2) ~signed_inputs:signed ~entry_bits:2
          ~tau:expect ~n:4 ()
      in
      let c = Trace_circuit.circuit built in
      let input = Trace_circuit.encode_input built m in
      let r = Tcmm_threshold.Simulator.run ~check:true c input in
      let read = Tcmm_threshold.Simulator.value r in
      S.check_bool
        (Printf.sprintf "sign (trace=%d)" expect)
        (expect < 0)
        (read norm.Tcmm_arith.Binary.sign_negative);
      S.check_int "magnitude" (abs expect)
        (Repr.eval_bits read norm.Tcmm_arith.Binary.magnitude);
      S.check_bool "threshold output still present" true r.Tcmm_threshold.Simulator.outputs.(0))
    [ false; true ]

let test_trace_staged_matches_reference () =
  (* The Theorem 4.1 variant must compute the same function. *)
  let rng = Prng.create ~seed:37 in
  List.iter
    (fun stages ->
      let m = Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:3 in
      let expect = Trace_circuit.reference m in
      let built =
        Trace_circuit.build_staged ~algo:strassen ~stages ~entry_bits:2 ~tau:expect ~n:4 ()
      in
      S.check_int
        (Printf.sprintf "stages=%d" stages)
        expect (Trace_circuit.trace_value built m);
      S.check_bool "boundary fires" true (Trace_circuit.run built m);
      let st = Trace_circuit.stats built in
      S.check_bool "depth <= 2*stages+2" true (st.Stats.depth <= (2 * stages) + 2))
    [ 1; 2; 3 ]

let test_staged_leaves_match_reference () =
  let rng = Prng.create ~seed:38 in
  let m = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-2) ~hi:2 in
  let b = Builder.create () in
  let layout = Encode.alloc b ~n:4 ~entry_bits:2 ~signed:true in
  let leaves =
    Sum_tree.compute_leaves_staged b ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
      ~stages:2 ~l:2 (Encode.grid layout)
  in
  let c = Builder.finalize b in
  let input = Array.make (Encode.total_wires layout) false in
  Encode.write layout m input;
  let r = Tcmm_threshold.Simulator.run ~check:true c input in
  let reference =
    Sum_tree.reference_leaves ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen) m
  in
  Array.iteri
    (fun k sb ->
      S.check_int
        (Printf.sprintf "leaf %d" k)
        reference.(k)
        (Repr.eval_sbits (Tcmm_threshold.Simulator.value r) sb))
    leaves

let test_trace_tau_extremes () =
  let schedule = Level_schedule.full ~l:1 in
  let m = Matrix.of_rows [| [| 1; 1 |]; [| 1; 1 |] |] in
  let low = Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau:(-1000) ~n:2 () in
  S.check_bool "tau very low" true (Trace_circuit.run low m);
  let high = Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau:1000 ~n:2 () in
  S.check_bool "tau very high" false (Trace_circuit.run high m)

(* ------------------------------------------------------------------ *)
(* Matmul_circuit                                                     *)
(* ------------------------------------------------------------------ *)

let check_matmul ~algo ~schedule ~n ~entry_bits ~signed ~seed () =
  let rng = Prng.create ~seed in
  let lo = if signed then -((1 lsl entry_bits) - 1) else 0 in
  let hi = (1 lsl entry_bits) - 1 in
  let a = Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
  let b = Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
  let built =
    Matmul_circuit.build ~algo ~schedule ~signed_inputs:signed ~entry_bits ~n ()
  in
  let c = Matmul_circuit.run built ~a ~b in
  S.check_bool "C = A*B" true (Matrix.equal c (Matrix.mul a b))

let test_matmul_strassen_2 () =
  check_matmul ~algo:strassen ~schedule:(Level_schedule.full ~l:1) ~n:2 ~entry_bits:3
    ~signed:true ~seed:41 ()

let test_matmul_strassen_4_full () =
  check_matmul ~algo:strassen ~schedule:(Level_schedule.full ~l:2) ~n:4 ~entry_bits:2
    ~signed:true ~seed:42 ()

let test_matmul_strassen_4_direct () =
  check_matmul ~algo:strassen ~schedule:(Level_schedule.direct ~l:2) ~n:4 ~entry_bits:2
    ~signed:false ~seed:43 ()

let test_matmul_winograd_4 () =
  check_matmul ~algo:Instances.winograd ~schedule:(Level_schedule.full ~l:2) ~n:4
    ~entry_bits:2 ~signed:true ~seed:44 ()

let test_matmul_naive2_4 () =
  check_matmul ~algo:(Instances.naive ~t_dim:2) ~schedule:(Level_schedule.full ~l:2)
    ~n:4 ~entry_bits:2 ~signed:false ~seed:45 ()

let test_matmul_naive3_9 () =
  check_matmul ~algo:(Instances.naive ~t_dim:3) ~schedule:(Level_schedule.full ~l:2)
    ~n:9 ~entry_bits:1 ~signed:false ~seed:46 ()

let test_matmul_strassen_8_uniform () =
  check_matmul ~algo:strassen ~schedule:(Level_schedule.uniform ~steps:2 ~l:3) ~n:8
    ~entry_bits:1 ~signed:false ~seed:47 ()

let test_matmul_strassen_squared_4 () =
  check_matmul ~algo:Instances.strassen_squared ~schedule:(Level_schedule.full ~l:1)
    ~n:4 ~entry_bits:2 ~signed:true ~seed:48 ()

let test_matmul_depth_formula () =
  List.iter
    (fun (schedule, n) ->
      let built = Matmul_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~n () in
      let st = Matmul_circuit.stats built in
      S.check_int
        (Printf.sprintf "depth 4t+1 (t=%d)" (Level_schedule.steps schedule))
        (Gate_model.matmul_depth schedule)
        st.Stats.depth)
    [ (Level_schedule.full ~l:1, 2); (Level_schedule.full ~l:2, 4);
      (Level_schedule.direct ~l:2, 4) ]

let test_matmul_depth_within_paper_bound () =
  let profile = Sparsity.analyze strassen in
  List.iter
    (fun d ->
      let schedule = Level_schedule.theorem45 ~profile ~d ~n:16 in
      let built =
        Matmul_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
          ~entry_bits:1 ~n:16 ()
      in
      S.check_bool
        (Printf.sprintf "depth <= 4d+1 at d=%d" d)
        true
        ((Matmul_circuit.stats built).Stats.depth <= Gate_model.matmul_depth_bound ~d))
    [ 1; 2; 3 ]

let test_matmul_zero_matrices () =
  let built =
    Matmul_circuit.build ~algo:strassen ~schedule:(Level_schedule.full ~l:1)
      ~entry_bits:2 ~n:2 ()
  in
  let z = Matrix.create ~rows:2 ~cols:2 in
  S.check_bool "0*0 = 0" true (Matrix.equal (Matmul_circuit.run built ~a:z ~b:z) z)

let test_matmul_identity () =
  let built =
    Matmul_circuit.build ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
      ~entry_bits:2 ~n:4 ()
  in
  let rng = Prng.create ~seed:49 in
  let a = Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:3 in
  S.check_bool "A*I = A" true
    (Matrix.equal (Matmul_circuit.run built ~a ~b:(Matrix.identity 4)) a)

(* ------------------------------------------------------------------ *)
(* Tiled_matmul                                                       *)
(* ------------------------------------------------------------------ *)

let test_tiled_round_up () =
  S.check_int "exact" 8 (Tiled_matmul.round_up 8 ~block:4);
  S.check_int "up" 12 (Tiled_matmul.round_up 9 ~block:4);
  S.check_int "one" 4 (Tiled_matmul.round_up 1 ~block:4)

(* Both engines: the packed lowering of the default (Direct) build and
   the reference interpreter on the circuit its builder expands. *)
let engines = [ Simulator.Packed; Simulator.Reference ]

let check_tiled ~rows ~inner ~cols ~schedule ~entry_bits ~signed ~seed () =
  let rng = Prng.create ~seed in
  let lo = if signed then -((1 lsl entry_bits) - 1) else 0 in
  let hi = (1 lsl entry_bits) - 1 in
  let a = Matrix.random rng ~rows ~cols:inner ~lo ~hi in
  let b = Matrix.random rng ~rows:inner ~cols ~lo ~hi in
  let built =
    Tiled_matmul.build ~algo:strassen ~schedule ~signed_inputs:signed ~entry_bits ~rows
      ~inner ~cols ()
  in
  List.iter
    (fun engine ->
      S.check_bool "C = A*B" true
        (Matrix.equal (Tiled_matmul.run ~engine built ~a ~b) (Matrix.mul a b)))
    engines

let test_tiled_square () =
  check_tiled ~rows:8 ~inner:8 ~cols:8 ~schedule:(Level_schedule.full ~l:2)
    ~entry_bits:2 ~signed:true ~seed:81 ()

let test_tiled_rectangular () =
  check_tiled ~rows:4 ~inner:8 ~cols:12 ~schedule:(Level_schedule.full ~l:2)
    ~entry_bits:2 ~signed:true ~seed:82 ()

let test_tiled_tall_thin () =
  check_tiled ~rows:12 ~inner:2 ~cols:2 ~schedule:(Level_schedule.full ~l:1)
    ~entry_bits:3 ~signed:false ~seed:83 ()

let test_tiled_single_block () =
  (* Degenerate case: one tile — no summation layer. *)
  check_tiled ~rows:4 ~inner:4 ~cols:4 ~schedule:(Level_schedule.full ~l:2)
    ~entry_bits:2 ~signed:true ~seed:84 ()

let test_tiled_bounds_fan_in () =
  (* The whole point: block 4 tiles at N=16 keep fan-in far below the
     monolithic circuit's. *)
  let mono =
    Matmul_circuit.build ~mode:Builder.Count_only ~algo:strassen
      ~schedule:(Level_schedule.direct ~l:4) ~entry_bits:1 ~n:16 ()
  in
  let tiled =
    Tiled_matmul.build ~mode:Builder.Count_only ~algo:strassen
      ~schedule:(Level_schedule.full ~l:2) ~entry_bits:1 ~rows:16 ~inner:16 ~cols:16 ()
  in
  let fm = (Matmul_circuit.stats mono).Stats.max_fan_in in
  let ft = (Tiled_matmul.stats tiled).Stats.max_fan_in in
  S.check_bool (Printf.sprintf "fan-in %d < %d" ft fm) true (ft < fm / 4)

let test_tiled_rejects_unaligned () =
  try
    ignore
      (Tiled_matmul.build ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
         ~entry_bits:1 ~rows:6 ~inner:4 ~cols:4 ());
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Naive_circuits                                                     *)
(* ------------------------------------------------------------------ *)

let test_naive_triangle_known_graphs () =
  let check_graph name g tau expect =
    let n = Tcmm_graph.Graph.num_vertices g in
    let built = Naive_circuits.triangle_threshold ~n ~tau () in
    S.check_bool name expect
      (Naive_circuits.triangle_run built (Tcmm_graph.Graph.adjacency g))
  in
  let k4 = Tcmm_graph.Generate.complete 4 in
  check_graph "K4 has >= 4 triangles" k4 4 true;
  check_graph "K4 lacks 5" k4 5 false;
  let empty = Tcmm_graph.Graph.empty 4 in
  check_graph "empty has >= 0" empty 0 true;
  check_graph "empty lacks 1" empty 1 false;
  let path = Tcmm_graph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check_graph "path lacks 1" path 1 false

let test_naive_triangle_matches_reference () =
  let rng = Prng.create ~seed:51 in
  for _ = 1 to 5 do
    let g = Tcmm_graph.Generate.erdos_renyi rng ~n:8 ~p:0.5 in
    let count = Tcmm_graph.Triangles.count g in
    let adj = Tcmm_graph.Graph.adjacency g in
    let hit = Naive_circuits.triangle_threshold ~n:8 ~tau:count () in
    let miss = Naive_circuits.triangle_threshold ~n:8 ~tau:(count + 1) () in
    List.iter
      (fun engine ->
        S.check_bool "tau = count fires" true
          (Naive_circuits.triangle_run ~engine hit adj);
        S.check_bool "tau = count+1 does not" false
          (Naive_circuits.triangle_run ~engine miss adj))
      engines
  done

let test_naive_triangle_size_and_depth () =
  (* The paper's (N choose 3) + 1 gates at depth 2. *)
  let built = Naive_circuits.triangle_threshold ~mode:Builder.Count_only ~n:8 ~tau:1 () in
  let st = Builder.stats built.Naive_circuits.builder in
  S.check_int "gates" ((8 * 7 * 6 / 6) + 1) st.Stats.gates;
  S.check_int "depth" 2 st.Stats.depth;
  S.check_int "inputs" (8 * 7 / 2) st.Stats.inputs

let test_naive_triangle_rejects_bad_matrix () =
  let built = Naive_circuits.triangle_threshold ~n:4 ~tau:1 () in
  (try
     ignore (Naive_circuits.triangle_encode built (Matrix.identity 4));
     Alcotest.fail "expected invalid_arg (diagonal)"
   with Invalid_argument _ -> ());
  let asym = Matrix.create ~rows:4 ~cols:4 in
  Matrix.set asym 0 1 1;
  try
    ignore (Naive_circuits.triangle_encode built asym);
    Alcotest.fail "expected invalid_arg (asymmetric)"
  with Invalid_argument _ -> ()

let test_naive_trace_matches_reference () =
  let rng = Prng.create ~seed:52 in
  let m = Matrix.random rng ~rows:3 ~cols:3 ~lo:(-3) ~hi:3 in
  let expect = Trace_circuit.reference m in
  let built =
    Naive_circuits.trace_threshold ~signed_inputs:true ~entry_bits:2 ~tau:expect ~n:3 ()
  in
  List.iter
    (fun engine ->
      S.check_int "value" expect (Naive_circuits.trace_value ~engine built m);
      S.check_bool "fires at boundary" true
        (Naive_circuits.trace_run ~engine built m))
    engines;
  let st = Builder.stats built.Naive_circuits.builder in
  S.check_int "depth 2" 2 st.Stats.depth

let test_naive_matmul_matches () =
  let rng = Prng.create ~seed:53 in
  let a = Matrix.random rng ~rows:3 ~cols:3 ~lo:(-3) ~hi:3 in
  let b = Matrix.random rng ~rows:3 ~cols:3 ~lo:(-3) ~hi:3 in
  let built = Naive_circuits.matmul ~signed_inputs:true ~entry_bits:2 ~n:3 () in
  List.iter
    (fun engine ->
      S.check_bool "C = A*B" true
        (Matrix.equal
           (Naive_circuits.matmul_run ~engine built ~a ~b)
           (Matrix.mul a b)))
    engines;
  let st = Builder.stats built.Naive_circuits.builder in
  S.check_int "depth 3" 3 st.Stats.depth

(* ------------------------------------------------------------------ *)
(* Gate_model                                                         *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Gate_count (analytic-exact DP)                                     *)
(* ------------------------------------------------------------------ *)

let check_gate_count_trace ~algo ~schedule ~n ~entry_bits ~signed () =
  let built =
    Trace_circuit.build ~mode:Builder.Count_only ~algo ~schedule
      ~signed_inputs:signed ~entry_bits ~tau:1 ~n ()
  in
  let s = Trace_circuit.stats built in
  let dp = Gate_count.trace ~algo ~schedule ~entry_bits ~signed_inputs:signed ~n () in
  S.check_int "gates" s.Stats.gates dp.Gate_count.gates;
  S.check_int "edges" s.Stats.edges dp.Gate_count.edges

let test_gate_count_trace_strassen_schedules () =
  List.iter
    (fun schedule ->
      check_gate_count_trace ~algo:strassen ~schedule ~n:8 ~entry_bits:1 ~signed:false ())
    [
      Level_schedule.full ~l:3;
      Level_schedule.direct ~l:3;
      Level_schedule.uniform ~steps:2 ~l:3;
      Level_schedule.theorem45 ~profile:(Sparsity.analyze strassen) ~d:2 ~n:8;
    ]

let test_gate_count_trace_variants () =
  check_gate_count_trace ~algo:strassen ~schedule:(Level_schedule.full ~l:2) ~n:4
    ~entry_bits:3 ~signed:true ();
  check_gate_count_trace ~algo:Instances.winograd ~schedule:(Level_schedule.direct ~l:2)
    ~n:4 ~entry_bits:2 ~signed:false ();
  check_gate_count_trace ~algo:(Instances.naive ~t_dim:2)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~entry_bits:2 ~signed:false ();
  check_gate_count_trace ~algo:(Instances.naive ~t_dim:3)
    ~schedule:(Level_schedule.full ~l:1) ~n:3 ~entry_bits:1 ~signed:false ();
  check_gate_count_trace ~algo:Instances.strassen_squared
    ~schedule:(Level_schedule.full ~l:1) ~n:4 ~entry_bits:2 ~signed:true ()

let test_gate_count_sum_tree_matches () =
  let schedule = Level_schedule.uniform ~steps:2 ~l:3 in
  let b = Builder.create ~mode:Builder.Count_only () in
  let layout = Encode.alloc b ~n:8 ~entry_bits:2 ~signed:false in
  let before = Builder.stats b in
  ignore
    (Sum_tree.compute_leaves b ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen)
       ~schedule (Encode.grid layout));
  let after = Builder.stats b in
  let dp =
    Gate_count.sum_tree ~algo:strassen ~coeffs:(Sum_tree.a_coeffs strassen) ~schedule
      ~entry_bits:2 ~n:8 ()
  in
  S.check_int "gates" (after.Stats.gates - before.Stats.gates) dp.Gate_count.gates;
  S.check_int "edges" (after.Stats.edges - before.Stats.edges) dp.Gate_count.edges

let test_gate_count_share_top_matches () =
  let schedule = Level_schedule.uniform ~steps:2 ~l:3 in
  let built =
    Trace_circuit.build ~mode:Builder.Count_only ~share_top:true ~algo:strassen
      ~schedule ~entry_bits:2 ~tau:1 ~n:8 ()
  in
  let s = Trace_circuit.stats built in
  let dp = Gate_count.trace ~algo:strassen ~schedule ~entry_bits:2 ~share_top:true ~n:8 () in
  S.check_int "gates" s.Stats.gates dp.Gate_count.gates;
  S.check_int "edges" s.Stats.edges dp.Gate_count.edges;
  let base = Gate_count.trace ~algo:strassen ~schedule ~entry_bits:2 ~n:8 () in
  S.check_bool "saves gates" true (dp.Gate_count.gates < base.Gate_count.gates)

let test_share_top_circuits_correct () =
  let rng = Prng.create ~seed:77 in
  let a = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
  let b = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
  let built =
    Matmul_circuit.build ~share_top:true ~algo:strassen
      ~schedule:(Level_schedule.full ~l:2) ~signed_inputs:true ~entry_bits:2 ~n:4 ()
  in
  S.check_bool "matmul share_top" true
    (Matrix.equal (Matmul_circuit.run built ~a ~b) (Matrix.mul a b));
  let m = Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:3 in
  let expect = Trace_circuit.reference m in
  let trace =
    Trace_circuit.build ~share_top:true ~algo:strassen
      ~schedule:(Level_schedule.direct ~l:2) ~entry_bits:2 ~tau:expect ~n:4 ()
  in
  S.check_int "trace share_top" expect (Trace_circuit.trace_value trace m)

let check_gate_count_matmul ~algo ~schedule ~n ~entry_bits ~signed ~share_top () =
  let built =
    Matmul_circuit.build ~mode:Builder.Count_only ~algo ~schedule
      ~signed_inputs:signed ~share_top ~entry_bits ~n ()
  in
  let s = Matmul_circuit.stats built in
  let dp =
    Gate_count_matmul.matmul ~algo ~schedule ~entry_bits ~signed_inputs:signed
      ~share_top ~n ()
  in
  S.check_int "gates" s.Stats.gates dp.Gate_count.gates;
  S.check_int "edges" s.Stats.edges dp.Gate_count.edges

let test_gate_count_matmul_schedules () =
  List.iter
    (fun schedule ->
      check_gate_count_matmul ~algo:strassen ~schedule ~n:8 ~entry_bits:1 ~signed:false
        ~share_top:false ())
    [
      Level_schedule.full ~l:3;
      Level_schedule.direct ~l:3;
      Level_schedule.uniform ~steps:2 ~l:3;
    ]

let test_gate_count_matmul_variants () =
  check_gate_count_matmul ~algo:strassen ~schedule:(Level_schedule.full ~l:2) ~n:4
    ~entry_bits:3 ~signed:true ~share_top:false ();
  check_gate_count_matmul ~algo:strassen ~schedule:(Level_schedule.uniform ~steps:2 ~l:3)
    ~n:8 ~entry_bits:2 ~signed:false ~share_top:true ();
  check_gate_count_matmul ~algo:Instances.winograd ~schedule:(Level_schedule.full ~l:2)
    ~n:4 ~entry_bits:2 ~signed:true ~share_top:false ();
  check_gate_count_matmul ~algo:(Instances.naive ~t_dim:2)
    ~schedule:(Level_schedule.full ~l:2) ~n:4 ~entry_bits:1 ~signed:false
    ~share_top:false ();
  check_gate_count_matmul ~algo:(Instances.naive ~t_dim:3)
    ~schedule:(Level_schedule.full ~l:1) ~n:3 ~entry_bits:2 ~signed:false
    ~share_top:false ();
  check_gate_count_matmul ~algo:Instances.strassen_squared
    ~schedule:(Level_schedule.full ~l:1) ~n:4 ~entry_bits:1 ~signed:true
    ~share_top:false ()

let test_gate_count_matmul_rejects () =
  (try
     ignore
       (Gate_count_matmul.matmul ~algo:strassen ~schedule:(Level_schedule.full ~l:2)
          ~entry_bits:1 ~n:8 ());
     Alcotest.fail "expected invalid_arg (size)"
   with Invalid_argument _ -> ());
  let algo =
    Tcmm_fastmm.Bilinear.make ~name:"doubled" ~t_dim:2
      ~u:(Array.map (Array.map (fun c -> 2 * c)) strassen.Bilinear.u)
      ~v:strassen.Bilinear.v ~w:strassen.Bilinear.w
  in
  try
    ignore
      (Gate_count_matmul.matmul ~algo ~schedule:(Level_schedule.full ~l:1) ~entry_bits:1
         ~n:2 ());
    Alcotest.fail "expected invalid_arg (coeffs)"
  with Invalid_argument _ -> ()

let test_gate_count_rejects_non_unit_coeffs () =
  let algo =
    Tcmm_fastmm.Bilinear.make ~name:"doubled" ~t_dim:2
      ~u:(Array.map (Array.map (fun c -> 2 * c)) strassen.Bilinear.u)
      ~v:strassen.Bilinear.v ~w:strassen.Bilinear.w
  in
  try
    ignore
      (Gate_count.trace ~algo ~schedule:(Level_schedule.full ~l:1) ~entry_bits:1 ~n:2 ());
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_gate_count_rejects_mismatched_n () =
  try
    ignore
      (Gate_count.trace ~algo:strassen ~schedule:(Level_schedule.full ~l:2) ~entry_bits:1
         ~n:8 ());
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Closed-form naive counts                                            *)
(* ------------------------------------------------------------------ *)

let test_naive_counts_formulas () =
  List.iter
    (fun n ->
      let built = Naive_circuits.triangle_threshold ~mode:Builder.Count_only ~n ~tau:1 () in
      let s = Builder.stats built.Naive_circuits.builder in
      let g, e = Naive_circuits.triangle_counts ~n in
      S.check_int "triangle gates" s.Stats.gates g;
      S.check_int "triangle edges" s.Stats.edges e)
    [ 3; 5; 9 ];
  List.iter
    (fun (n, bits, signed) ->
      let built =
        Naive_circuits.trace_threshold ~mode:Builder.Count_only ~signed_inputs:signed
          ~entry_bits:bits ~tau:1 ~n ()
      in
      let s = Builder.stats built.Naive_circuits.builder in
      let g, e = Naive_circuits.trace_counts ~signed_inputs:signed ~entry_bits:bits ~n () in
      S.check_int "trace gates" s.Stats.gates g;
      S.check_int "trace edges" s.Stats.edges e)
    [ (3, 1, false); (4, 2, true); (5, 3, false) ];
  List.iter
    (fun (n, bits, signed) ->
      let built =
        Naive_circuits.matmul ~mode:Builder.Count_only ~signed_inputs:signed
          ~entry_bits:bits ~n ()
      in
      let s = Builder.stats built.Naive_circuits.builder in
      let g, e = Naive_circuits.matmul_counts ~signed_inputs:signed ~entry_bits:bits ~n () in
      S.check_int "matmul gates" s.Stats.gates g;
      S.check_int "matmul edges" s.Stats.edges e)
    [ (3, 1, false); (4, 2, true); (5, 2, false); (2, 4, true) ]

let test_exponent_limits () =
  let p = Sparsity.analyze strassen in
  let omega = p.Sparsity.omega in
  Alcotest.(check (float 1e-6)) "d=0 gives omega + c" (omega +. p.Sparsity.c_const)
    (Gate_model.exponent p ~d:0);
  S.check_bool "decreasing in d" true
    (Gate_model.exponent p ~d:1 > Gate_model.exponent p ~d:2);
  S.check_bool "approaches omega" true (Gate_model.exponent p ~d:40 -. omega < 1e-6);
  (* d >= 4 is subcubic for Strassen, matching the paper's "for d > 3". *)
  S.check_bool "d=4 subcubic" true (Gate_model.exponent p ~d:4 < 3.);
  S.check_bool "d=1 not subcubic" true (Gate_model.exponent p ~d:1 > 3.)

let test_depth_formulas () =
  S.check_int "trace bound" 9 (Gate_model.trace_depth_bound ~d:2);
  S.check_int "matmul bound" 9 (Gate_model.matmul_depth_bound ~d:2);
  S.check_int "trace actual" 6 (Gate_model.trace_depth (Level_schedule.full ~l:2));
  S.check_int "matmul actual" 9 (Gate_model.matmul_depth (Level_schedule.full ~l:2))

let test_sum_slots_hand_computed () =
  let p = Sparsity.analyze strassen in
  (* N=4, full schedule [0;1;2]:
     level 1: r^0 * 12^1 * (4/2)^2 = 48;
     level 2: 7^1 * 12^1 * (4/4)^2 = 84; total 132. *)
  S.check_int "full N=4" 132
    (Gate_model.sum_slots p ~schedule:(Level_schedule.full ~l:2) ~n:4 ~side:`A);
  (* direct: 12^2 * 1 = 144. *)
  S.check_int "direct N=4" 144
    (Gate_model.sum_slots p ~schedule:(Level_schedule.direct ~l:2) ~n:4 ~side:`A)

let test_leaf_products () =
  let p = Sparsity.analyze strassen in
  S.check_int "7^2" 49 (Gate_model.leaf_products p ~n:4);
  S.check_int "7^4" 2401 (Gate_model.leaf_products p ~n:16)

let test_fit_exponent_recovers_slope () =
  let points = List.map (fun n -> (float_of_int n, float_of_int (n * n * n))) [ 2; 4; 8; 16 ] in
  Alcotest.(check (float 1e-9)) "cubic" 3. (Gate_model.fit_exponent points);
  let noisy = List.map (fun n -> (float_of_int n, 5. *. (float_of_int n ** 2.5))) [ 2; 4; 8 ] in
  Alcotest.(check (float 1e-9)) "2.5 with constant" 2.5 (Gate_model.fit_exponent noisy);
  try
    ignore (Gate_model.fit_exponent [ (2., 4.) ]);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "tcmm_core"
    [
      ( "level_schedule",
        [
          Alcotest.test_case "of_levels validation" `Quick test_schedule_of_levels_validation;
          Alcotest.test_case "shapes" `Quick test_schedule_shapes;
          Alcotest.test_case "height" `Quick test_schedule_height;
          Alcotest.test_case "geometric" `Quick test_schedule_geometric;
          Alcotest.test_case "theorem 4.4" `Quick test_schedule_theorem44;
          Alcotest.test_case "theorem 4.5" `Quick test_schedule_theorem45;
          Alcotest.test_case "thm45 other profiles" `Quick
            test_schedule_theorem45_winograd_and_naive;
        ] );
      ( "encode",
        [
          Alcotest.test_case "unsigned roundtrip" `Quick test_encode_roundtrip_unsigned;
          Alcotest.test_case "signed roundtrip" `Quick test_encode_roundtrip_signed;
          Alcotest.test_case "transposed grid" `Quick test_encode_transposed_grid;
          Alcotest.test_case "rejections" `Quick test_encode_rejections;
        ] );
      ( "sum_tree",
        [
          Alcotest.test_case "strassen full" `Quick test_sum_tree_strassen_full;
          Alcotest.test_case "strassen direct" `Quick test_sum_tree_strassen_direct;
          Alcotest.test_case "strassen B side" `Quick test_sum_tree_strassen_b_side;
          Alcotest.test_case "W side transposed" `Quick test_sum_tree_w_side_transposed;
          Alcotest.test_case "uniform n=8" `Quick test_sum_tree_uniform_8;
          Alcotest.test_case "naive-3" `Quick test_sum_tree_naive3;
          Alcotest.test_case "winograd" `Quick test_sum_tree_winograd;
          Alcotest.test_case "depth" `Quick test_sum_tree_depth;
          Alcotest.test_case "bad input size" `Quick test_sum_tree_rejects_bad_input;
          Alcotest.test_case "bad coeffs" `Quick test_sum_tree_rejects_bad_coeffs;
          Alcotest.test_case "figure 1 leaf sums" `Quick test_reference_leaves_strassen_2x2;
        ] );
      ( "combine_tree",
        [
          Alcotest.test_case "reference recovers product" `Quick
            test_reference_combine_recovers_product;
          Alcotest.test_case "wrong leaf count" `Quick test_combine_rejects_wrong_leaf_count;
        ] );
      ( "trace_circuit",
        [
          Alcotest.test_case "exhaustive 2x2 binary" `Quick test_trace_exhaustive_2x2_binary;
          Alcotest.test_case "strassen 4" `Quick test_trace_strassen_4;
          Alcotest.test_case "strassen 4 signed" `Quick test_trace_strassen_4_signed;
          Alcotest.test_case "winograd 4" `Quick test_trace_winograd_4;
          Alcotest.test_case "naive2 4" `Quick test_trace_naive2_4;
          Alcotest.test_case "strassen 8 thm45" `Quick test_trace_strassen_8_thm45;
          Alcotest.test_case "strassen^2" `Quick test_trace_strassen_squared_16;
          Alcotest.test_case "depth 2t+2" `Quick test_trace_depth_formula;
          Alcotest.test_case "depth <= 2d+5" `Quick test_trace_depth_within_paper_bound;
          Alcotest.test_case "count-only matches" `Quick test_trace_count_only_matches;
          Alcotest.test_case "tau extremes" `Quick test_trace_tau_extremes;
          Alcotest.test_case "value output" `Quick test_trace_value_output;
          Alcotest.test_case "staged variant" `Quick test_trace_staged_matches_reference;
          Alcotest.test_case "staged leaves" `Quick test_staged_leaves_match_reference;
        ] );
      ( "matmul_circuit",
        [
          Alcotest.test_case "strassen 2" `Quick test_matmul_strassen_2;
          Alcotest.test_case "strassen 4 full" `Quick test_matmul_strassen_4_full;
          Alcotest.test_case "strassen 4 direct" `Quick test_matmul_strassen_4_direct;
          Alcotest.test_case "winograd 4" `Quick test_matmul_winograd_4;
          Alcotest.test_case "naive2 4" `Quick test_matmul_naive2_4;
          Alcotest.test_case "naive3 9" `Quick test_matmul_naive3_9;
          Alcotest.test_case "strassen 8 uniform" `Quick test_matmul_strassen_8_uniform;
          Alcotest.test_case "strassen^2 4" `Quick test_matmul_strassen_squared_4;
          Alcotest.test_case "depth 4t+1" `Quick test_matmul_depth_formula;
          Alcotest.test_case "depth <= 4d+1" `Quick test_matmul_depth_within_paper_bound;
          Alcotest.test_case "zero matrices" `Quick test_matmul_zero_matrices;
          Alcotest.test_case "identity" `Quick test_matmul_identity;
        ] );
      ( "tiled_matmul",
        [
          Alcotest.test_case "round_up" `Quick test_tiled_round_up;
          Alcotest.test_case "square" `Quick test_tiled_square;
          Alcotest.test_case "rectangular" `Quick test_tiled_rectangular;
          Alcotest.test_case "tall-thin" `Quick test_tiled_tall_thin;
          Alcotest.test_case "single block" `Quick test_tiled_single_block;
          Alcotest.test_case "bounds fan-in" `Quick test_tiled_bounds_fan_in;
          Alcotest.test_case "rejects unaligned" `Quick test_tiled_rejects_unaligned;
        ] );
      ( "naive_circuits",
        [
          Alcotest.test_case "triangle known graphs" `Quick test_naive_triangle_known_graphs;
          Alcotest.test_case "triangle vs reference" `Quick
            test_naive_triangle_matches_reference;
          Alcotest.test_case "triangle size/depth" `Quick test_naive_triangle_size_and_depth;
          Alcotest.test_case "triangle bad matrix" `Quick test_naive_triangle_rejects_bad_matrix;
          Alcotest.test_case "trace vs reference" `Quick test_naive_trace_matches_reference;
          Alcotest.test_case "matmul vs reference" `Quick test_naive_matmul_matches;
        ] );
      ( "gate_count",
        [
          Alcotest.test_case "trace schedules" `Quick test_gate_count_trace_strassen_schedules;
          Alcotest.test_case "trace variants" `Quick test_gate_count_trace_variants;
          Alcotest.test_case "sum tree" `Quick test_gate_count_sum_tree_matches;
          Alcotest.test_case "share_top matches" `Quick test_gate_count_share_top_matches;
          Alcotest.test_case "matmul schedules" `Quick test_gate_count_matmul_schedules;
          Alcotest.test_case "matmul variants" `Quick test_gate_count_matmul_variants;
          Alcotest.test_case "matmul rejects" `Quick test_gate_count_matmul_rejects;
          Alcotest.test_case "share_top circuits correct" `Quick
            test_share_top_circuits_correct;
          Alcotest.test_case "rejects non-unit coeffs" `Quick
            test_gate_count_rejects_non_unit_coeffs;
          Alcotest.test_case "rejects mismatched n" `Quick test_gate_count_rejects_mismatched_n;
          Alcotest.test_case "naive closed forms" `Quick test_naive_counts_formulas;
        ] );
      ( "gate_model",
        [
          Alcotest.test_case "exponent limits" `Quick test_exponent_limits;
          Alcotest.test_case "depth formulas" `Quick test_depth_formulas;
          Alcotest.test_case "sum slots" `Quick test_sum_slots_hand_computed;
          Alcotest.test_case "leaf products" `Quick test_leaf_products;
          Alcotest.test_case "fit exponent" `Quick test_fit_exponent_recovers_slope;
        ] );
    ]
