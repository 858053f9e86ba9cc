open Tcmm_fastmm
module S = Tcmm_test_support.Support
module Prng = Tcmm_util.Prng

(* ------------------------------------------------------------------ *)
(* Matrix                                                             *)
(* ------------------------------------------------------------------ *)

let test_matrix_create_get_set () =
  let m = Matrix.create ~rows:2 ~cols:3 in
  S.check_int "zeroed" 0 (Matrix.get m 1 2);
  Matrix.set m 1 2 7;
  S.check_int "set/get" 7 (Matrix.get m 1 2);
  S.check_int "rows" 2 (Matrix.rows m);
  S.check_int "cols" 3 (Matrix.cols m);
  (try
     ignore (Matrix.get m 2 0);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  try
    ignore (Matrix.create ~rows:0 ~cols:1);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_matrix_of_rows () =
  let m = Matrix.of_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  S.check_int "entry" 3 (Matrix.get m 1 0);
  Alcotest.(check (array (array int))) "round trip" [| [| 1; 2 |]; [| 3; 4 |] |] (Matrix.to_rows m);
  try
    ignore (Matrix.of_rows [| [| 1 |]; [| 1; 2 |] |]);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_matrix_add_sub_scale () =
  let a = Matrix.of_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  let b = Matrix.of_rows [| [| 5; 6 |]; [| 7; 8 |] |] in
  S.check_bool "add" true
    (Matrix.equal (Matrix.add a b) (Matrix.of_rows [| [| 6; 8 |]; [| 10; 12 |] |]));
  S.check_bool "sub" true
    (Matrix.equal (Matrix.sub b a) (Matrix.of_rows [| [| 4; 4 |]; [| 4; 4 |] |]));
  S.check_bool "scale" true
    (Matrix.equal (Matrix.scale (-2) a) (Matrix.of_rows [| [| -2; -4 |]; [| -6; -8 |] |]))

let test_matrix_mul_identity_assoc () =
  let rng = Prng.create ~seed:1 in
  let a = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-5) ~hi:5 in
  let b = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-5) ~hi:5 in
  let c = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-5) ~hi:5 in
  S.check_bool "I*a = a" true (Matrix.equal (Matrix.mul (Matrix.identity 4) a) a);
  S.check_bool "a*I = a" true (Matrix.equal (Matrix.mul a (Matrix.identity 4)) a);
  S.check_bool "assoc" true
    (Matrix.equal (Matrix.mul (Matrix.mul a b) c) (Matrix.mul a (Matrix.mul b c)))

let test_matrix_mul_known () =
  let a = Matrix.of_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  let b = Matrix.of_rows [| [| 5; 6 |]; [| 7; 8 |] |] in
  S.check_bool "2x2 product" true
    (Matrix.equal (Matrix.mul a b) (Matrix.of_rows [| [| 19; 22 |]; [| 43; 50 |] |]))

let test_matrix_mul_rectangular () =
  let a = Matrix.of_rows [| [| 1; 2; 3 |] |] in
  let b = Matrix.of_rows [| [| 4 |]; [| 5 |]; [| 6 |] |] in
  S.check_int "1x3 * 3x1" 32 (Matrix.get (Matrix.mul a b) 0 0);
  try
    ignore (Matrix.mul a a);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_matrix_transpose_trace_pow () =
  let a = Matrix.of_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  S.check_bool "transpose" true
    (Matrix.equal (Matrix.transpose a) (Matrix.of_rows [| [| 1; 3 |]; [| 2; 4 |] |]));
  S.check_int "trace" 5 (Matrix.trace a);
  S.check_bool "pow 0" true (Matrix.equal (Matrix.pow a 0) (Matrix.identity 2));
  S.check_bool "pow 3" true
    (Matrix.equal (Matrix.pow a 3) (Matrix.mul a (Matrix.mul a a)));
  try
    ignore (Matrix.trace (Matrix.create ~rows:1 ~cols:2));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_matrix_blocks () =
  let m = Matrix.init ~rows:4 ~cols:4 (fun i j -> (10 * i) + j) in
  let blk = Matrix.sub_block m ~row:2 ~col:1 ~rows:2 ~cols:2 in
  S.check_bool "sub_block" true
    (Matrix.equal blk (Matrix.of_rows [| [| 21; 22 |]; [| 31; 32 |] |]));
  let dst = Matrix.create ~rows:4 ~cols:4 in
  Matrix.blit_block ~src:blk ~dst ~row:0 ~col:2;
  S.check_int "blitted" 32 (Matrix.get dst 1 3);
  S.check_int "untouched" 0 (Matrix.get dst 3 3)

let test_matrix_max_abs () =
  S.check_int "max abs" 9
    (Matrix.max_abs (Matrix.of_rows [| [| -9; 2 |]; [| 3; 4 |] |]))

let prop_mul_distributes =
  S.qcheck_case ~count:50 "a(b+c) = ab + ac"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let m () = Matrix.random rng ~rows:3 ~cols:3 ~lo:(-8) ~hi:8 in
      let a = m () and b = m () and c = m () in
      Matrix.equal (Matrix.mul a (Matrix.add b c)) (Matrix.add (Matrix.mul a b) (Matrix.mul a c)))

(* ------------------------------------------------------------------ *)
(* Bilinear + instances                                               *)
(* ------------------------------------------------------------------ *)

let test_all_instances_exact () =
  List.iter
    (fun algo ->
      S.check_bool (algo.Bilinear.name ^ " satisfies Brent's equations") true
        (Verify.exact algo))
    (Instances.all ())

let test_all_instances_random_check () =
  let rng = Prng.create ~seed:7 in
  List.iter
    (fun algo ->
      S.check_bool (algo.Bilinear.name ^ " random check") true
        (Verify.random_check rng algo))
    (Instances.all ())

let test_defective_algorithm_detected () =
  (* Corrupt one Strassen coefficient: the verifier must notice. *)
  let s = Instances.strassen in
  let u = Array.map Array.copy s.Bilinear.u in
  u.(0).(0) <- -1;
  let bad = Bilinear.make ~name:"bad" ~t_dim:2 ~u ~v:s.Bilinear.v ~w:s.Bilinear.w in
  S.check_bool "defects found" true (Verify.defects bad <> []);
  S.check_bool "not exact" false (Verify.exact bad)

let test_strassen_shape () =
  let s = Instances.strassen in
  S.check_int "T" 2 s.Bilinear.t_dim;
  S.check_int "r" 7 s.Bilinear.rank;
  Alcotest.(check (float 1e-6)) "omega" (log 7. /. log 2.) (Bilinear.omega s)

let test_naive_shape () =
  let n3 = Instances.naive ~t_dim:3 in
  S.check_int "r = 27" 27 n3.Bilinear.rank;
  Alcotest.(check (float 1e-9)) "omega = 3" 3. (Bilinear.omega n3)

let test_apply_once_matches_mul () =
  let rng = Prng.create ~seed:3 in
  List.iter
    (fun algo ->
      let n = 2 * algo.Bilinear.t_dim in
      let a = Matrix.random rng ~rows:n ~cols:n ~lo:(-6) ~hi:6 in
      let b = Matrix.random rng ~rows:n ~cols:n ~lo:(-6) ~hi:6 in
      S.check_bool (algo.Bilinear.name ^ " apply_once") true
        (Matrix.equal (Bilinear.apply_once algo a b) (Matrix.mul a b)))
    (Instances.all ())

let test_multiply_recursive () =
  let rng = Prng.create ~seed:4 in
  List.iter
    (fun (algo, n) ->
      let a = Matrix.random rng ~rows:n ~cols:n ~lo:(-5) ~hi:5 in
      let b = Matrix.random rng ~rows:n ~cols:n ~lo:(-5) ~hi:5 in
      S.check_bool
        (Printf.sprintf "%s recursive n=%d" algo.Bilinear.name n)
        true
        (Matrix.equal (Bilinear.multiply algo a b) (Matrix.mul a b)))
    [
      (Instances.strassen, 8);
      (Instances.strassen, 16);
      (Instances.winograd, 8);
      (Instances.naive ~t_dim:3, 9);
      (Instances.strassen_squared, 16);
    ]

let test_multiply_cutoff () =
  let rng = Prng.create ~seed:5 in
  let a = Matrix.random rng ~rows:16 ~cols:16 ~lo:(-4) ~hi:4 in
  let b = Matrix.random rng ~rows:16 ~cols:16 ~lo:(-4) ~hi:4 in
  let expect = Matrix.mul a b in
  List.iter
    (fun cutoff ->
      S.check_bool
        (Printf.sprintf "cutoff %d" cutoff)
        true
        (Matrix.equal (Bilinear.multiply ~cutoff Instances.strassen a b) expect))
    [ 1; 2; 4; 8; 16 ]

let test_multiply_rejects_bad_size () =
  let a = Matrix.create ~rows:6 ~cols:6 in
  try
    ignore (Bilinear.multiply Instances.strassen a a);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_scalar_multiplications () =
  (* Strassen on 8x8 with cutoff 1: 7^3 = 343 scalar products. *)
  S.check_int "7^3" 343
    (Bilinear.scalar_multiplications Instances.strassen ~n:8 ~cutoff:1);
  (* Cutoff 2: 7^2 * 2^3 = 392. *)
  S.check_int "7^2*8" 392
    (Bilinear.scalar_multiplications Instances.strassen ~n:8 ~cutoff:2);
  (* Naive 2: 8^3 * 1 = 512 at cutoff 1. *)
  S.check_int "naive cubed" 512
    (Bilinear.scalar_multiplications (Instances.naive ~t_dim:2) ~n:8 ~cutoff:1)

let test_block_index_roundtrip () =
  let s = Instances.strassen in
  for p = 0 to 1 do
    for q = 0 to 1 do
      let j = Bilinear.block_index s p q in
      Alcotest.(check (pair int int)) "roundtrip" (p, q) (Bilinear.block_pos s j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Tensor                                                             *)
(* ------------------------------------------------------------------ *)

let test_tensor_shapes () =
  let sq = Instances.strassen_squared in
  S.check_int "T = 4" 4 sq.Bilinear.t_dim;
  S.check_int "r = 49" 49 sq.Bilinear.rank;
  Alcotest.(check (float 1e-9)) "same omega" (Bilinear.omega Instances.strassen)
    (Bilinear.omega sq)

let test_tensor_mixed_exact () =
  let mixed = Tensor.product ~name:"strassen x naive2" Instances.strassen (Instances.naive ~t_dim:2) in
  S.check_int "T" 4 mixed.Bilinear.t_dim;
  S.check_int "r" 56 mixed.Bilinear.rank;
  S.check_bool "exact" true (Verify.exact mixed)

let test_tensor_power () =
  let cube = Tensor.power ~name:"strassen^3" Instances.strassen 3 in
  S.check_int "T = 8" 8 cube.Bilinear.t_dim;
  S.check_int "r = 343" 343 cube.Bilinear.rank;
  S.check_bool "exact" true (Verify.exact cube);
  try
    ignore (Tensor.power ~name:"zero" Instances.strassen 0);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_laderman_shape () =
  let l = Instances.laderman in
  S.check_int "T = 3" 3 l.Bilinear.t_dim;
  S.check_int "r = 23" 23 l.Bilinear.rank;
  let p = Sparsity.analyze l in
  S.check_int "s_A = 51" 51 p.Sparsity.a.Sparsity.total;
  S.check_int "s_B = 51" 51 p.Sparsity.b.Sparsity.total;
  S.check_int "s_C = 51" 51 p.Sparsity.c.Sparsity.total;
  (* omega = log_3 23 ~ 2.854: subcubic, strictly between naive-3 and
     Strassen. *)
  let omega = Bilinear.omega l in
  S.check_bool "omega < 3" true (omega < 3.0);
  S.check_bool "omega > strassen's" true (omega > Bilinear.omega Instances.strassen)

let test_strassen_squared_is_generic_kronecker () =
  (* Regression for the PR that replaced the bespoke strassen^2 tables
     with Bilinear.kronecker: the generic construction and Tensor.product
     must agree coefficient-for-coefficient. *)
  let sq = Instances.strassen_squared in
  let via_tensor =
    Tensor.product ~name:sq.Bilinear.name Instances.strassen Instances.strassen
  in
  S.check_int "same T" via_tensor.Bilinear.t_dim sq.Bilinear.t_dim;
  S.check_int "same rank" via_tensor.Bilinear.rank sq.Bilinear.rank;
  Alcotest.(check (array (array int))) "same u" via_tensor.Bilinear.u sq.Bilinear.u;
  Alcotest.(check (array (array int))) "same v" via_tensor.Bilinear.v sq.Bilinear.v;
  Alcotest.(check (array (array int))) "same w" via_tensor.Bilinear.w sq.Bilinear.w

(* ------------------------------------------------------------------ *)
(* Sparsity                                                           *)
(* ------------------------------------------------------------------ *)

let test_strassen_sparsity_paper_constants () =
  let p = Sparsity.analyze Instances.strassen in
  S.check_int "s_A = 12" 12 p.Sparsity.a.Sparsity.total;
  S.check_int "s_B = 12" 12 p.Sparsity.b.Sparsity.total;
  S.check_int "s_C = 12" 12 p.Sparsity.c.Sparsity.total;
  S.check_int "s = 12" 12 p.Sparsity.sparsity;
  (* Paper, Section 4.3: alpha = 7/12, beta = 3; gamma ~ 0.491;
     Theorem 4.5: c ~ 1.585.  Appendix: c'_j = 4, 2, 2, 4. *)
  Alcotest.(check (float 1e-9)) "alpha" (7. /. 12.) p.Sparsity.overall.Sparsity.alpha;
  Alcotest.(check (float 1e-9)) "beta" 3. p.Sparsity.overall.Sparsity.beta;
  Alcotest.(check (float 1e-3)) "gamma ~ 0.491" 0.491 p.Sparsity.overall.Sparsity.gamma;
  Alcotest.(check (float 1e-3)) "c ~ 1.585" 1.585 p.Sparsity.c_const;
  Alcotest.(check (array int)) "c'_j" [| 4; 2; 2; 4 |] p.Sparsity.c_prime

let test_strassen_per_multiplication_counts () =
  let p = Sparsity.analyze Instances.strassen in
  (* From Figure 1: a_i = 1,2,2,1,2,2,2 and b_i = 2,1,2,2,1,2,2. *)
  Alcotest.(check (array int)) "a_i" [| 1; 2; 2; 1; 2; 2; 2 |] p.Sparsity.a.Sparsity.counts;
  Alcotest.(check (array int)) "b_i" [| 2; 1; 2; 2; 1; 2; 2 |] p.Sparsity.b.Sparsity.counts;
  (* c_i: how many C-expressions mention M_i: M1:2 M2:2 M3:2 M4:2 M5:2 M6:1 M7:1. *)
  Alcotest.(check (array int)) "c_i" [| 2; 2; 2; 2; 2; 1; 1 |] p.Sparsity.c.Sparsity.counts

let test_winograd_sparsity_worse () =
  let s = Sparsity.analyze Instances.strassen in
  let w = Sparsity.analyze Instances.winograd in
  S.check_bool "winograd sparser... no: larger s" true
    (w.Sparsity.sparsity > s.Sparsity.sparsity);
  S.check_bool "winograd larger gamma" true
    (w.Sparsity.overall.Sparsity.gamma > s.Sparsity.overall.Sparsity.gamma)

let test_naive_sparsity_degenerate () =
  let p = Sparsity.analyze (Instances.naive ~t_dim:2) in
  Alcotest.(check (float 1e-9)) "alpha = 1" 1. p.Sparsity.overall.Sparsity.alpha;
  Alcotest.(check (float 1e-9)) "gamma = 0" 0. p.Sparsity.overall.Sparsity.gamma

let test_tensor_square_sparsity_squares () =
  let s = Sparsity.analyze Instances.strassen in
  let sq = Sparsity.analyze Instances.strassen_squared in
  (* Sparsity multiplies under tensor product: 12^2 = 144; gamma is
     preserved because both alpha and beta square. *)
  S.check_int "s squared" (12 * 12) sq.Sparsity.sparsity;
  Alcotest.(check (float 1e-9)) "same gamma" s.Sparsity.overall.Sparsity.gamma
    sq.Sparsity.overall.Sparsity.gamma

let test_sparsity_rejects_r_le_t2 () =
  try
    ignore (Sparsity.analyze (Instances.naive ~t_dim:1));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let prop_tensor_product_correct_and_multiplicative =
  S.qcheck_case ~count:20 "tensor products verify; sparsity multiplies"
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 2))
    (fun (i, j) ->
      let base = [| Instances.strassen; Instances.winograd; Instances.naive ~t_dim:2 |] in
      let a = base.(i) and b = base.(j) in
      let prod = Tensor.product ~name:"p" a b in
      let ok_exact = Verify.exact prod in
      let sp p =
        match Sparsity.analyze p with
        | profile -> Some profile.Sparsity.sparsity
        | exception Invalid_argument _ -> None
      in
      let ok_sparsity =
        match (sp a, sp b, sp prod) with
        | Some sa, Some sb, Some sp -> sp = sa * sb
        | _ -> true (* naive factors can make r <= T^2 analyses unavailable *)
      in
      ok_exact && ok_sparsity)

let prop_recursive_multiply_random =
  S.qcheck_case ~count:30 "recursive fast multiply = naive multiply"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 2))
    (fun (seed, pick) ->
      let rng = Prng.create ~seed in
      let algo = [| Instances.strassen; Instances.winograd; Instances.naive ~t_dim:2 |].(pick) in
      let l = 1 + Prng.int rng ~bound:3 in
      let n = 1 lsl l in
      let a = Matrix.random rng ~rows:n ~cols:n ~lo:(-9) ~hi:9 in
      let b = Matrix.random rng ~rows:n ~cols:n ~lo:(-9) ~hi:9 in
      let cutoff = 1 lsl Prng.int rng ~bound:(l + 1) in
      Matrix.equal (Bilinear.multiply ~cutoff algo a b) (Matrix.mul a b))

let prop_trace_of_product_cyclic =
  S.qcheck_case ~count:30 "trace(AB) = trace(BA)"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + Prng.int rng ~bound:5 in
      let a = Matrix.random rng ~rows:n ~cols:n ~lo:(-9) ~hi:9 in
      let b = Matrix.random rng ~rows:n ~cols:n ~lo:(-9) ~hi:9 in
      Matrix.trace (Matrix.mul a b) = Matrix.trace (Matrix.mul b a))

(* ------------------------------------------------------------------ *)
(* Orbit                                                              *)
(* ------------------------------------------------------------------ *)

let identity2 = [| [| 1; 0 |]; [| 0; 1 |] |]

let test_orbit_unimodular_set () =
  let mats = Orbit.unimodular_2x2 () in
  S.check_int "40 small unimodular matrices" 40 (List.length mats);
  List.iter
    (fun m ->
      let det = (m.(0).(0) * m.(1).(1)) - (m.(0).(1) * m.(1).(0)) in
      S.check_bool "det +-1" true (det = 1 || det = -1))
    mats

let test_orbit_identity_transform () =
  let t = Orbit.transform Instances.strassen ~x:identity2 ~y:identity2 ~z:identity2 in
  Alcotest.(check (array (array int))) "u unchanged" Instances.strassen.Bilinear.u t.Bilinear.u;
  Alcotest.(check (array (array int))) "v unchanged" Instances.strassen.Bilinear.v t.Bilinear.v;
  Alcotest.(check (array (array int))) "w unchanged" Instances.strassen.Bilinear.w t.Bilinear.w

let prop_orbit_transforms_verify =
  S.qcheck_case ~count:50 "sandwiched algorithms satisfy Brent's equations"
    QCheck2.Gen.(triple (int_range 0 39) (int_range 0 39) (int_range 0 39))
    (fun (i, j, k) ->
      let mats = Array.of_list (Orbit.unimodular_2x2 ()) in
      let t =
        Orbit.transform Instances.strassen ~x:mats.(i) ~y:mats.(j) ~z:mats.(k)
      in
      Verify.exact t)

let test_orbit_search_strassen_sample () =
  (* A bounded search must find nothing below 12 (the full search in the
     E15 bench confirms optimality over the whole orbit). *)
  let r = Orbit.search ~limit:2000 Instances.strassen in
  S.check_int "tried" 2000 r.Orbit.triples_tried;
  S.check_int "sparsity stays 12" 12 r.Orbit.sparsity;
  S.check_bool "not better" false r.Orbit.better_than_start;
  S.check_bool "result verifies" true (Verify.exact r.Orbit.algorithm)

let test_orbit_search_rejects_non_2x2 () =
  try
    ignore (Orbit.search (Instances.naive ~t_dim:3));
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_orbit_transformed_circuits_work () =
  (* A transformed algorithm must drive the circuit compiler unchanged. *)
  let mats = Array.of_list (Orbit.unimodular_2x2 ()) in
  let algo = Orbit.transform Instances.strassen ~x:mats.(7) ~y:mats.(13) ~z:mats.(29) in
  let rng = Prng.create ~seed:55 in
  let a = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
  let b = Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
  S.check_bool "recursive multiply" true
    (Matrix.equal (Bilinear.multiply algo a b) (Matrix.mul a b))

let () =
  Alcotest.run "tcmm_fastmm"
    [
      ( "matrix",
        [
          Alcotest.test_case "create/get/set" `Quick test_matrix_create_get_set;
          Alcotest.test_case "of_rows" `Quick test_matrix_of_rows;
          Alcotest.test_case "add/sub/scale" `Quick test_matrix_add_sub_scale;
          Alcotest.test_case "identity/assoc" `Quick test_matrix_mul_identity_assoc;
          Alcotest.test_case "known product" `Quick test_matrix_mul_known;
          Alcotest.test_case "rectangular" `Quick test_matrix_mul_rectangular;
          Alcotest.test_case "transpose/trace/pow" `Quick test_matrix_transpose_trace_pow;
          Alcotest.test_case "blocks" `Quick test_matrix_blocks;
          Alcotest.test_case "max_abs" `Quick test_matrix_max_abs;
          prop_mul_distributes;
        ] );
      ( "bilinear",
        [
          Alcotest.test_case "all instances exact" `Quick test_all_instances_exact;
          Alcotest.test_case "all instances random" `Quick test_all_instances_random_check;
          Alcotest.test_case "defect detection" `Quick test_defective_algorithm_detected;
          Alcotest.test_case "strassen shape" `Quick test_strassen_shape;
          Alcotest.test_case "naive shape" `Quick test_naive_shape;
          Alcotest.test_case "apply_once" `Quick test_apply_once_matches_mul;
          Alcotest.test_case "recursive multiply" `Quick test_multiply_recursive;
          Alcotest.test_case "cutoffs" `Quick test_multiply_cutoff;
          Alcotest.test_case "bad size" `Quick test_multiply_rejects_bad_size;
          Alcotest.test_case "scalar mult count" `Quick test_scalar_multiplications;
          Alcotest.test_case "block index" `Quick test_block_index_roundtrip;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "shapes" `Quick test_tensor_shapes;
          Alcotest.test_case "mixed product" `Quick test_tensor_mixed_exact;
          Alcotest.test_case "power" `Quick test_tensor_power;
          Alcotest.test_case "laderman shape" `Quick test_laderman_shape;
          Alcotest.test_case "strassen^2 = generic kronecker" `Quick
            test_strassen_squared_is_generic_kronecker;
        ] );
      ( "properties",
        [
          prop_tensor_product_correct_and_multiplicative;
          prop_recursive_multiply_random;
          prop_trace_of_product_cyclic;
        ] );
      ( "orbit",
        [
          Alcotest.test_case "unimodular set" `Quick test_orbit_unimodular_set;
          Alcotest.test_case "identity transform" `Quick test_orbit_identity_transform;
          prop_orbit_transforms_verify;
          Alcotest.test_case "search sample" `Quick test_orbit_search_strassen_sample;
          Alcotest.test_case "rejects non-2x2" `Quick test_orbit_search_rejects_non_2x2;
          Alcotest.test_case "transformed circuits" `Quick test_orbit_transformed_circuits_work;
        ] );
      ( "sparsity",
        [
          Alcotest.test_case "strassen paper constants" `Quick
            test_strassen_sparsity_paper_constants;
          Alcotest.test_case "strassen per-M counts" `Quick
            test_strassen_per_multiplication_counts;
          Alcotest.test_case "winograd worse" `Quick test_winograd_sparsity_worse;
          Alcotest.test_case "naive degenerate" `Quick test_naive_sparsity_degenerate;
          Alcotest.test_case "tensor square" `Quick test_tensor_square_sparsity_squares;
          Alcotest.test_case "rejects r <= T^2" `Quick test_sparsity_rejects_r_le_t2;
        ] );
    ]
