(* The experiment tables E1..E10 (see DESIGN.md and EXPERIMENTS.md).

   Every table prints the exact quantity the corresponding paper claim is
   about; EXPERIMENTS.md records paper-vs-measured for each. *)

module F = Tcmm_fastmm
module T = Tcmm
module G = Tcmm_graph
module C = Tcmm_convnet
module Tb = Tcmm_util.Tablefmt
module Stats = Tcmm_threshold.Stats
module Builder = Tcmm_threshold.Builder

let strassen = F.Instances.strassen
let profile = F.Sparsity.analyze strassen

let analyzable_algos () =
  List.filter_map
    (fun algo ->
      match F.Sparsity.analyze algo with
      | p -> Some (algo, p)
      | exception Invalid_argument _ -> None)
    (F.Instances.all ())

(* ------------------------------------------------------------------ *)

let e1 () =
  Bench_util.header
    "E1: algorithm parameter table (Definition 2.1; paper Sec. 2.1/4.3 constants)";
  let rows =
    List.map
      (fun ((algo : F.Bilinear.t), (p : F.Sparsity.profile)) ->
        [
          Tb.Str algo.F.Bilinear.name;
          Tb.Int algo.F.Bilinear.t_dim;
          Tb.Int algo.F.Bilinear.rank;
          Tb.Float p.F.Sparsity.omega;
          Tb.Int p.F.Sparsity.a.F.Sparsity.total;
          Tb.Int p.F.Sparsity.b.F.Sparsity.total;
          Tb.Int p.F.Sparsity.c.F.Sparsity.total;
          Tb.Float p.F.Sparsity.overall.F.Sparsity.alpha;
          Tb.Float p.F.Sparsity.overall.F.Sparsity.beta;
          Tb.Float p.F.Sparsity.overall.F.Sparsity.gamma;
          Tb.Float p.F.Sparsity.c_const;
          Tb.Str
            (String.concat ","
               (Array.to_list (Array.map string_of_int p.F.Sparsity.c_prime)));
        ])
      (analyzable_algos ())
  in
  Tb.print ~title:"sparsity profiles (all verified against Brent's equations)"
    ~header:
      [ "algorithm"; "T"; "r"; "omega"; "s_A"; "s_B"; "s_C"; "alpha"; "beta"; "gamma"; "c"; "c'_j" ]
    ~rows;
  Printf.printf
    "paper values for Strassen: alpha=7/12=0.5833, beta=3, gamma~0.491, c~1.585, \
     c'=(4,2,2,4)\n"

(* ------------------------------------------------------------------ *)

let trace_gates ?(entry_bits = 1) ~algo ~schedule ~n () =
  (T.Gate_count.trace ~algo ~schedule ~entry_bits ~n ()).T.Gate_count.gates

(* The paper's input regime: O(log N)-bit entries. *)
let log_bits n = max 1 (Tcmm_util.Ilog.ceil_log2 n)

let e2 () =
  Bench_util.header
    "E2: trace(A^3)>=tau exact gate counts vs the naive depth-2 circuit (Thm 4.5 vs Sec. 1)";
  let ds = [ 2; 4; 6; 8 ] in
  let ns = [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 ] in
  let rows =
    List.filter_map
      (fun n ->
        let b = log_bits n in
        match
          let naive = fst (T.Naive_circuits.trace_counts ~entry_bits:b ~n ()) in
          let ours =
            List.map
              (fun d ->
                let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
                trace_gates ~entry_bits:b ~algo:strassen ~schedule ~n ())
              ds
          in
          (naive, ours)
        with
        | naive, ours ->
            let best = List.fold_left min max_int ours in
            Some
              (Tb.Int n :: Tb.Int b :: Tb.Int naive
              :: (List.map (fun g -> Tb.Int g) ours
                 @ [ Tb.Ratio (float_of_int naive /. float_of_int best) ]))
        | exception Tcmm_util.Checked.Overflow _ -> None)
      ns
  in
  Tb.print
    ~title:
      "exact gate counts, log2(N)-bit entries — the paper's regime (naive = N^3*b^3+1 \
       gates at depth 2; ours = Thm 4.5 schedules)"
    ~header:[ "N"; "bits"; "naive"; "d=2"; "d=4"; "d=6"; "d=8"; "naive/best" ]
    ~rows;
  Printf.printf
    "claim (Sec. 1): for d > 3 the circuit has O(N^(3-eps)) gates, so naive/best must \
     grow once N is large enough; the crossover itself sits beyond this table — see the \
     extrapolation in E4.\n"

(* ------------------------------------------------------------------ *)

let e3 () =
  Bench_util.header "E3: measured depth vs the paper's bounds (Thm 4.5: 2d+5; Thm 4.9: 4d+1)";
  let n = 32 in
  let rows =
    List.map
      (fun d ->
        let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
        let trace =
          T.Trace_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
            ~entry_bits:1 ~tau:1 ~n ()
        in
        let matmul =
          T.Matmul_circuit.build ~mode:Builder.Count_only ~algo:strassen ~schedule
            ~entry_bits:1 ~n ()
        in
        let td = (T.Trace_circuit.stats trace).Stats.depth in
        let md = (T.Matmul_circuit.stats matmul).Stats.depth in
        [
          Tb.Int d;
          Tb.Int (T.Level_schedule.steps schedule);
          Tb.Int td;
          Tb.Int (T.Gate_model.trace_depth_bound ~d);
          Tb.Str (if td <= T.Gate_model.trace_depth_bound ~d then "ok" else "VIOLATED");
          Tb.Int md;
          Tb.Int (T.Gate_model.matmul_depth_bound ~d);
          Tb.Str (if md <= T.Gate_model.matmul_depth_bound ~d then "ok" else "VIOLATED");
        ])
      [ 1; 2; 3; 4 ]
  in
  Tb.print ~title:(Printf.sprintf "depths at N=%d (count-only builds)" n)
    ~header:
      [ "d"; "levels t"; "trace depth"; "2d+5"; "trace"; "matmul depth"; "4d+1"; "matmul" ]
    ~rows

(* ------------------------------------------------------------------ *)

let e4 () =
  Bench_util.header
    "E4: empirical gate-count exponent vs predicted omega + c*gamma^d (Thm 4.5)";
  let ns = [ 256; 512; 1024; 2048; 4096 ] in
  let polylog n = log (float_of_int n) ** 3. in
  let fits d =
    let points =
      List.map
        (fun n ->
          let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
          (float_of_int n, float_of_int (trace_gates ~algo:strassen ~schedule ~n ())))
        ns
    in
    let raw = T.Gate_model.fit_exponent points in
    let adjusted =
      T.Gate_model.fit_exponent
        (List.map (fun (n, g) -> (n, g /. polylog (int_of_float n))) points)
    in
    (raw, adjusted)
  in
  let rows =
    List.map
      (fun d ->
        let raw, adjusted = fits d in
        let predicted = T.Gate_model.exponent profile ~d in
        [
          Tb.Int d;
          Tb.Float raw;
          Tb.Float adjusted;
          Tb.Float predicted;
          Tb.Float (adjusted -. predicted);
        ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  let naive_points =
    List.map
      (fun n ->
        (float_of_int n, float_of_int (fst (T.Naive_circuits.trace_counts ~entry_bits:1 ~n ()))))
      ns
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "log-log slope of exact gate counts, N in {256..4096}, binary entries (naive \
          slope: %.4f; omega = %.4f).  The adjusted column divides out the log^3 N \
          polylog of the Lemma 3.3 product layer (the O~ factor)."
         (T.Gate_model.fit_exponent naive_points)
         profile.F.Sparsity.omega)
    ~header:
      [ "d"; "raw slope"; "slope of gates/log^3 N"; "omega + c*gamma^d"; "residual" ]
    ~rows;
  (* Theorem 4.9 (matrix product): same exponent claim, measured through
     the matmul counting DP (trees + products + combine tree). *)
  let matmul_ns = [ 32; 64; 128; 256 ] in
  let rows =
    List.map
      (fun d ->
        let points =
          List.map
            (fun n ->
              let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
              ( float_of_int n,
                float_of_int
                  (T.Gate_count_matmul.matmul ~algo:strassen ~schedule ~entry_bits:1 ~n ())
                    .T.Gate_count.gates ))
            matmul_ns
        in
        let raw = T.Gate_model.fit_exponent points in
        let adjusted =
          T.Gate_model.fit_exponent
            (List.map (fun (n, g) -> (n, g /. polylog (int_of_float n))) points)
        in
        [
          Tb.Int d;
          Tb.Float raw;
          Tb.Float adjusted;
          Tb.Float (T.Gate_model.exponent profile ~d);
        ])
      [ 2; 3; 4 ]
  in
  Tb.print
    ~title:
      "Theorem 4.9 (matrix product): same fit over N in {32..256} via the matmul \
       counting DP"
    ~header:[ "d"; "raw slope"; "slope of gates/log^3 N"; "omega + c*gamma^d" ]
    ~rows;
  (* Extrapolated crossover vs the naive circuit in the paper's
     log N-bit regime: solve naive_fit(N) = ours_fit(N) from the fitted
     lines. *)
  let crossover d =
    let b n = float_of_int (log_bits (int_of_float n)) in
    let points =
      List.map
        (fun n ->
          let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
          ( float_of_int n,
            float_of_int
              (trace_gates ~entry_bits:(log_bits n) ~algo:strassen ~schedule ~n ()) ))
        ns
    in
    let naive_points =
      List.map
        (fun n ->
          ( float_of_int n,
            float_of_int (fst (T.Naive_circuits.trace_counts ~entry_bits:(log_bits n) ~n ())) ))
        ns
    in
    ignore b;
    let slope pts = T.Gate_model.fit_exponent pts in
    let intercept pts s =
      let n = float_of_int (List.length pts) in
      List.fold_left (fun acc (x, y) -> acc +. (log y -. (s *. log x))) 0. pts /. n
    in
    let s_ours = slope points and s_naive = slope naive_points in
    let i_ours = intercept points s_ours and i_naive = intercept naive_points s_naive in
    if s_ours >= s_naive then None
    else Some (exp ((i_ours -. i_naive) /. (s_naive -. s_ours)))
  in
  let rows =
    List.map
      (fun d ->
        match crossover d with
        | None -> [ Tb.Int d; Tb.Str "never (slope not below naive)" ]
        | Some n_star -> [ Tb.Int d; Tb.Str (Printf.sprintf "N ~ 2^%.1f" (log n_star /. log 2.)) ])
      [ 2; 4; 6; 8 ]
  in
  Tb.print
    ~title:
      "extrapolated crossover vs the naive depth-2 circuit (log N-bit entries, fitted \
       power laws from N in {256..4096})"
    ~header:[ "d"; "crossover" ]
    ~rows;
  Printf.printf
    "claim: gate count is O~(d * N^(omega + c*gamma^d)); the adjusted slopes must track \
     the prediction and decrease toward omega, and the crossover must be finite for d > \
     3 (it is astronomically large — constant-factor reality of the construction).\n"

(* ------------------------------------------------------------------ *)

let e5 () =
  Bench_util.header "E5: Theorem 4.4 log log N schedule: O~(N^omega) gates";
  let gamma = profile.F.Sparsity.overall.F.Sparsity.gamma in
  let rows =
    List.map
      (fun n ->
        let schedule = T.Level_schedule.theorem44 ~gamma ~t_dim:2 ~n in
        let gates = trace_gates ~algo:strassen ~schedule ~n () in
        let omega_pow = float_of_int n ** profile.F.Sparsity.omega in
        let lg = log (float_of_int n) /. log 2. in
        [
          Tb.Int n;
          Tb.Int (T.Level_schedule.steps schedule);
          Tb.Int gates;
          Tb.Float (float_of_int gates /. omega_pow);
          Tb.Float (float_of_int gates /. (omega_pow *. lg *. lg *. lg));
        ])
      [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  Tb.print
    ~title:
      "trace circuit with rho = log_T N: t = O(log log N) levels, gates/N^omega grows \
       only polylogarithmically (log^3 N from the product layer)"
    ~header:[ "N"; "levels t"; "gates"; "gates/N^w"; "gates/(N^w log^3 N)" ]
    ~rows

(* ------------------------------------------------------------------ *)

let e6 () =
  Bench_util.header
    "E6: level-selection ablation (Sec. 2.2: geometric beats uniform and direct) + \
     sparsity ablation";
  let n = 64 in
  let l = T.Level_schedule.height ~t_dim:2 ~n in
  let schedules =
    [
      ("direct [0,L] (Sec. 4.2 strawman)", T.Level_schedule.direct ~l);
      ("uniform-2 (every k-th level)", T.Level_schedule.uniform ~steps:2 ~l);
      ("uniform-3", T.Level_schedule.uniform ~steps:3 ~l);
      ("thm4.5 d=2 (geometric)", T.Level_schedule.theorem45 ~profile ~d:2 ~n);
      ("thm4.5 d=3 (geometric)", T.Level_schedule.theorem45 ~profile ~d:3 ~n);
      ("thm4.4 (rho = L)", T.Level_schedule.theorem44 ~gamma:profile.F.Sparsity.overall.F.Sparsity.gamma ~t_dim:2 ~n);
      ("full (recursive shape)", T.Level_schedule.full ~l);
    ]
  in
  let rows =
    List.map
      (fun (name, schedule) ->
        let gates = trace_gates ~algo:strassen ~schedule ~n () in
        [
          Tb.Str name;
          Tb.Str (Format.asprintf "%a" T.Level_schedule.pp schedule);
          Tb.Int (T.Gate_model.trace_depth schedule);
          Tb.Int gates;
        ])
      schedules
  in
  Tb.print ~title:(Printf.sprintf "schedule comparison, trace circuit at N=%d" n)
    ~header:[ "schedule"; "levels"; "depth"; "gates" ]
    ~rows;
  (* Theorem 4.1 route: staged adders, no level selection.  Counted via
     count-only builds (no DP covers staged adders); N=32 keeps the
     deliberately-bad circuits buildable. *)
  let n32 = 32 in
  let staged_rows =
    List.concat_map
      (fun d ->
        let built =
          T.Trace_circuit.build_staged ~mode:Builder.Count_only ~algo:strassen
            ~stages:d ~entry_bits:1 ~tau:1 ~n:n32 ()
        in
        let st = T.Trace_circuit.stats built in
        let schedule = T.Level_schedule.theorem45 ~profile ~d ~n:n32 in
        [
          [
            Tb.Str (Printf.sprintf "staged d=%d (Thm 4.1)" d);
            Tb.Int st.Stats.depth;
            Tb.Int st.Stats.gates;
          ];
          [
            Tb.Str (Printf.sprintf "thm4.5 d=%d (Thm 4.5)" d);
            Tb.Int (T.Gate_model.trace_depth schedule);
            Tb.Int (trace_gates ~algo:strassen ~schedule ~n:n32 ());
          ];
        ])
      [ 2; 3 ]
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "Theorem 4.1 (staged adders) vs Theorem 4.5 (level selection) at N=%d" n32)
    ~header:[ "construction"; "depth"; "gates" ]
    ~rows:staged_rows;
  (* Sparsity ablation: same rank, different sparsity. *)
  let rows =
    List.map
      (fun (algo, (p : F.Sparsity.profile)) ->
        let n = Tcmm_util.Checked.pow algo.F.Bilinear.t_dim
            (if algo.F.Bilinear.t_dim = 2 then 6 else if algo.F.Bilinear.t_dim = 3 then 4 else 3)
        in
        let schedule = T.Level_schedule.theorem45 ~profile:p ~d:2 ~n in
        let gates = trace_gates ~algo ~schedule ~n () in
        [
          Tb.Str algo.F.Bilinear.name;
          Tb.Int n;
          Tb.Int p.F.Sparsity.sparsity;
          Tb.Float p.F.Sparsity.overall.F.Sparsity.gamma;
          Tb.Float (T.Gate_model.exponent p ~d:2);
          Tb.Int gates;
        ])
      (analyzable_algos ())
  in
  Tb.print
    ~title:
      "sparsity ablation at d=2 (Strassen vs Winograd: same rank 7, sparsity 12 vs 14 \
       -> Strassen wins; the bound depends on sparsity, not only rank)"
    ~header:[ "algorithm"; "N"; "s"; "gamma"; "exponent"; "gates" ]
    ~rows

(* ------------------------------------------------------------------ *)

let e7 () =
  Bench_util.header "E7: correctness battery (simulated circuits vs integer references)";
  let rng = Tcmm_util.Prng.create ~seed:20260705 in
  let results = ref [] in
  let record name ok = results := [ Tb.Str name; Tb.Str (if ok then "pass" else "FAIL") ] :: !results in
  (* Matrix products. *)
  List.iter
    (fun (algo, n, schedule, bits, signed) ->
      let lo = if signed then -((1 lsl bits) - 1) else 0 in
      let a = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi:((1 lsl bits) - 1) in
      let b = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi:((1 lsl bits) - 1) in
      let built =
        T.Matmul_circuit.build ~algo ~schedule ~signed_inputs:signed ~entry_bits:bits ~n ()
      in
      let ok = F.Matrix.equal (T.Matmul_circuit.run built ~a ~b) (F.Matrix.mul a b) in
      record
        (Printf.sprintf "matmul %s N=%d %s b=%d%s" algo.F.Bilinear.name n
           (Format.asprintf "%a" T.Level_schedule.pp schedule)
           bits (if signed then " signed" else ""))
        ok)
    [
      (strassen, 4, T.Level_schedule.full ~l:2, 3, true);
      (strassen, 4, T.Level_schedule.direct ~l:2, 2, false);
      (F.Instances.winograd, 4, T.Level_schedule.full ~l:2, 2, true);
      (F.Instances.naive ~t_dim:2, 4, T.Level_schedule.full ~l:2, 2, false);
      (F.Instances.naive ~t_dim:3, 9, T.Level_schedule.full ~l:2, 1, false);
      (F.Instances.strassen_squared, 4, T.Level_schedule.full ~l:1, 2, true);
      (strassen, 8, T.Level_schedule.uniform ~steps:2 ~l:3, 1, false);
      (strassen, 8, T.Level_schedule.theorem45 ~profile ~d:2 ~n:8, 2, true);
    ];
  (* Traces. *)
  List.iter
    (fun (algo, n, schedule, bits, signed) ->
      let lo = if signed then -((1 lsl bits) - 1) else 0 in
      let m = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi:((1 lsl bits) - 1) in
      let expect = T.Trace_circuit.reference m in
      let built =
        T.Trace_circuit.build ~algo ~schedule ~signed_inputs:signed ~entry_bits:bits
          ~tau:expect ~n ()
      in
      let ok =
        T.Trace_circuit.trace_value built m = expect && T.Trace_circuit.run built m
      in
      record
        (Printf.sprintf "trace %s N=%d %s b=%d%s" algo.F.Bilinear.name n
           (Format.asprintf "%a" T.Level_schedule.pp schedule)
           bits (if signed then " signed" else ""))
        ok)
    [
      (strassen, 4, T.Level_schedule.full ~l:2, 2, false);
      (strassen, 8, T.Level_schedule.theorem45 ~profile ~d:2 ~n:8, 1, false);
      (strassen, 16, T.Level_schedule.theorem45 ~profile ~d:2 ~n:16, 1, false);
      (F.Instances.winograd, 4, T.Level_schedule.direct ~l:2, 2, true);
    ];
  (* Triangles via both circuits. *)
  let g = G.Generate.erdos_renyi rng ~n:8 ~p:0.5 in
  let tri = G.Triangles.count g in
  let adj = G.Graph.adjacency g in
  let naive_yes = T.Naive_circuits.triangle_threshold ~n:8 ~tau:tri () in
  let naive_no = T.Naive_circuits.triangle_threshold ~n:8 ~tau:(tri + 1) () in
  record "naive triangle circuit boundary"
    (T.Naive_circuits.triangle_run naive_yes adj
    && not (T.Naive_circuits.triangle_run naive_no adj));
  let sched8 = T.Level_schedule.theorem45 ~profile ~d:2 ~n:8 in
  let tr_yes = T.Trace_circuit.build ~algo:strassen ~schedule:sched8 ~entry_bits:1 ~tau:(6 * tri) ~n:8 () in
  record "trace circuit counts triangles" (T.Trace_circuit.run tr_yes adj);
  (* Convolution through the circuit. *)
  let img = C.Image.random rng ~channels:1 ~height:4 ~width:4 ~lo:(-3) ~hi:3 in
  let kernels =
    Array.init 2 (fun _ -> C.Image.random rng ~channels:1 ~height:2 ~width:2 ~lo:(-2) ~hi:2)
  in
  let spec = { C.Im2col.q = 2; stride = 2 } in
  let nconv = C.Conv.circuit_size spec img kernels ~t_dim:2 in
  let a = C.Im2col.embed (C.Im2col.patch_matrix spec img) ~n:nconv in
  let b = C.Im2col.embed (C.Im2col.kernel_matrix kernels) ~n:nconv in
  let built =
    T.Matmul_circuit.build ~algo:strassen
      ~schedule:(T.Level_schedule.full ~l:(T.Level_schedule.height ~t_dim:2 ~n:nconv))
      ~signed_inputs:true ~entry_bits:3 ~n:nconv ()
  in
  let product = T.Matmul_circuit.run built ~a ~b in
  let direct = C.Conv.direct spec img kernels in
  let _, ow = C.Im2col.output_dims spec img in
  let conv_ok = ref true in
  Array.iteri
    (fun k plane ->
      Array.iteri
        (fun py row ->
          Array.iteri
            (fun px v -> if F.Matrix.get product ((py * ow) + px) k <> v then conv_ok := false)
            row)
        plane)
    direct;
  record "conv layer through matmul circuit" !conv_ok;
  let rows = List.rev !results in
  let failures =
    List.length (List.filter (function [ _; Tb.Str "FAIL" ] -> true | _ -> false) rows)
  in
  Tb.print ~title:(Printf.sprintf "simulation vs reference (%d failures)" failures)
    ~header:[ "case"; "result" ] ~rows

(* ------------------------------------------------------------------ *)

let e11 () =
  Bench_util.header
    "E11: shared-top-layer ablation (Lemma 3.2's 'improved in practice' remark)";
  let rows =
    List.map
      (fun n ->
        let b = log_bits n in
        let schedule = T.Level_schedule.theorem45 ~profile ~d:3 ~n in
        let base = T.Gate_count.trace ~algo:strassen ~schedule ~entry_bits:b ~n () in
        let opt =
          T.Gate_count.trace ~algo:strassen ~schedule ~entry_bits:b ~share_top:true ~n ()
        in
        [
          Tb.Int n;
          Tb.Int base.T.Gate_count.gates;
          Tb.Int opt.T.Gate_count.gates;
          Tb.Ratio (float_of_int base.T.Gate_count.gates /. float_of_int opt.T.Gate_count.gates);
          Tb.Int base.T.Gate_count.edges;
          Tb.Int opt.T.Gate_count.edges;
          Tb.Ratio (float_of_int base.T.Gate_count.edges /. float_of_int opt.T.Gate_count.edges);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Tb.print
    ~title:
      "trace circuit, d=3, log N-bit entries: baseline Lemma 3.2 vs shared top layer \
       (same function, checked by tests)"
    ~header:[ "N"; "gates"; "gates(shared)"; "ratio"; "edges"; "edges(shared)"; "ratio" ]
    ~rows;
  Printf.printf
    "finding: sharing helps mostly the wire count (the top bits' first layers are the \
     widest gates); the gate count is dominated by the per-bit truncated instances and \
     the product layer, so the paper's remark buys percents, not factors.\n"

let e12 () =
  Bench_util.header
    "E12: bounded fan-in via tiling (Sec. 5: 'break the matrix multiplication into \
     independent pieces')";
  let entry_bits = 4 in
  let rows =
    List.map
      (fun (n, block_l) ->
        let schedule = T.Level_schedule.full ~l:block_l in
        let tiled =
          T.Tiled_matmul.build ~mode:Builder.Count_only ~algo:strassen ~schedule
            ~signed_inputs:true ~entry_bits ~rows:n ~inner:n ~cols:n ()
        in
        let st = T.Tiled_matmul.stats tiled in
        [
          Tb.Int n;
          Tb.Int (1 lsl block_l);
          Tb.Int st.Stats.gates;
          Tb.Int st.Stats.edges;
          Tb.Int st.Stats.depth;
          Tb.Int st.Stats.max_fan_in;
        ])
      [ (16, 4); (16, 3); (16, 2); (16, 1); (32, 3); (32, 2) ]
  in
  Tb.print
    ~title:
      "N x N product, 4-bit signed entries: smaller tiles trade depth (+2 for the \
       tile-sum layer; deeper tile recursion) for bounded fan-in (block 2^l = whole \
       matrix means the monolithic circuit)"
    ~header:[ "N"; "block"; "gates"; "edges"; "depth"; "max fan-in" ]
    ~rows;
  (* Rectangular conv shapes: tiled vs square embedding. *)
  let rows =
    List.map
      (fun (p, q, k, name) ->
        let block_l = 2 in
        let block = 1 lsl block_l in
        let pr = T.Tiled_matmul.round_up p ~block
        and qr = T.Tiled_matmul.round_up q ~block
        and kr = T.Tiled_matmul.round_up k ~block in
        let tiled =
          T.Tiled_matmul.build ~mode:Builder.Count_only ~algo:strassen
            ~schedule:(T.Level_schedule.full ~l:block_l) ~signed_inputs:true
            ~entry_bits ~rows:pr ~inner:qr ~cols:kr ()
        in
        let nsq =
          let need = max p (max q k) in
          let rec grow m = if m >= need then m else grow (2 * m) in
          grow 2
        in
        (* Exact square-circuit count via the matmul DP (a count-only
           build at N=64 would need gigabytes for no extra precision). *)
        let square =
          T.Gate_count_matmul.matmul ~algo:strassen
            ~schedule:(T.Level_schedule.theorem45 ~profile ~d:2 ~n:nsq)
            ~entry_bits ~signed_inputs:true ~n:nsq ()
        in
        let st = T.Tiled_matmul.stats tiled in
        [
          Tb.Str name;
          Tb.Str (Printf.sprintf "%dx%dx%d" p q k);
          Tb.Int nsq;
          Tb.Int square.T.Gate_count.gates;
          Tb.Int st.Stats.gates;
          Tb.Ratio
            (float_of_int square.T.Gate_count.gates /. float_of_int st.Stats.gates);
        ])
      [
        (36, 27, 4, "8x8x3 img, 4 3x3 kernels");
        (16, 12, 8, "8x8x3 img, 8 2x2 kernels, stride 2");
        (49, 27, 4, "16x16x3 img, 4 3x3 kernels, stride 2");
      ]
  in
  Tb.print
    ~title:
      "conv layers (P x Q by Q x K): square embedding vs block-4 tiling — rectangular \
       shapes stop paying for the empty padding"
    ~header:[ "layer"; "PxQxK"; "square N"; "square gates"; "tiled gates"; "ratio" ]
    ~rows

let e13 () =
  Bench_util.header
    "E13: spiking semantics — constant depth IS constant settling time";
  let rng = Tcmm_util.Prng.create ~seed:31 in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun d ->
            let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
            let built =
              T.Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1
                ~tau:(3 * n) ~n ()
            in
            let c = T.Trace_circuit.circuit built in
            let g = G.Generate.erdos_renyi rng ~n ~p:0.4 in
            let input =
              T.Trace_circuit.encode_input built (G.Graph.adjacency g)
            in
            let ticks, out = Tcmm_threshold.Spiking.settle c input in
            let reference = Tcmm_threshold.Simulator.read_outputs c input in
            [
              Tb.Int n;
              Tb.Int d;
              Tb.Int (T.Trace_circuit.stats built).Stats.depth;
              Tb.Int ticks;
              Tb.Str (if out = reference then "agrees" else "DISAGREES");
            ])
          [ 1; 2; 3 ])
      [ 8; 16 ]
  in
  Tb.print
    ~title:
      "synchronous per-tick neuron updates (TrueNorth-style): ticks to fixed point vs \
       circuit depth (trace circuits on ER(n,0.4))"
    ~header:[ "N"; "d"; "depth"; "settling ticks"; "vs DAG semantics" ]
    ~rows

let e15 () =
  Bench_util.header
    "E15: sparsity optimization over the de Groote orbit (is Strassen's presentation \
     circuit-optimal?)";
  let rows =
    List.map
      (fun algo ->
        let start = (F.Sparsity.analyze algo).F.Sparsity.sparsity in
        let r = F.Orbit.search algo in
        let p = F.Sparsity.analyze r.F.Orbit.algorithm in
        [
          Tb.Str algo.F.Bilinear.name;
          Tb.Int start;
          Tb.Int r.F.Orbit.triples_tried;
          Tb.Int r.F.Orbit.sparsity;
          Tb.Float p.F.Sparsity.overall.F.Sparsity.gamma;
          Tb.Str (if r.F.Orbit.better_than_start then "improved" else "already optimal");
        ])
      [ strassen; F.Instances.winograd ]
  in
  Tb.print
    ~title:
      "exhaustive sandwiching by unimodular {-1,0,1} triples (every candidate \
       re-verified against Brent's equations)"
    ~header:[ "start algorithm"; "s"; "triples"; "best s in orbit"; "best gamma"; "verdict" ]
    ~rows;
  Printf.printf
    "finding: Strassen's published form already attains the minimum sparsity (12) over \
     its 64000-triple orbit, so the paper's constants cannot be improved by a change of \
     basis with small integer entries; Winograd's 15-addition variant (s=14) transforms \
     back to s=12 — its worse circuit constants are an artifact of presentation.\n"

let e14 () =
  Bench_util.header
    "E14: on-chip fixed-weight inference (Sec. 1/5: keep deep-learning linear algebra \
     on the neuromorphic chip)";
  let rng = Tcmm_util.Prng.create ~seed:77 in
  let rows =
    List.map
      (fun (size, k1n, k2n, bits) ->
        let b = Builder.create ~mode:Builder.Count_only () in
        let fm, _ =
          C.Inference.input_image b ~channels:1 ~height:size ~width:size
            ~entry_bits:bits ~signed:false
        in
        let k1 =
          Array.init k1n (fun _ ->
              C.Image.random rng ~channels:1 ~height:3 ~width:3 ~lo:(-2) ~hi:2)
        in
        let layer1 =
          C.Inference.relu b
            (C.Inference.conv_fixed b ~spec:{ C.Im2col.q = 3; stride = 1 } ~kernels:k1 fm)
        in
        let k2 =
          Array.init k2n (fun _ ->
              C.Image.random rng ~channels:k1n ~height:2 ~width:2 ~lo:(-1) ~hi:1)
        in
        let layer2 =
          C.Inference.conv_fixed b ~spec:{ C.Im2col.q = 2; stride = 2 } ~kernels:k2 layer1
        in
        ignore layer2;
        let st = Builder.stats b in
        [
          Tb.Str (Printf.sprintf "%dx%d img (%d-bit), conv3x3 x%d -> relu -> conv2x2/2 x%d" size size bits k1n k2n);
          Tb.Int st.Stats.gates;
          Tb.Int st.Stats.edges;
          Tb.Int st.Stats.depth;
          Tb.Int st.Stats.max_fan_in;
        ])
      [ (8, 4, 2, 3); (16, 8, 4, 4); (32, 8, 4, 8); (32, 16, 8, 8) ]
  in
  Tb.print
    ~title:
      "two-layer fixed-weight networks compiled to one circuit (constant weights need \
       no product gates: conv = depth-2 weighted sum, relu = depth 3)"
    ~header:[ "network"; "gates"; "edges"; "depth"; "max fan-in" ]
    ~rows;
  Printf.printf
    "contrast with E10's conv-as-matmul tables: when one operand is constant, the \
     circuit shrinks by orders of magnitude — Theorem 4.9 is for the data-dependent \
     (training/GEMM) case.\n"

let e9 () =
  Bench_util.header "E9: firing-count energy (Uchizawa et al. model; paper Sec. 6 open problem)";
  let rng = Tcmm_util.Prng.create ~seed:99 in
  let rows =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun d ->
            if T.Level_schedule.height ~t_dim:2 ~n < 1 then None
            else begin
              let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
              let built =
                T.Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1
                  ~tau:(n * n) ~n ()
              in
              let inputs =
                List.init 20 (fun _ ->
                    let g = G.Generate.erdos_renyi rng ~n ~p:0.4 in
                    T.Trace_circuit.encode_input built (G.Graph.adjacency g))
              in
              let e =
                Tcmm_threshold.Energy.measure (T.Trace_circuit.circuit built)
                  inputs
              in
              Some
                [
                  Tb.Int n;
                  Tb.Int d;
                  Tb.Int e.Tcmm_threshold.Energy.gates;
                  Tb.Float e.Tcmm_threshold.Energy.mean_firings;
                  Tb.Float (Tcmm_threshold.Energy.firing_fraction e);
                ]
            end)
          [ 1; 2; 3 ])
      [ 8; 16 ]
  in
  Tb.print
    ~title:"mean firing fraction of trace circuits on ER(n, 0.4) adjacency inputs (20 samples)"
    ~header:[ "N"; "d"; "gates"; "mean firings"; "firing fraction" ]
    ~rows

(* ------------------------------------------------------------------ *)

(* E20: construction wall-time.  Two builds of the same circuit, both
   lowered by Packed.of_arena:
     legacy  — gate-by-gate builder (templates off): every block's
               constructor runs again at every occurrence;
     direct  — hash-consed block templates stamped by offset arithmetic,
               each template's lowering plan replayed per instance.
   Every leg is checked gate-for-gate against the counting DP, the
   direct leg's stats against the legacy leg's field by field, and the
   direct build is evaluated end-to-end against integer references (the
   N=32 certificate the acceptance criteria ask for).  Results land in
   BENCH_build.json. *)

type e20_built = {
  eb_builder : Builder.t;
  eb_eval : unit -> bool;  (* end-to-end run vs the integer reference *)
}

let e20 ?(ns = [ 8; 16; 32 ]) () =
  Bench_util.header
    "E20: construction wall-time (legacy builder vs template stamping, both \
     lowered straight to CSR)";
  let module Th = Tcmm_threshold in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rng = Tcmm_util.Prng.create ~seed:42 in
  let check label n ((expect_g, expect_e) : int * int) (st : Stats.t) =
    if st.Stats.gates <> expect_g || st.Stats.edges <> expect_e then
      failwith
        (Printf.sprintf
           "e20 %s N=%d: %d gates / %d edges diverge from the expected %d / %d"
           label n st.Stats.gates st.Stats.edges expect_g expect_e)
  in
  let rows = ref [] in
  let run_family ~family ~expect ~build n =
    let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
    let expect = expect ~schedule ~n in
    (* The legacy leg is skipped at N=32: it re-runs every block's
       constructor and keeps a record per gate (9.7M for matmul), the
       time and memory templates exist to save. *)
    let legacy =
      if n >= 32 then None
      else begin
        let b, t_build = time (fun () -> build ~templates:false ~schedule ~n) in
        check (family ^ " legacy") n expect (Builder.stats b.eb_builder);
        let _p, t_pack =
          time (fun () -> Th.Packed.of_arena (Builder.arena b.eb_builder))
        in
        Some (Builder.stats b.eb_builder, t_build, t_pack)
      end
    in
    Gc.compact ();
    (* Direct leg: stamped arena lowered straight to CSR. *)
    let d_b, t_direct_build =
      time (fun () -> build ~templates:true ~schedule ~n)
    in
    check (family ^ " direct") n expect (Builder.stats d_b.eb_builder);
    (match legacy with
    | Some (legacy_stats, _, _)
      when Builder.stats d_b.eb_builder <> legacy_stats ->
        failwith
          (Printf.sprintf "e20 %s N=%d: direct stats diverge from legacy"
             family n)
    | _ -> ());
    let arena = Builder.arena d_b.eb_builder in
    let _p, t_direct_lower = time (fun () -> Th.Packed.of_arena arena) in
    Gc.compact ();
    (* Certificate: the direct-lowered circuit evaluates correctly
       against the plain integer reference. *)
    let eval_ok = d_b.eb_eval () in
    if not eval_ok then
      failwith (Printf.sprintf "e20 %s N=%d: direct evaluation DISAGREES" family n);
    let ts = Builder.template_stats d_b.eb_builder in
    let stats = Builder.stats d_b.eb_builder in
    let direct_total = t_direct_build +. t_direct_lower in
    let legacy_total =
      Option.map (fun (_, b, p) -> b +. p) legacy
    in
    let sec t = Tb.Str (Printf.sprintf "%.3f s" t) in
    let leg_row label t_build t_pack extra =
      rows :=
        ([ Tb.Str (Printf.sprintf "%s N=%d" family n); Tb.Str label ]
        @ [ sec t_build; sec t_pack; sec (t_build +. t_pack) ]
        @ [ extra ])
        :: !rows
    in
    (match legacy with
    | Some (_, b, p) -> leg_row "legacy" b p (Tb.Str "1.0x")
    | None -> ());
    leg_row "direct" t_direct_build t_direct_lower
      (match legacy_total with
      | Some lt -> Tb.Str (Printf.sprintf "%.1fx" (lt /. direct_total))
      | None -> Tb.Str "-");
    Bench_util.record ~experiment:"e20"
      ([
         ("circuit", Bench_util.Str family);
         ("n", Bench_util.Int n);
         ("gates", Bench_util.Int stats.Stats.gates);
         ("edges", Bench_util.Int stats.Stats.edges);
         ("legacy_skipped", Bench_util.Bool (legacy = None));
         ("direct_build_seconds", Bench_util.Float t_direct_build);
         ("direct_lower_seconds", Bench_util.Float t_direct_lower);
         ("direct_total_seconds", Bench_util.Float direct_total);
         ("templates", Bench_util.Int ts.Builder.templates);
         ("template_instances", Bench_util.Int ts.Builder.instances);
         ("stamped_gates", Bench_util.Int ts.Builder.stamped_gates);
         ("eval_certificate_ok", Bench_util.Bool eval_ok);
       ]
      @ (match legacy with
        | None -> []
        | Some (_, b, p) ->
            [
              ("legacy_build_seconds", Bench_util.Float b);
              ("legacy_pack_seconds", Bench_util.Float p);
              ("legacy_total_seconds", Bench_util.Float (b +. p));
              ( "direct_speedup_vs_legacy",
                Bench_util.Float ((b +. p) /. direct_total) );
            ]));
    Gc.compact ()
  in
  let matmul_family n =
    run_family ~family:"matmul" n
      ~expect:(fun ~schedule ~n ->
        let c =
          T.Gate_count_matmul.matmul ~algo:strassen ~schedule ~entry_bits:1 ~n ()
        in
        (c.T.Gate_count.gates, c.T.Gate_count.edges))
      ~build:(fun ~templates ~schedule ~n ->
        let built =
          T.Matmul_circuit.build ~templates ~algo:strassen ~schedule
            ~entry_bits:1 ~n ()
        in
        {
          eb_builder = built.T.Matmul_circuit.builder;
          eb_eval =
            (fun () ->
              let a = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
              let b = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
              F.Matrix.equal
                (T.Matmul_circuit.run built ~a ~b)
                (F.Matrix.mul a b));
        })
  in
  let trace_family n =
    run_family ~family:"trace" n
      ~expect:(fun ~schedule ~n ->
        let c = T.Gate_count.trace ~algo:strassen ~schedule ~entry_bits:1 ~n () in
        (c.T.Gate_count.gates, c.T.Gate_count.edges))
      ~build:(fun ~templates ~schedule ~n ->
        let built =
          T.Trace_circuit.build ~templates ~algo:strassen ~schedule
            ~entry_bits:1 ~tau:(n * n) ~n ()
        in
        {
          eb_builder = built.T.Trace_circuit.builder;
          eb_eval =
            (fun () ->
              let m = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
              T.Trace_circuit.trace_value built m
              = T.Trace_circuit.reference m);
        })
  in
  List.iter (fun n -> matmul_family n; trace_family n) ns;
  Tb.print
    ~title:
      "build + pack wall-clock (d=2 schedules, binary entries; every leg checked \
       gate-for-gate against the counting DP, direct legs evaluated end-to-end)"
    ~header:[ "circuit"; "path"; "build"; "pack/lower"; "total"; "vs legacy" ]
    ~rows:(List.rev !rows)

(* ------------------------------------------------------------------ *)

let e10 () =
  Bench_util.header "E10: applications (Sec. 5): triangle queries and a conv layer";
  let rng = Tcmm_util.Prng.create ~seed:123 in
  let n = 16 in
  let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
  let rows =
    List.map
      (fun p ->
        let g = G.Generate.erdos_renyi rng ~n ~p in
        let exact = G.Triangles.count g in
        let expected = G.Generate.expected_triangles_er ~n ~p in
        let tau = max 1 (int_of_float expected) in
        let built =
          T.Trace_circuit.build ~algo:strassen ~schedule ~entry_bits:1 ~tau:(6 * tau) ~n ()
        in
        let fires = T.Trace_circuit.run built (G.Graph.adjacency g) in
        [
          Tb.Float p;
          Tb.Int (G.Graph.num_edges g);
          Tb.Int exact;
          Tb.Float expected;
          Tb.Int tau;
          Tb.Str (string_of_bool fires);
          Tb.Str (if fires = (exact >= tau) then "agrees" else "DISAGREES");
        ])
      [ 0.15; 0.3; 0.45; 0.6 ]
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "ER(%d, p) triangle threshold queries, tau = E[triangles] (constant-depth circuit \
          vs exact count)"
         n)
    ~header:[ "p"; "edges"; "triangles"; "E[tri]"; "tau"; "circuit >= tau"; "check" ]
    ~rows;
  (* Conv layer sizing table: the paper's P x Q x K framing. *)
  let rows =
    List.map
      (fun (size, channels, q, stride, k) ->
        let img = C.Image.random rng ~channels ~height:size ~width:size ~lo:0 ~hi:7 in
        let kernels =
          Array.init k (fun _ ->
              C.Image.random rng ~channels ~height:q ~width:q ~lo:(-3) ~hi:3)
        in
        let spec = { C.Im2col.q; stride } in
        let pm = C.Im2col.patch_matrix spec img in
        let nmat = C.Conv.circuit_size spec img kernels ~t_dim:2 in
        let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n:nmat in
        (* Exact counts via the matmul DP: no multi-gigabyte build. *)
        let counts =
          T.Gate_count_matmul.matmul ~algo:strassen ~schedule ~entry_bits:4
            ~signed_inputs:true ~n:nmat ()
        in
        [
          Tb.Str
            (Printf.sprintf "%dx%dx%d img, %d %dx%d kernels, stride %d" size size
               channels k q q stride);
          Tb.Int (F.Matrix.rows pm);
          Tb.Int (F.Matrix.cols pm);
          Tb.Int k;
          Tb.Int nmat;
          Tb.Int counts.T.Gate_count.gates;
          Tb.Int (T.Gate_model.matmul_depth schedule);
        ])
      [ (8, 3, 2, 2, 8); (8, 1, 3, 2, 4); (10, 3, 3, 2, 4) ]
  in
  Tb.print ~title:"conv layers lowered to circuits (exact counts, d=2 schedules)"
    ~header:[ "layer"; "P"; "Q"; "K"; "N"; "gates"; "depth" ]
    ~rows
