open Tcmm_graph
module S = Tcmm_test_support.Support
module Matrix = Tcmm_fastmm.Matrix
module Prng = Tcmm_util.Prng

(* ------------------------------------------------------------------ *)
(* Graph                                                              *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = Graph.empty 4 in
  S.check_int "vertices" 4 (Graph.num_vertices g);
  S.check_int "no edges" 0 (Graph.num_edges g);
  let g = Graph.add_edge g 2 0 in
  S.check_bool "edge both ways" true (Graph.has_edge g 0 2 && Graph.has_edge g 2 0);
  S.check_int "one edge" 1 (Graph.num_edges g);
  let g2 = Graph.add_edge g 0 2 in
  S.check_int "idempotent" 1 (Graph.num_edges g2);
  Alcotest.(check (list (pair int int))) "edges normalized" [ (0, 2) ] (Graph.edges g)

let test_graph_rejections () =
  let g = Graph.empty 3 in
  (try
     ignore (Graph.add_edge g 1 1);
     Alcotest.fail "expected invalid_arg (self-loop)"
   with Invalid_argument _ -> ());
  (try
     ignore (Graph.add_edge g 0 3);
     Alcotest.fail "expected invalid_arg (range)"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.empty 0);
    Alcotest.fail "expected invalid_arg (empty)"
  with Invalid_argument _ -> ()

let test_graph_degree_neighbours () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (2, 3) ] in
  S.check_int "deg 0" 3 (Graph.degree g 0);
  S.check_int "deg 4" 0 (Graph.degree g 4);
  Alcotest.(check (list int)) "neighbours 0" [ 1; 2; 3 ] (Graph.neighbours g 0);
  Alcotest.(check (list int)) "neighbours 3" [ 0; 2 ] (Graph.neighbours g 3)

let test_graph_adjacency_roundtrip () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 3) ] in
  let a = Graph.adjacency g in
  S.check_int "symmetric" (Matrix.get a 0 1) (Matrix.get a 1 0);
  S.check_int "diagonal zero" 0 (Matrix.get a 2 2);
  let g2 = Graph.of_adjacency a in
  Alcotest.(check (list (pair int int))) "roundtrip" (Graph.edges g) (Graph.edges g2)

let test_graph_of_adjacency_rejections () =
  (try
     ignore (Graph.of_adjacency (Matrix.identity 3));
     Alcotest.fail "expected invalid_arg (diag)"
   with Invalid_argument _ -> ());
  let m = Matrix.create ~rows:2 ~cols:2 in
  Matrix.set m 0 1 2;
  Matrix.set m 1 0 2;
  try
    ignore (Graph.of_adjacency m);
    Alcotest.fail "expected invalid_arg (non-binary)"
  with Invalid_argument _ -> ()

let test_graph_pad () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let padded = Graph.pad_to g 8 in
  S.check_int "vertices" 8 (Graph.num_vertices padded);
  S.check_int "same triangles" (Triangles.count g) (Triangles.count padded);
  try
    ignore (Graph.pad_to g 2);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Triangles                                                          *)
(* ------------------------------------------------------------------ *)

let test_triangles_known () =
  S.check_int "K3" 1 (Triangles.count (Generate.complete 3));
  S.check_int "K4" 4 (Triangles.count (Generate.complete 4));
  S.check_int "K5" 10 (Triangles.count (Generate.complete 5));
  S.check_int "K6" 20 (Triangles.count (Generate.complete 6));
  S.check_int "empty" 0 (Triangles.count (Graph.empty 5));
  let c4 = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  S.check_int "4-cycle" 0 (Triangles.count c4)

let test_triangles_trace_agreement () =
  let rng = Prng.create ~seed:61 in
  for _ = 1 to 10 do
    let g = Generate.erdos_renyi rng ~n:10 ~p:0.4 in
    S.check_int "count = trace/6" (Triangles.count g) (Triangles.count_via_trace g)
  done

let test_wedges_known () =
  S.check_int "K4 wedges" 12 (Triangles.wedges (Generate.complete 4));
  S.check_int "star wedges" 6
    (Triangles.wedges (Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ]));
  S.check_int "empty" 0 (Triangles.wedges (Graph.empty 3))

let test_clustering_coefficient () =
  Alcotest.(check (float 1e-9)) "complete graph" 1.
    (Triangles.clustering_coefficient (Generate.complete 5));
  Alcotest.(check (float 1e-9)) "star" 0.
    (Triangles.clustering_coefficient
       (Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ]));
  Alcotest.(check (float 1e-9)) "no wedges" 0.
    (Triangles.clustering_coefficient (Graph.empty 3))

let test_per_vertex () =
  let g = Generate.complete 4 in
  let counts = Triangles.per_vertex g in
  Alcotest.(check (array int)) "K4 per vertex" [| 3; 3; 3; 3 |] counts;
  S.check_int "sum = 3*count" (3 * Triangles.count g) (Array.fold_left ( + ) 0 counts)

(* ------------------------------------------------------------------ *)
(* Generate                                                           *)
(* ------------------------------------------------------------------ *)

let test_er_determinism_and_p_extremes () =
  let g1 = Generate.erdos_renyi (Prng.create ~seed:5) ~n:12 ~p:0.3 in
  let g2 = Generate.erdos_renyi (Prng.create ~seed:5) ~n:12 ~p:0.3 in
  Alcotest.(check (list (pair int int))) "deterministic" (Graph.edges g1) (Graph.edges g2);
  let full = Generate.erdos_renyi (Prng.create ~seed:1) ~n:6 ~p:1. in
  S.check_int "p=1 complete" (6 * 5 / 2) (Graph.num_edges full);
  let none = Generate.erdos_renyi (Prng.create ~seed:1) ~n:6 ~p:0. in
  S.check_int "p=0 empty" 0 (Graph.num_edges none);
  try
    ignore (Generate.erdos_renyi (Prng.create ~seed:1) ~n:4 ~p:1.5);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_er_edge_count_plausible () =
  let rng = Prng.create ~seed:9 in
  let n = 40 and p = 0.25 in
  let g = Generate.erdos_renyi rng ~n ~p in
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let got = float_of_int (Graph.num_edges g) in
  S.check_bool "within 35% of expectation" true
    (got > 0.65 *. expected && got < 1.35 *. expected)

let test_blocked_community_structure () =
  let rng = Prng.create ~seed:10 in
  let g = Generate.blocked_community rng ~blocks:4 ~block_size:8 ~p_in:0.9 ~p_out:0.02 in
  S.check_int "vertices" 32 (Graph.num_vertices g);
  (* Dense blocks force a high clustering coefficient relative to a
     global ER graph with the same edge count. *)
  let cc = Triangles.clustering_coefficient g in
  S.check_bool "community clustering > 0.5" true (cc > 0.5);
  let er =
    Generate.erdos_renyi (Prng.create ~seed:11) ~n:32
      ~p:(float_of_int (Graph.num_edges g) /. float_of_int (32 * 31 / 2))
  in
  S.check_bool "higher than matched ER" true
    (cc > Triangles.clustering_coefficient er)

let test_expected_formulas () =
  (* (10 choose 3) = 120. *)
  Alcotest.(check (float 1e-9)) "triangles" (120. *. 0.001)
    (Generate.expected_triangles_er ~n:10 ~p:0.1);
  Alcotest.(check (float 1e-9)) "wedges" (3. *. 120. *. 0.01)
    (Generate.expected_wedges_er ~n:10 ~p:0.1)

(* Naive references the generator properties are checked against:
   triangle/wedge counts straight off the adjacency matrix. *)
let triangles_naive g =
  let a = Graph.adjacency g in
  let n = Graph.num_vertices g in
  let c = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for k = j + 1 to n - 1 do
        if Matrix.get a i j = 1 && Matrix.get a j k = 1 && Matrix.get a i k = 1
        then incr c
      done
    done
  done;
  !c

let wedges_naive g =
  let n = Graph.num_vertices g in
  let w = ref 0 in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    w := !w + (d * (d - 1) / 2)
  done;
  !w

let random_generated rng =
  let n = 4 + Prng.int rng ~bound:8 in
  if Prng.bool rng then Generate.erdos_renyi rng ~n ~p:(Prng.float rng)
  else
    Generate.blocked_community rng ~blocks:(1 + Prng.int rng ~bound:3)
      ~block_size:(2 + Prng.int rng ~bound:4)
      ~p_in:(0.5 +. (0.5 *. Prng.float rng))
      ~p_out:(0.2 *. Prng.float rng)

let prop_generators_wellformed =
  S.qcheck_case ~count:100 "ER/BTER adjacency symmetric with zero diagonal"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let g = random_generated (Prng.create ~seed) in
      let a = Graph.adjacency g in
      let n = Graph.num_vertices g in
      let ok = ref (Matrix.rows a = n && Matrix.cols a = n) in
      for i = 0 to n - 1 do
        ok := !ok && Matrix.get a i i = 0;
        for j = 0 to n - 1 do
          let v = Matrix.get a i j in
          ok := !ok && (v = 0 || v = 1) && v = Matrix.get a j i
        done
      done;
      (* of_adjacency re-validates shape and must round-trip. *)
      !ok && Graph.edges (Graph.of_adjacency a) = Graph.edges g)

let prop_generators_references_agree =
  S.qcheck_case ~count:60 "ER/BTER triangle and wedge references agree"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let g = random_generated (Prng.create ~seed) in
      Triangles.count g = triangles_naive g
      && Triangles.count g = Triangles.count_via_trace g
      && Triangles.wedges g = wedges_naive g)

(* ------------------------------------------------------------------ *)
(* Edge-flip streams                                                  *)
(* ------------------------------------------------------------------ *)

let test_flip_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let g' = Graph.flip_edges g [ (1, 0); (2, 3) ] in
  S.check_bool "removed" false (Graph.has_edge g' 0 1);
  S.check_bool "added" true (Graph.has_edge g' 2 3);
  (* Flip-then-unflip is a structural no-op. *)
  let g'' = Graph.flip_edges g [ (2, 3); (3, 2) ] in
  Alcotest.(check (list (pair int int))) "no-op" (Graph.edges g) (Graph.edges g'');
  try
    ignore (Graph.flip_edges g [ (1, 1) ]);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let prop_flip_edges_involutive =
  S.qcheck_case ~count:60 "flipping a set twice restores the graph"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let g = random_generated rng in
      let n = Graph.num_vertices g in
      let flips =
        List.init
          (1 + Prng.int rng ~bound:6)
          (fun _ ->
            let i = Prng.int rng ~bound:n in
            let j = (i + 1 + Prng.int rng ~bound:(n - 1)) mod n in
            (i, j))
      in
      let once = Graph.flip_edges g flips in
      let twice = Graph.flip_edges once (List.rev flips) in
      Graph.edges twice = Graph.edges g)

let test_stream_delta_wires () =
  let g = Graph.empty 4 in
  let b = Tcmm_threshold.Builder.create () in
  let layout = Tcmm.Encode.alloc b ~n:4 ~entry_bits:1 ~signed:false in
  let w_ij, w_ji = Stream.edge_wires ~layout g 1 2 in
  S.check_int "A[1][2] wire" ((1 * 4) + 2) w_ij;
  S.check_int "A[2][1] wire" ((2 * 4) + 1) w_ji;
  let g', d = Stream.delta ~layout g [ (1, 2); (2, 1) ] in
  S.check_bool "flip-then-unflip graph" true (Graph.edges g' = Graph.edges g);
  Alcotest.(check (array (pair int bool)))
    "delta toggles both mirror wires, in order"
    [| (w_ij, true); (w_ji, true); (w_ji, false); (w_ij, false) |]
    d;
  try
    ignore (Stream.delta ~layout (Graph.empty 5) [ (0, 1) ]);
    Alcotest.fail "expected invalid_arg (size mismatch)"
  with Invalid_argument _ -> ()

(* Stream deltas drive an incremental trace-circuit session: after every
   flip batch the session must agree with a from-scratch packed run and
   with the combinatorial triangle count. *)
let test_stream_incremental_trace () =
  let rng = Prng.create ~seed:77 in
  let n = 8 in
  let g = ref (Generate.erdos_renyi rng ~n ~p:0.4) in
  let tau = 6 * Triangles.count !g in
  let built =
    Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
      ~schedule:(Tcmm.Level_schedule.uniform ~steps:2 ~l:3) ~entry_bits:1 ~tau
      ~n ()
  in
  let layout = built.Tcmm.Trace_circuit.layout in
  let p = Tcmm.Trace_circuit.pack built in
  let ss =
    Tcmm_threshold.Packed.session p
      (Tcmm.Trace_circuit.encode_input built (Graph.adjacency !g))
  in
  for _ = 1 to 12 do
    let flips =
      List.init
        (1 + Prng.int rng ~bound:3)
        (fun _ ->
          let i = Prng.int rng ~bound:n in
          let j = (i + 1 + Prng.int rng ~bound:(n - 1)) mod n in
          (i, j))
    in
    let g', d = Stream.delta ~layout !g flips in
    g := g';
    let r = Tcmm_threshold.Packed.update ss d in
    let input = Tcmm.Trace_circuit.encode_input built (Graph.adjacency !g) in
    S.check_bool "session inputs track the graph" true
      (Tcmm_threshold.Packed.session_inputs ss = input);
    let full = Tcmm_threshold.Packed.run p input in
    S.check_bool "outputs = from-scratch" true
      (r.Tcmm_threshold.Simulator.outputs = full.Tcmm_threshold.Simulator.outputs);
    S.check_int "firings = from-scratch" full.Tcmm_threshold.Simulator.firings
      r.Tcmm_threshold.Simulator.firings;
    S.check_bool "level firings = from-scratch" true
      (r.Tcmm_threshold.Simulator.level_firings
      = full.Tcmm_threshold.Simulator.level_firings);
    S.check_bool "decides 6*triangles >= tau" true
      (r.Tcmm_threshold.Simulator.outputs
      = [| 6 * Triangles.count !g >= tau |])
  done

(* The served trace8 circuit (Strassen, thm45, d=2, N=8, tau 6, Direct
   with kernels) under 200 single-edge flips of a seeded ER p=0.3
   graph.  The session's dirty totals are pinned to those of the OCaml
   level sweep the C sweep replaced: the sweep must re-decide exactly
   the same segments, not merely reach the same answers.  Every 20th
   state is also compared bit for bit (every wire value, outputs,
   firings, level firings) with a from-scratch run. *)
let test_stream_trace8_pinned_counts () =
  let rng = Prng.create ~seed:2026 in
  let n = 8 in
  let g = ref (Generate.erdos_renyi rng ~n ~p:0.3) in
  let algo = Tcmm_fastmm.Instances.strassen in
  let built =
    Tcmm.Trace_circuit.build ~mode:Tcmm_threshold.Builder.Direct ~algo
      ~schedule:(Tcmm.Level_schedule.resolve ~algo ~name:"thm45" ~d:2 ~n)
      ~entry_bits:1 ~tau:6 ~n ()
  in
  let layout = built.Tcmm.Trace_circuit.layout in
  let p = Tcmm.Trace_circuit.pack built in
  let ss =
    Tcmm_threshold.Packed.session p
      (Tcmm.Trace_circuit.encode_input built (Graph.adjacency !g))
  in
  for k = 1 to 200 do
    let i = Prng.int rng ~bound:n in
    let j = (i + 1 + Prng.int rng ~bound:(n - 1)) mod n in
    let g', d = Stream.delta ~layout !g [ (i, j) ] in
    g := g';
    let r = Tcmm_threshold.Packed.update ss d in
    if k mod 20 = 0 then begin
      let full =
        Tcmm_threshold.Packed.run p
          (Tcmm.Trace_circuit.encode_input built (Graph.adjacency !g))
      in
      let open Tcmm_threshold.Simulator in
      S.check_bool (Printf.sprintf "flip %d: wire values" k) true
        (Bytes.equal r.values full.values);
      S.check_bool (Printf.sprintf "flip %d: outputs" k) true
        (r.outputs = full.outputs);
      S.check_int (Printf.sprintf "flip %d: firings" k) full.firings r.firings;
      S.check_bool (Printf.sprintf "flip %d: level firings" k) true
        (r.level_firings = full.level_firings)
    end
  done;
  let st = Tcmm_threshold.Packed.session_stats ss in
  S.check_int "updates" 200 st.Tcmm_threshold.Packed.su_updates;
  S.check_int "flips" 400 st.Tcmm_threshold.Packed.su_flips;
  S.check_int "dirty segments" 114_261 st.Tcmm_threshold.Packed.su_dirty_segments;
  S.check_int "dirty gates" 339_285 st.Tcmm_threshold.Packed.su_dirty_gates

(* ------------------------------------------------------------------ *)
(* End-to-end: trace circuit counts triangles                         *)
(* ------------------------------------------------------------------ *)

let test_trace_circuit_counts_triangles () =
  (* The headline application: trace(A^3) = 6 * triangles, so the
     threshold circuit with tau = 6*t answers "at least t triangles?". *)
  let rng = Prng.create ~seed:62 in
  let g = Generate.erdos_renyi rng ~n:8 ~p:0.5 in
  let t = Triangles.count g in
  let adj = Graph.adjacency g in
  let schedule = Tcmm.Level_schedule.uniform ~steps:2 ~l:3 in
  let built_yes =
    Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen ~schedule
      ~entry_bits:1 ~tau:(6 * t) ~n:8 ()
  in
  S.check_bool "has >= t triangles" true (Tcmm.Trace_circuit.run built_yes adj);
  S.check_int "trace = 6 * triangles" (6 * t)
    (Tcmm.Trace_circuit.trace_value built_yes adj);
  let built_no =
    Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen ~schedule
      ~entry_bits:1 ~tau:((6 * t) + 1) ~n:8 ()
  in
  S.check_bool "not >= t+1/6" false (Tcmm.Trace_circuit.run built_no adj)

let prop_triangles_relabel_invariant =
  S.qcheck_case ~count:30 "triangle count invariant under vertex relabeling"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 4 + Prng.int rng ~bound:6 in
      let g = Generate.erdos_renyi rng ~n ~p:0.4 in
      (* A random permutation via sorting with random keys. *)
      let perm =
        List.init n (fun i -> (Prng.next rng, i))
        |> List.sort compare |> List.map snd |> Array.of_list
      in
      let relabeled =
        Graph.of_edges ~n
          (List.map (fun (i, j) -> (perm.(i), perm.(j))) (Graph.edges g))
      in
      Triangles.count g = Triangles.count relabeled
      && Triangles.wedges g = Triangles.wedges relabeled)

let prop_trace_circuit_random_graphs =
  S.qcheck_case ~count:15 "trace circuit counts triangles on random graphs"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let g = Generate.erdos_renyi rng ~n:8 ~p:(0.2 +. (0.5 *. Prng.float rng)) in
      let t = Triangles.count g in
      let built =
        Tcmm.Trace_circuit.build ~algo:Tcmm_fastmm.Instances.strassen
          ~schedule:(Tcmm.Level_schedule.uniform ~steps:2 ~l:3) ~entry_bits:1
          ~tau:(6 * t) ~n:8 ()
      in
      Tcmm.Trace_circuit.trace_value built (Graph.adjacency g) = 6 * t)

let () =
  Alcotest.run "tcmm_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "rejections" `Quick test_graph_rejections;
          Alcotest.test_case "degree/neighbours" `Quick test_graph_degree_neighbours;
          Alcotest.test_case "adjacency roundtrip" `Quick test_graph_adjacency_roundtrip;
          Alcotest.test_case "of_adjacency rejections" `Quick
            test_graph_of_adjacency_rejections;
          Alcotest.test_case "pad" `Quick test_graph_pad;
        ] );
      ( "triangles",
        [
          Alcotest.test_case "known counts" `Quick test_triangles_known;
          Alcotest.test_case "trace agreement" `Quick test_triangles_trace_agreement;
          Alcotest.test_case "wedges" `Quick test_wedges_known;
          Alcotest.test_case "clustering" `Quick test_clustering_coefficient;
          Alcotest.test_case "per vertex" `Quick test_per_vertex;
        ] );
      ( "generate",
        [
          Alcotest.test_case "ER determinism/extremes" `Quick
            test_er_determinism_and_p_extremes;
          Alcotest.test_case "ER edge count" `Quick test_er_edge_count_plausible;
          Alcotest.test_case "blocked community" `Quick test_blocked_community_structure;
          Alcotest.test_case "expectation formulas" `Quick test_expected_formulas;
          prop_generators_wellformed;
          prop_generators_references_agree;
        ] );
      ( "stream",
        [
          Alcotest.test_case "flip edges" `Quick test_flip_edges_basic;
          prop_flip_edges_involutive;
          Alcotest.test_case "delta wires" `Quick test_stream_delta_wires;
          Alcotest.test_case "incremental trace session" `Quick
            test_stream_incremental_trace;
          Alcotest.test_case "trace8 session pinned dirty counts" `Quick
            test_stream_trace8_pinned_counts;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "trace circuit counts triangles" `Quick
            test_trace_circuit_counts_triangles;
          prop_triangles_relabel_invariant;
          prop_trace_circuit_random_graphs;
        ] );
    ]
