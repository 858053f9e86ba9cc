(* Social-network triangle counting with the trace circuit (paper,
   Sections 2.3 and 5).

   A graph G with adjacency matrix A has trace(A^3) = 6 * (#triangles),
   so the constant-depth circuit answering "trace(A^3) >= tau?" answers
   "does G have at least tau/6 triangles?".  Repeating the query with a
   binary search recovers the exact count using O(log N) circuit
   evaluations — still constant depth per query.

   Run with: dune exec examples/triangle_count.exe *)

module F = Tcmm_fastmm
module G = Tcmm_graph
module T = Tcmm

let build_query ~schedule ~n ~tau =
  T.Trace_circuit.build ~algo:F.Instances.strassen ~schedule ~entry_bits:1
    ~tau:(6 * tau) ~n ()

let () =
  let n = 8 in
  let rng = Tcmm_util.Prng.create ~seed:11 in
  (* A community-structured graph: two dense blocks, sparse background. *)
  let g = G.Generate.blocked_community rng ~blocks:2 ~block_size:4 ~p_in:0.9 ~p_out:0.1 in
  let adj = G.Graph.adjacency g in
  Format.printf "Graph: %d vertices, %d edges, clustering coefficient %.3f@."
    (G.Graph.num_vertices g) (G.Graph.num_edges g)
    (G.Triangles.clustering_coefficient g);

  let exact = G.Triangles.count g in
  Format.printf "Exact triangle count (combinatorial reference): %d@.@." exact;

  (* Constant-depth threshold queries: Theorem 4.5 schedule with d = 2. *)
  let profile = F.Sparsity.analyze F.Instances.strassen in
  let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
  Format.printf "Schedule %a -> circuit depth %d@.@." T.Level_schedule.pp schedule
    (T.Gate_model.trace_depth schedule);

  (* One query. *)
  let q = build_query ~schedule ~n ~tau:5 in
  Format.printf "Does G have at least 5 triangles?  circuit says %b@."
    (T.Trace_circuit.run q adj);
  Format.printf "Circuit size: %s@.@."
    (Tcmm_threshold.Stats.to_row (T.Trace_circuit.stats q));

  (* Binary search for the exact count; each probe is a fresh circuit
     evaluated once. *)
  let upper =
    let nv = G.Graph.num_vertices g in
    nv * (nv - 1) * (nv - 2) / 6
  in
  let probes = ref 0 in
  let rec search lo hi =
    (* Invariant: count >= lo and count < hi. *)
    if lo + 1 >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      incr probes;
      let fires = T.Trace_circuit.run (build_query ~schedule ~n ~tau:mid) adj in
      if fires then search mid hi else search lo mid
    end
  in
  let found = search 0 (upper + 1) in
  Format.printf "Binary search over thresholds: %d triangles in %d probes@." found !probes;
  Format.printf "Agrees with the reference: %b@.@." (found = exact);

  (* Alternative: one circuit with canonical value outputs gives the
     exact trace — and hence the exact count — in a single evaluation. *)
  let built, norm =
    T.Trace_circuit.build_with_value ~algo:F.Instances.strassen ~schedule
      ~entry_bits:1 ~tau:0 ~n ()
  in
  let circuit = T.Trace_circuit.circuit built in
  let r =
    Tcmm_threshold.Simulator.run circuit (T.Trace_circuit.encode_input built adj)
  in
  let trace =
    Tcmm_arith.Repr.eval_bits
      (Tcmm_threshold.Simulator.value r)
      norm.Tcmm_arith.Binary.magnitude
  in
  Format.printf
    "Single evaluation with value outputs: trace(A^3) = %d -> %d triangles@." trace
    (trace / 6);
  if found <> exact || trace / 6 <> exact then exit 1
