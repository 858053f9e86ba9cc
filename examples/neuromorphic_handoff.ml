(* The neuromorphic hand-off: serialize a circuit, reload it, and run it
   under spiking (per-tick synchronous) semantics.

   The paper's motivation is hardware whose neurons all update once per
   tick (TrueNorth, SpiNNaker, Loihi).  This example builds a
   constant-depth triangle-threshold circuit, writes it out as a plain
   netlist (the hand-off artifact an external toolchain would consume),
   parses it back, and drives the reloaded circuit as a spiking network:
   the answer appears after exactly depth ticks and stays fixed — the
   concrete meaning of "constant-depth circuit = constant-time
   neuromorphic algorithm".

   Run with: dune exec examples/neuromorphic_handoff.exe *)

module F = Tcmm_fastmm
module G = Tcmm_graph
module T = Tcmm
module Th = Tcmm_threshold

let () =
  let n = 8 in
  let rng = Tcmm_util.Prng.create ~seed:21 in
  let g = G.Generate.erdos_renyi rng ~n ~p:0.5 in
  let triangles = G.Triangles.count g in
  Format.printf "Graph: ER(%d, 0.5) with %d edges and %d triangles@." n
    (G.Graph.num_edges g) triangles;

  (* Ask: at least `triangles` triangles? (boundary case: must fire). *)
  let profile = F.Sparsity.analyze F.Instances.strassen in
  let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
  let built =
    T.Trace_circuit.build ~algo:F.Instances.strassen ~schedule ~entry_bits:1
      ~tau:(6 * triangles) ~n ()
  in
  let circuit = T.Trace_circuit.circuit built in
  Format.printf "Circuit: %s@." (Th.Stats.to_row (Th.Circuit.stats circuit));

  (* Serialize and reload — the netlist is the hardware hand-off format. *)
  let netlist = Th.Export.to_netlist circuit in
  let path = Filename.temp_file "tcmm" ".netlist" in
  Th.Export.write_file path netlist;
  Format.printf "Netlist: %d bytes written to %s@." (String.length netlist) path;
  let reloaded = Th.Export.of_netlist netlist in
  Format.printf "Reloaded: %d gates, %d inputs@."
    (Th.Circuit.num_gates reloaded)
    reloaded.Th.Circuit.num_inputs;

  (* Drive the reloaded circuit as a spiking network. *)
  let input = T.Trace_circuit.encode_input built (G.Graph.adjacency g) in
  let st = Th.Spiking.init reloaded input in
  let depth = (Th.Circuit.stats reloaded).Th.Stats.depth in
  Format.printf "@.Spiking run (depth %d):@." depth;
  for tick = 1 to depth + 1 do
    Th.Spiking.tick st;
    Format.printf "  tick %d: output = %b@." tick (Th.Spiking.outputs st).(0)
  done;
  let ticks, outputs = Th.Spiking.settle reloaded input in
  let reference = Th.Simulator.read_outputs circuit input in
  Format.printf "@.Settled after %d ticks; output %b (DAG semantics: %b)@." ticks
    outputs.(0) reference.(0);
  Format.printf "Answer: G has at least %d triangles -> %b (truth: true)@." triangles
    outputs.(0);
  Sys.remove path;
  if outputs <> reference || not outputs.(0) then exit 1
