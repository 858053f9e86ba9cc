(* Command-line interface to the threshold-circuit matrix multiplication
   library.

   Subcommands:
     algorithms  - list bundled fast matmul algorithms with sparsity data
     stats       - exact circuit statistics for chosen parameters
     verify      - build circuits and check them against integer references
     triangles   - threshold-query triangles of a random graph
     serve       - run the circuit-serving daemon
     request     - query a running daemon
     infer       - served im2col convolution, checked against the direct conv
     compile     - batch-build circuits into a persistent artifact store
     artifacts   - list / inspect / verify / gc an artifact store *)

open Cmdliner
module F = Tcmm_fastmm
module T = Tcmm
module Tb = Tcmm_util.Tablefmt
module P = Tcmm_server.Protocol

let algo_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (F.Instances.find s) in
  let print ppf a = Format.fprintf ppf "%s" a.F.Bilinear.name in
  Arg.conv (parse, print)

let algo_term =
  Arg.(
    value
    & opt algo_arg F.Instances.strassen
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc:"Fast matmul algorithm to compile.")

let n_term =
  Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Matrix dimension (a power of the algorithm's T).")

let d_term =
  Arg.(
    value
    & opt int 2
    & info [ "d" ] ~docv:"D" ~doc:"Theorem 4.5 depth parameter (d >= 1).")

let bits_term =
  Arg.(value & opt int 1 & info [ "b"; "bits" ] ~docv:"BITS" ~doc:"Bits per entry.")

let schedule_term =
  Arg.(
    value
    & opt string "thm45"
    & info [ "s"; "schedule" ] ~docv:"SCHED"
        ~doc:"Level schedule: thm44, thm45, full, direct, or uniform-K.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let resolve_schedule ~algo ~name ~d ~n = T.Level_schedule.resolve ~algo ~name ~d ~n

let engine_term =
  Arg.(
    value
    & opt
        (enum
           [
             ("packed", Tcmm_threshold.Simulator.Packed);
             ("reference", Tcmm_threshold.Simulator.Reference);
           ])
        Tcmm_threshold.Simulator.Packed
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Evaluator: $(b,packed) (levelized, default) or $(b,reference).")

let profile_build_term =
  Arg.(
    value & flag
    & info [ "profile-build" ]
        ~doc:"Print the construct / stamp / lower phase breakdown of each build.")

let profile_eval_term =
  Arg.(
    value & flag
    & info [ "profile-eval" ]
        ~doc:
          "Accumulate and print the per-level evaluation wall-time breakdown \
           of batched runs.")

(* ------------------------------------------------------------------ *)

let algorithms_cmd =
  let run () =
    let rows =
      List.filter_map
        (fun algo ->
          match F.Sparsity.analyze algo with
          | p ->
              Some
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
                ]
          | exception Invalid_argument _ -> None)
        (F.Instances.all ())
    in
    Tb.print ~title:"Bundled fast matrix multiplication algorithms (Definition 2.1)"
      ~header:[ "name"; "T"; "r"; "omega"; "s_A"; "s_B"; "s_C"; "alpha"; "beta"; "gamma"; "c" ]
      ~rows;
    0
  in
  Cmd.v (Cmd.info "algorithms" ~doc:"List bundled algorithms and their sparsity profiles.")
    Term.(const run $ const ())

let stats_cmd =
  let run algo n d bits sched =
    let schedule = resolve_schedule ~algo ~name:sched ~d ~n in
    Format.printf "schedule: %a@." T.Level_schedule.pp schedule;
    let trace =
      T.Trace_circuit.build ~mode:Tcmm_threshold.Builder.Count_only ~algo ~schedule
        ~entry_bits:bits ~tau:1 ~n ()
    in
    let matmul =
      T.Matmul_circuit.build ~mode:Tcmm_threshold.Builder.Count_only ~algo ~schedule
        ~entry_bits:bits ~n ()
    in
    let row name (s : Tcmm_threshold.Stats.t) =
      [
        Tb.Str name; Tb.Int s.gates; Tb.Int s.depth; Tb.Int s.edges;
        Tb.Int s.max_fan_in; Tb.Int s.max_abs_weight;
      ]
    in
    Tb.print
      ~title:(Printf.sprintf "Exact circuit statistics (N=%d, %s, %d-bit entries)" n
                algo.F.Bilinear.name bits)
      ~header:[ "circuit"; "gates"; "depth"; "edges"; "fan-in"; "|w|max" ]
      ~rows:[ row "trace(A^3) >= tau" (T.Trace_circuit.stats trace);
              row "C = A*B" (T.Matmul_circuit.stats matmul) ];
    0
  in
  Cmd.v (Cmd.info "stats" ~doc:"Exact gate/depth/edge counts for chosen parameters.")
    Term.(const run $ algo_term $ n_term $ d_term $ bits_term $ schedule_term)

let verify_cmd =
  let run algo n d bits sched seed engine profile profile_eval =
    (* The build goes straight to the packed CSR form; the reference
       engine interprets the per-gate circuit the builder expands. *)
    let profile_phases name builder ~construct ~lower =
      if profile then begin
        let ts = Tcmm_threshold.Builder.template_stats builder in
        Format.printf
          "%s phases: construct %.3fs, lower %.3fs (%d templates, %d instances, \
           %d stamped gates)@."
          name construct lower ts.Tcmm_threshold.Builder.templates
          ts.Tcmm_threshold.Builder.instances
          ts.Tcmm_threshold.Builder.stamped_gates
      end
    in
    let schedule = resolve_schedule ~algo ~name:sched ~d ~n in
    let rng = Tcmm_util.Prng.create ~seed in
    let hi = (1 lsl bits) - 1 in
    let a = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi in
    let b = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi in
    Format.printf "building C = A*B circuit (N=%d, %s, schedule %a)...@." n
      algo.F.Bilinear.name T.Level_schedule.pp schedule;
    let t0 = Unix.gettimeofday () in
    let built =
      T.Matmul_circuit.build ~algo ~schedule ~signed_inputs:true
        ~entry_bits:bits ~n ()
    in
    let t1 = Unix.gettimeofday () in
    let packed = T.Matmul_circuit.pack built in
    let t2 = Unix.gettimeofday () in
    profile_phases "matmul" built.T.Matmul_circuit.builder ~construct:(t1 -. t0)
      ~lower:(t2 -. t1);
    Format.printf "circuit: %s@."
      (Tcmm_threshold.Stats.to_row (T.Matmul_circuit.stats built));
    let cov = Tcmm_threshold.Packed.coverage packed in
    let cov_total =
      cov.Tcmm_threshold.Packed.kernel_gates
      + cov.Tcmm_threshold.Packed.fallback_gates
    in
    Format.printf "kernels: %d/%d gates (%.1f%% coverage, %d/%d segments)@."
      cov.Tcmm_threshold.Packed.kernel_gates cov_total
      (if cov_total = 0 then 0.
       else
         100.
         *. float_of_int cov.Tcmm_threshold.Packed.kernel_gates
         /. float_of_int cov_total)
      cov.Tcmm_threshold.Packed.kernel_segments
      (cov.Tcmm_threshold.Packed.kernel_segments
      + cov.Tcmm_threshold.Packed.generic_segments);
    let c = T.Matmul_circuit.run ~engine built ~a ~b in
    let ok_mm = F.Matrix.equal c (F.Matrix.mul a b) in
    Format.printf "matmul circuit matches reference: %b@." ok_mm;
    if profile_eval then begin
      (* Batched traversals with a per-level profile: several batches of
         fresh draws through the same packed circuit, all through one
         reused workspace — the same amortization the serving daemon
         does, instead of allocating and zeroing a wire buffer per
         batch. *)
      let batches = 4 and lanes = 8 in
      let ws = Tcmm_threshold.Packed.workspace () in
      let prof = Tcmm_threshold.Packed.make_profile packed in
      for _ = 1 to batches do
        let inputs =
          Array.init lanes (fun _ ->
              let a = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi in
              let b = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-hi) ~hi in
              T.Matmul_circuit.encode_inputs built ~a ~b)
        in
        let (_ : Tcmm_threshold.Packed.batch_result) =
          Tcmm_threshold.Packed.run_batch ~profile:prof ~ws packed inputs
        in
        ()
      done;
      let ns = prof.Tcmm_threshold.Packed.ep_level_ns in
      let total = Array.fold_left ( +. ) 0. ns in
      Format.printf "eval profile: %d batches of %d lanes in %.3f ms, hottest levels:@."
        batches lanes (total /. 1e6);
      let order = Array.init (Array.length ns) (fun i -> i) in
      Array.sort (fun x y -> compare ns.(y) ns.(x)) order;
      Array.iteri
        (fun rank l ->
          if rank < 5 && ns.(l) > 0. then
            Format.printf "  level %3d: %8.3f ms (%.1f%%)@." l (ns.(l) /. 1e6)
              (100. *. ns.(l) /. total))
        order
    end;
    let m = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi in
    let expect = T.Trace_circuit.reference m in
    let t0 = Unix.gettimeofday () in
    let trace =
      T.Trace_circuit.build ~algo ~schedule ~entry_bits:bits ~tau:expect
        ~n ()
    in
    let t1 = Unix.gettimeofday () in
    let (_ : Tcmm_threshold.Packed.t) = T.Trace_circuit.pack trace in
    let t2 = Unix.gettimeofday () in
    profile_phases "trace" trace.T.Trace_circuit.builder ~construct:(t1 -. t0)
      ~lower:(t2 -. t1);
    let ok_tr =
      T.Trace_circuit.trace_value ~engine trace m = expect
      && T.Trace_circuit.run ~engine trace m
    in
    Format.printf "trace circuit matches reference: %b@." ok_tr;
    if ok_mm && ok_tr then 0 else 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Build circuits and check them against integer references.")
    Term.(
      const run $ algo_term $ n_term $ d_term $ bits_term $ schedule_term $ seed_term
      $ engine_term $ profile_build_term $ profile_eval_term)

let triangles_cmd =
  let run n d p tau seed engine graphs =
    let rng = Tcmm_util.Prng.create ~seed in
    let g = Tcmm_graph.Generate.erdos_renyi rng ~n ~p in
    let exact = Tcmm_graph.Triangles.count g in
    Format.printf "G(n=%d, p=%.2f): %d edges, %d triangles, clustering %.3f@." n p
      (Tcmm_graph.Graph.num_edges g) exact
      (Tcmm_graph.Triangles.clustering_coefficient g);
    let algo = F.Instances.strassen in
    let profile = F.Sparsity.analyze algo in
    let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
    let built = T.Trace_circuit.build ~algo ~schedule ~entry_bits:1 ~tau:(6 * tau) ~n () in
    let fires = T.Trace_circuit.run ~engine built (Tcmm_graph.Graph.adjacency g) in
    Format.printf "circuit (depth %d, %s): at least %d triangles? %b (truth: %b)@."
      (T.Gate_model.trace_depth schedule)
      (Tcmm_threshold.Stats.to_row (T.Trace_circuit.stats built))
      tau fires (exact >= tau);
    (* Further draws go through batched packed evaluation with one
       reused workspace across chunks — the serving daemon's
       amortization, instead of allocating and zeroing a fresh wire
       buffer per graph. *)
    let ok_rest =
      if graphs <= 1 then true
      else begin
        let packed = T.Trace_circuit.pack built in
        let ws = Tcmm_threshold.Packed.workspace () in
        let out = built.T.Trace_circuit.output in
        let remaining = ref (graphs - 1) and agree = ref 0 and total = ref 0 in
        while !remaining > 0 do
          let lanes = min 32 !remaining in
          let gs =
            Array.init lanes (fun _ -> Tcmm_graph.Generate.erdos_renyi rng ~n ~p)
          in
          let inputs =
            Array.map
              (fun g ->
                T.Trace_circuit.encode_input built (Tcmm_graph.Graph.adjacency g))
              gs
          in
          let br = Tcmm_threshold.Packed.run_batch ~ws packed inputs in
          Array.iteri
            (fun lane g ->
              incr total;
              let fires = Tcmm_threshold.Packed.batch_value br ~lane out in
              if fires = (Tcmm_graph.Triangles.count g >= tau) then incr agree)
            gs;
          remaining := !remaining - lanes
        done;
        Format.printf "batched: %d/%d further graphs agree with the exact count@."
          !agree !total;
        !agree = !total
      end
    in
    if fires = (exact >= tau) && ok_rest then 0 else 1
  in
  let p_term =
    Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.")
  in
  let tau_term =
    Arg.(value & opt int 5 & info [ "t"; "tau" ] ~docv:"TAU" ~doc:"Triangle threshold.")
  in
  let graphs_term =
    Arg.(
      value & opt int 8
      & info [ "graphs" ] ~docv:"K"
          ~doc:
            "Total random graphs to query; draws beyond the first are \
             evaluated batched through a reused workspace.")
  in
  Cmd.v
    (Cmd.info "triangles" ~doc:"Threshold-query the triangle count of a random graph.")
    Term.(
      const run $ n_term $ d_term $ p_term $ tau_term $ seed_term $ engine_term
      $ graphs_term)

(* The streaming edge-flip scenario: hold a graph, send flips, and
   re-answer the triangle threshold query incrementally — locally
   through a [Packed.session], or against a running daemon's stateful
   session. *)
let stream_cmd =
  let run n d p tau seed updates flips_per_update addr =
    let rng = Tcmm_util.Prng.create ~seed in
    let g = ref (Tcmm_graph.Generate.erdos_renyi rng ~n ~p) in
    let circuit_tau = 6 * tau in
    let random_flips () =
      List.init flips_per_update (fun _ ->
          let i = Tcmm_util.Prng.int rng ~bound:(n - 1) in
          let j = Tcmm_util.Prng.int_range rng ~lo:(i + 1) ~hi:(n - 1) in
          (i, j))
    in
    Format.printf "G(n=%d, p=%.2f): %d edges, %d triangles; tau = %d@." n p
      (Tcmm_graph.Graph.num_edges !g)
      (Tcmm_graph.Triangles.count !g)
      tau;
    let mismatches = ref 0 in
    let report step fires dirty total ms =
      let truth = Tcmm_graph.Triangles.count !g >= tau in
      if fires <> truth then incr mismatches;
      Format.printf
        "update %3d: >= %d triangles? %b (truth %b)  dirty %d/%d gates  %.3f ms@."
        step tau fires truth dirty total ms
    in
    (match addr with
    | Some addr ->
        (* Remote: the daemon holds the session; we only ship deltas.
           The input layout is reconstructed from the spec (trace
           circuits allocate the adjacency entries first, base 0) so no
           circuit is built client-side. *)
        let layout =
          T.Encode.restore ~rows:n ~cols:n ~entry_bits:1 ~signed:false ~base:0
        in
        let spec =
          {
            P.kind = P.Triangles;
            algo = "strassen";
            schedule = "thm45";
            d;
            n;
            entry_bits = 1;
            signed = false;
            tau;
            kronpow = false;
          }
        in
        let addr =
          match P.parse_addr addr with
          | Ok a -> a
          | Error msg -> failwith ("tcmm stream: " ^ msg)
        in
        Tcmm_server.Client.with_connection addr (fun cl ->
            match
              Tcmm_server.Client.open_session cl spec
                (Tcmm_graph.Graph.adjacency !g)
            with
            | Error e -> failwith ("open_session: " ^ e)
            | Ok so ->
                let sid = so.P.so_sid in
                Format.printf "session %d open: fires %b (%d firings)@." sid
                  so.P.so_fires so.P.so_firings;
                for step = 1 to updates do
                  let g', delta =
                    Tcmm_graph.Stream.delta ~layout !g (random_flips ())
                  in
                  g := g';
                  let t0 = Unix.gettimeofday () in
                  match Tcmm_server.Client.update cl ~sid delta with
                  | Error e -> failwith ("update: " ^ e)
                  | Ok u ->
                      report step u.P.ur_fires u.P.ur_dirty_gates u.P.ur_gates
                        ((Unix.gettimeofday () -. t0) *. 1e3)
                done;
                (match Tcmm_server.Client.close_session cl ~sid with
                | Ok () -> ()
                | Error e -> Format.printf "close_session: %s@." e))
    | None ->
        let algo = F.Instances.strassen in
        let profile = F.Sparsity.analyze algo in
        let schedule = T.Level_schedule.theorem45 ~profile ~d ~n in
        let built =
          T.Trace_circuit.build ~algo ~schedule ~entry_bits:1 ~tau:circuit_tau
            ~n ()
        in
        let packed = T.Trace_circuit.pack built in
        let layout = built.T.Trace_circuit.layout in
        let out = built.T.Trace_circuit.output in
        let session =
          Tcmm_threshold.Packed.session packed
            (T.Trace_circuit.encode_input built (Tcmm_graph.Graph.adjacency !g))
        in
        let gates = Tcmm_threshold.Packed.num_gates packed in
        let last_dirty = ref 0 in
        for step = 1 to updates do
          let g', delta = Tcmm_graph.Stream.delta ~layout !g (random_flips ()) in
          g := g';
          let t0 = Unix.gettimeofday () in
          let res = Tcmm_threshold.Packed.update session delta in
          let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          let stats = Tcmm_threshold.Packed.session_stats session in
          let dirty = stats.Tcmm_threshold.Packed.su_dirty_gates - !last_dirty in
          last_dirty := stats.Tcmm_threshold.Packed.su_dirty_gates;
          let fires =
            Bytes.get res.Tcmm_threshold.Simulator.values out <> '\000'
          in
          report step fires dirty gates ms
        done;
        let s = Tcmm_threshold.Packed.session_stats session in
        Format.printf
          "session: %d updates, %d input flips, %d/%d gates re-decided (%.2f%%)@."
          s.Tcmm_threshold.Packed.su_updates s.Tcmm_threshold.Packed.su_flips
          s.Tcmm_threshold.Packed.su_dirty_gates
          (s.Tcmm_threshold.Packed.su_updates * s.Tcmm_threshold.Packed.su_gates)
          (100.
          *. float_of_int s.Tcmm_threshold.Packed.su_dirty_gates
          /. float_of_int
               (max 1
                  (s.Tcmm_threshold.Packed.su_updates
                  * s.Tcmm_threshold.Packed.su_gates))));
    if !mismatches = 0 then 0 else 1
  in
  let p_term =
    Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.")
  in
  let tau_term =
    Arg.(value & opt int 5 & info [ "t"; "tau" ] ~docv:"TAU" ~doc:"Triangle threshold.")
  in
  let updates_term =
    Arg.(
      value & opt int 16
      & info [ "updates" ] ~docv:"K" ~doc:"Edge-flip updates to stream.")
  in
  let flips_term =
    Arg.(
      value & opt int 1
      & info [ "flips" ] ~docv:"B" ~doc:"Edge flips per update (delta batch size).")
  in
  let addr_opt_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "Stream against a running daemon's stateful session instead of \
             evaluating locally: $(b,HOST:PORT) for TCP, anything else is a \
             Unix socket path.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Stream random edge flips through an incremental dirty-cone \
          session — local, or against a serving daemon with \
          $(b,--addr).  Exits 1 if any update disagrees with the exact \
          triangle count.")
    Term.(
      const run $ n_term $ d_term $ p_term $ tau_term $ seed_term $ updates_term
      $ flips_term $ addr_opt_term)

let export_cmd =
  let run algo n d bits sched kind path =
    let schedule = resolve_schedule ~algo ~name:sched ~d ~n in
    let built =
      T.Trace_circuit.build ~algo ~schedule ~entry_bits:bits ~tau:1 ~n ()
    in
    let c = T.Trace_circuit.circuit built in
    let contents =
      match kind with
      | "netlist" -> Tcmm_threshold.Export.to_netlist c
      | "dot" -> Tcmm_threshold.Export.to_dot ~max_gates:100000 c
      | k -> failwith (Printf.sprintf "unknown format %S (netlist|dot)" k)
    in
    Tcmm_threshold.Export.write_file path contents;
    Format.printf "wrote %s (%s, %s)@." path kind
      (Tcmm_threshold.Stats.to_row (T.Trace_circuit.stats built));
    0
  in
  let kind_term =
    Arg.(value & opt string "netlist" & info [ "f"; "format" ] ~docv:"FMT" ~doc:"netlist or dot.")
  in
  let path_term =
    Arg.(value & opt string "circuit.tcmm" & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Build a trace circuit and write it as a netlist or GraphViz DOT file.")
    Term.(const run $ algo_term $ n_term $ d_term $ bits_term $ schedule_term $ kind_term $ path_term)

let orbit_cmd =
  let run algo limit =
    (match F.Sparsity.analyze algo with
    | p -> Format.printf "start: %s, sparsity %d@." algo.F.Bilinear.name p.F.Sparsity.sparsity
    | exception Invalid_argument _ -> ());
    let r =
      match limit with
      | 0 -> F.Orbit.search algo
      | l -> F.Orbit.search ~limit:l algo
    in
    Format.printf
      "searched %d unimodular sandwiching triples; best sparsity in orbit: %d (%s)@."
      r.F.Orbit.triples_tried r.F.Orbit.sparsity
      (if r.F.Orbit.better_than_start then "improved" else "no improvement");
    if r.F.Orbit.better_than_start then
      Format.printf "improved algorithm:@.%a@." F.Bilinear.pp r.F.Orbit.algorithm;
    0
  in
  let limit_term =
    Arg.(value & opt int 0 & info [ "limit" ] ~docv:"K" ~doc:"Cap triples (0 = exhaustive).")
  in
  Cmd.v
    (Cmd.info "orbit"
       ~doc:"Search the algorithm's unimodular sandwiching orbit for minimum sparsity.")
    Term.(const run $ algo_term $ limit_term)

(* ------------------------------------------------------------------ *)

let addr_term =
  Arg.(
    value
    & opt string "/tmp/tcmm.sock"
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:"Server address: $(b,HOST:PORT) for TCP, anything else is a Unix socket path.")

let serve_cmd =
  let run addr cache lanes flush profile profile_eval max_pending deadline grace
      store workers reuseport control verbose =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
    match P.parse_addr addr with
    | Error msg ->
        Format.eprintf "tcmm serve: %s@." msg;
        1
    | Ok a -> (
        let cfg =
          {
            (Tcmm_server.Server.default_config a) with
            cache_capacity = cache;
            flush_ms = flush;
            max_lanes = lanes;
            profile_build = profile;
            profile_eval;
            max_pending;
            deadline_ms = deadline;
            grace_s = grace;
            store;
          }
        in
        if workers <= 1 then (
          Tcmm_server.Server.serve cfg;
          0)
        else
          let control =
            match control with
            | None -> Ok None
            | Some c -> Result.map Option.some (P.parse_addr c)
          in
          match control with
          | Error msg ->
              Format.eprintf "tcmm serve: --control: %s@." msg;
              1
          | Ok control -> (
              match
                {
                  (Tcmm_server.Fleet.default_config cfg) with
                  workers;
                  reuseport;
                  control;
                }
              with
              | fleet_cfg -> (
                  try
                    Tcmm_server.Fleet.run fleet_cfg;
                    0
                  with Invalid_argument msg ->
                    Format.eprintf "tcmm serve: %s@." msg;
                    1)))
  in
  let cache_term =
    Arg.(
      value & opt int 8
      & info [ "cache" ] ~docv:"K" ~doc:"Compiled circuits kept resident (LRU).")
  in
  let lanes_term =
    Arg.(
      value & opt int 62
      & info [ "lanes" ] ~docv:"K" ~doc:"Max lanes per coalesced batch (1-62).")
  in
  let flush_term =
    Arg.(
      value & opt float 0.
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Batch flush deadline in milliseconds; 0 flushes adaptively as soon as \
             the input drains.")
  in
  let verbose_term =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")
  in
  let pending_term =
    Arg.(
      value & opt int 0
      & info [ "max-pending" ] ~docv:"K"
          ~doc:
            "Shed run requests (reply Overloaded) once $(docv) are queued; 0 = \
             unbounded.")
  in
  let deadline_term =
    Arg.(
      value & opt float 0.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: a run still queued after $(docv) ms is \
             answered Deadline_exceeded; 0 = none.")
  in
  let grace_term =
    Arg.(
      value & opt float 5.
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:"Drain grace period after Shutdown or SIGTERM.")
  in
  let store_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent artifact directory: cache misses load compiled \
             circuits from $(docv) by mmap instead of rebuilding, and fresh \
             builds are persisted there for the next process.")
  in
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K"
          ~doc:
            "Serve as a $(docv)-worker fleet: a supervisor binds the (TCP) \
             front socket once, forks $(docv) workers that inherit it, \
             restarts crashed workers warm from the store, and answers \
             roster/metrics requests on a control socket.  1 = the \
             single-process daemon.")
  in
  let reuseport_term =
    Arg.(
      value & flag
      & info [ "reuseport" ]
          ~doc:
            "Fleet variant: one SO_REUSEPORT front socket per worker \
             (kernel connection hashing) instead of a single shared \
             inherited socket.")
  in
  let control_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "control" ] ~docv:"ADDR"
          ~doc:
            "Fleet control-plane address for $(b,tcmm fleet-status); \
             default is an ephemeral TCP port on the front host (logged at \
             startup).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve compiled circuits over a socket with caching and request coalescing.")
    Term.(
      const run $ addr_term $ cache_term $ lanes_term $ flush_term
      $ profile_build_term $ profile_eval_term $ pending_term $ deadline_term
      $ grace_term $ store_term $ workers_term $ reuseport_term $ control_term
      $ verbose_term)

let fleet_status_cmd =
  let run control =
    let fail msg =
      Format.eprintf "tcmm fleet-status: %s@." msg;
      1
    in
    match P.parse_addr control with
    | Error msg -> fail msg
    | Ok a -> (
        try
          Tcmm_server.Client.with_connection a (fun cl ->
              match Tcmm_server.Client.request cl P.Fleet with
              | Error msg -> fail msg
              | Ok (P.Error msg) -> fail msg
              | Ok (P.Fleet_result ws) -> (
                  List.iter
                    (fun w ->
                      Format.printf "worker %d: pid %d at %s, %d restart(s)%s@."
                        w.P.fw_id w.P.fw_pid w.P.fw_addr w.P.fw_restarts
                        (if w.P.fw_alive then "" else " [down]"))
                    ws;
                  match Tcmm_server.Client.request cl P.Metrics with
                  | Error msg -> fail msg
                  | Ok (P.Error msg) -> fail msg
                  | Ok (P.Metrics_result m) ->
                      Format.printf "fleet-wide:@.%a@." P.pp_metrics m;
                      0
                  | Ok _ -> fail "unexpected response to metrics")
              | Ok _ -> fail "unexpected response to fleet")
        with Unix.Unix_error (e, _, _) ->
          fail
            (Printf.sprintf "cannot reach supervisor at %s: %s" control
               (Unix.error_message e)))
  in
  let control_term =
    Arg.(
      required
      & opt (some string) None
      & info [ "control" ] ~docv:"ADDR"
          ~doc:"The fleet supervisor's control address (logged at startup).")
  in
  Cmd.v
    (Cmd.info "fleet-status"
       ~doc:
         "Query a running fleet supervisor: worker roster (pids, endpoints, \
          restart counts) and fleet-wide aggregated metrics.")
    Term.(const run $ control_term)

let request_cmd =
  let run addr what algo n d bits sched signed tau seed count =
    let algo_name = algo.F.Bilinear.name in
    let kind =
      match what with
      | "trace" -> P.Trace
      | "triangles" -> P.Triangles
      | _ -> P.Matmul
    in
    let spec =
      { P.kind; algo = algo_name; schedule = sched; d; n; entry_bits = bits;
        signed; tau; kronpow = false }
    in
    let fail msg =
      Format.eprintf "tcmm request: %s@." msg;
      1
    in
    match P.parse_addr addr with
    | Error msg -> fail msg
    | Ok a -> (
        let one cl req ok =
          match Tcmm_server.Client.request cl req with
          | Error msg -> fail msg
          | Ok (P.Error msg) -> fail msg
          | Ok resp -> ok resp
        in
        try
          Tcmm_server.Client.with_connection a (fun cl ->
              match what with
              | "ping" ->
                  one cl P.Ping (function
                    | P.Pong ->
                        Format.printf "pong@.";
                        0
                    | _ -> fail "unexpected response")
              | "shutdown" ->
                  one cl P.Shutdown (function
                    | P.Shutting_down ->
                        Format.printf "server shutting down@.";
                        0
                    | _ -> fail "unexpected response")
              | "metrics" ->
                  one cl P.Metrics (function
                    | P.Metrics_result m ->
                        Format.printf "%a@." P.pp_metrics m;
                        0
                    | _ -> fail "unexpected response")
              | "compile" ->
                  one cl (P.Compile spec) (function
                    | P.Compiled c ->
                        Format.printf "%s in %.3fs: %s@."
                          (if c.P.cached then "cached"
                           else if c.P.loaded then "loaded from store"
                           else "built")
                          c.P.build_seconds
                          (Tcmm_threshold.Stats.to_row c.P.stats);
                        0
                    | _ -> fail "unexpected response")
              | "stats" ->
                  one cl (P.Stats spec) (function
                    | P.Stats_result s ->
                        Format.printf "%s@." (Tcmm_threshold.Stats.to_row s);
                        0
                    | _ -> fail "unexpected response")
              | "matmul" | "trace" | "triangles" ->
                  (* Pipelined: write the whole burst, then read it back —
                     exactly the pattern the server coalesces into batches. *)
                  let rng = Tcmm_util.Prng.create ~seed in
                  let hi = (1 lsl bits) - 1 in
                  let lo = if signed then -hi else 0 in
                  let reqs =
                    List.init count (fun _ ->
                        match kind with
                        | P.Matmul ->
                            let a = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
                            let b = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
                            P.Run_matmul (spec, a, b)
                        | P.Trace ->
                            let m = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
                            P.Run_trace (spec, m)
                        | P.Triangles ->
                            let m = F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi in
                            P.Run_triangles (spec, m)
                        | P.Conv -> assert false (* [kind] above never maps to it *))
                  in
                  let t0 = Unix.gettimeofday () in
                  List.iter (Tcmm_server.Client.send cl) reqs;
                  let correct = ref 0 and errors = ref 0 in
                  List.iter
                    (fun req ->
                      match (Tcmm_server.Client.recv cl, req) with
                      | Ok (P.Matmul_result (c, _)), P.Run_matmul (_, a, b) ->
                          if F.Matrix.equal c (F.Matrix.mul a b) then incr correct
                      | Ok (P.Trace_result (fires, _)), P.Run_trace (_, m) ->
                          if fires = (T.Trace_circuit.reference m >= tau) then
                            incr correct
                      | Ok (P.Triangles_result (fires, _)), P.Run_triangles (_, m)
                        ->
                          if fires = (T.Trace_circuit.reference m >= 6 * tau) then
                            incr correct
                      | Ok (P.Error msg), _ ->
                          incr errors;
                          Format.eprintf "server error: %s@." msg
                      | Ok _, _ -> incr errors
                      | Error msg, _ ->
                          incr errors;
                          Format.eprintf "transport error: %s@." msg)
                    reqs;
                  let dt = Unix.gettimeofday () -. t0 in
                  Format.printf
                    "%d/%d responses match the integer reference (%d errors) in \
                     %.3fs (%.0f req/s)@."
                    !correct count !errors dt
                    (float_of_int count /. dt);
                  if !correct = count then 0 else 1
              | w -> fail (Printf.sprintf "unknown request kind %S" w))
        with Unix.Unix_error (e, _, _) ->
          fail (Printf.sprintf "cannot reach server at %s: %s" addr (Unix.error_message e)))
  in
  let what_term =
    Arg.(
      value
      & pos 0 string "ping"
      & info [] ~docv:"WHAT"
          ~doc:
            "One of: ping, metrics, compile, stats, matmul, trace, triangles, \
             shutdown.")
  in
  let signed_term =
    Arg.(value & flag & info [ "signed" ] ~doc:"Signed matrix entries.")
  in
  let tau_term =
    Arg.(value & opt int 1 & info [ "t"; "tau" ] ~docv:"TAU" ~doc:"Trace/triangle threshold.")
  in
  let count_term =
    Arg.(
      value & opt int 1
      & info [ "c"; "count" ] ~docv:"K"
          ~doc:"Pipelined run requests to send (the server coalesces them).")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Query a running tcmm serve daemon.")
    Term.(
      const run $ addr_term $ what_term $ algo_term $ n_term $ d_term $ bits_term
      $ schedule_term $ signed_term $ tau_term $ seed_term
      $ count_term)

(* Served convolutional inference: draw a deterministic image/kernel
   workload, ship it to a running daemon as im2col jobs over the matmul
   circuit ([Run_conv]), and demand every returned score
   plane be bit-identical to the direct convolution computed locally. *)
let infer_cmd =
  let module Cn = Tcmm_convnet in
  let run addr algo d bits sched signed q stride channels height width
      nkernels n_opt seed count =
    let fail msg =
      Format.eprintf "tcmm infer: %s@." msg;
      1
    in
    let rng = Tcmm_util.Prng.create ~seed in
    let hi = (1 lsl bits) - 1 in
    let lo = if signed then -hi else 0 in
    let kernels =
      Array.init nkernels (fun _ ->
          Cn.Image.random (Tcmm_util.Prng.split rng) ~channels ~height:q
            ~width:q ~lo ~hi)
    in
    let images =
      List.init count (fun _ ->
          Cn.Image.random (Tcmm_util.Prng.split rng) ~channels ~height ~width
            ~lo ~hi)
    in
    let cspec = { Cn.Im2col.q; stride } in
    match
      match images with
      | [] -> Error "count must be at least 1"
      | image :: _ -> (
          match Cn.Conv.circuit_size cspec image kernels ~t_dim:algo.F.Bilinear.t_dim with
          | n -> Ok n
          | exception Invalid_argument msg -> Error msg)
    with
    | Error msg -> fail msg
    | Ok auto_n -> (
        let n = Option.value n_opt ~default:auto_n in
        let spec =
          { P.kind = P.Conv; algo = algo.F.Bilinear.name; schedule = sched; d;
            n; entry_bits = bits; signed; tau = 0; kronpow = false }
        in
        let jobs =
          List.map
            (fun image ->
              ( image,
                { P.cj_q = q; cj_stride = stride; cj_image = image;
                  cj_kernels = kernels } ))
            images
        in
        match P.parse_addr addr with
        | Error msg -> fail msg
        | Ok a -> (
            try
              Tcmm_server.Client.with_connection a (fun cl ->
                  let t0 = Unix.gettimeofday () in
                  (* Pipelined like `tcmm request`: the whole burst goes out
                     before any reply is read, so the server batches the
                     underlying matmul evaluations. *)
                  List.iter
                    (fun (_, job) ->
                      Tcmm_server.Client.send cl (P.Run_conv (spec, job)))
                    jobs;
                  let correct = ref 0 and errors = ref 0 in
                  List.iter
                    (fun (image, _) ->
                      match Tcmm_server.Client.recv cl with
                      | Ok (P.Conv_result (scores, _firings)) ->
                          if scores = Cn.Conv.direct cspec image kernels then
                            incr correct
                          else (
                            incr errors;
                            Format.eprintf
                              "served scores differ from direct convolution@.")
                      | Ok (P.Error msg) ->
                          incr errors;
                          Format.eprintf "server error: %s@." msg
                      | Ok _ ->
                          incr errors;
                          Format.eprintf "unexpected response@."
                      | Error msg ->
                          incr errors;
                          Format.eprintf "transport error: %s@." msg)
                    jobs;
                  let dt = Unix.gettimeofday () -. t0 in
                  let out_h, out_w =
                    Cn.Im2col.output_dims cspec (List.hd images)
                  in
                  Format.printf
                    "%d/%d served inferences bit-identical to direct \
                     convolution (%d errors) in %.3fs — %d %dx%dx%d \
                     image(s), %d %dx%d kernel(s), %dx%d score planes via \
                     n=%d circuit@."
                    !correct count !errors dt count channels height width
                    nkernels q q out_h out_w n;
                  if !correct = count then 0 else 1)
            with Unix.Unix_error (e, _, _) ->
              fail
                (Printf.sprintf "cannot reach server at %s: %s" addr
                   (Unix.error_message e))))
  in
  let q_term =
    Arg.(
      value & opt int 2
      & info [ "q" ] ~docv:"Q" ~doc:"Kernel side length (q x q kernels).")
  in
  let stride_term =
    Arg.(value & opt int 1 & info [ "stride" ] ~docv:"S" ~doc:"Patch stride.")
  in
  let channels_term =
    Arg.(
      value & opt int 1
      & info [ "channels" ] ~docv:"C" ~doc:"Image (and kernel) channels.")
  in
  let height_term =
    Arg.(value & opt int 4 & info [ "height" ] ~docv:"H" ~doc:"Image height.")
  in
  let width_term =
    Arg.(value & opt int 4 & info [ "width" ] ~docv:"W" ~doc:"Image width.")
  in
  let kernels_term =
    Arg.(
      value & opt int 2
      & info [ "kernels" ] ~docv:"K" ~doc:"Number of kernels (score planes).")
  in
  let n_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Circuit dimension (default: the smallest power of the \
             algorithm's T that fits the im2col operands).")
  in
  let count_term =
    Arg.(
      value & opt int 1
      & info [ "c"; "count" ] ~docv:"K"
          ~doc:"Images to infer in one pipelined burst.")
  in
  let signed_term =
    Arg.(value & flag & info [ "signed" ] ~doc:"Signed pixel/weight values.")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Run convolutional inference through a tcmm serve daemon: each \
          image's im2col patch matrix is multiplied against the kernel \
          matrix by the served threshold circuit, and every returned score \
          plane is checked bit-identical against the direct convolution.")
    Term.(
      const run $ addr_term $ algo_term $ d_term $ bits_term $ schedule_term
      $ signed_term $ q_term $ stride_term $ channels_term
      $ height_term $ width_term $ kernels_term $ n_term $ seed_term
      $ count_term)

let check_cmd =
  let run cases incremental_cases mutants seed skip_server corpus algo json_path
      =
    (match algo with
    | Some a when Result.is_error (F.Instances.find a) ->
        Format.eprintf "tcmm check: unknown algorithm %S@." a;
        exit 2
    | _ -> ());
    let report =
      Tcmm_check.Harness.run ~seed ~cases ?incremental_cases ~mutants
        ~include_server:(not skip_server) ?corpus_dir:corpus ?algo ()
    in
    Tcmm_check.Harness.print_report report;
    (match json_path with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Tcmm_check.Harness.to_json report));
        Printf.printf "wrote %s\n" path
    | None -> ());
    if Tcmm_check.Harness.all_ok report then 0 else 1
  in
  let cases_term =
    Arg.(
      value & opt int 50
      & info [ "cases" ] ~docv:"K" ~doc:"Differential fuzz cases to run.")
  in
  let incremental_cases_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "incremental-cases" ] ~docv:"K"
          ~doc:
            "Edge-flip sequences for the incremental dirty-cone fuzz leg \
             (default: same as $(b,--cases)).")
  in
  let mutants_term =
    Arg.(
      value & opt int 120
      & info [ "mutants" ] ~docv:"K" ~doc:"Circuit mutants for the kill-rate sweep.")
  in
  let skip_server_term =
    Arg.(
      value & flag
      & info [ "skip-server" ]
          ~doc:"Skip the forked loopback-server fuzzing leg.")
  in
  let corpus_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Regression corpus directory: replay every stored case first, \
             persist newly shrunk counterexamples.")
  in
  let algo_slice_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Pin every certificate and fuzz case to one algorithm (its \
             sizes follow the algorithm's power ladder) — the CI \
             per-algorithm slice.")
  in
  let json_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report as JSON.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Certify circuit structure against the paper's bounds, \
          differential-fuzz all evaluation paths, and mutation-test the \
          oracle (exit 1 on any violation or a kill rate below 95%).")
    Term.(
      const run $ cases_term $ incremental_cases_term $ mutants_term $ seed_term
      $ skip_server_term $ corpus_term $ algo_slice_term $ json_term)

let chaos_cmd =
  let run requests fault_rate workers seed json_path =
    let outcome = Tcmm_check.Chaos.run ~seed ~requests ~fault_rate ~workers () in
    Tcmm_check.Chaos.print_report outcome;
    (match json_path with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Tcmm_check.Chaos.to_json outcome));
        Printf.printf "wrote %s\n" path
    | None -> ());
    if Tcmm_check.Chaos.ok outcome then 0 else 1
  in
  let requests_term =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"K"
          ~doc:"Requests in the fault-soak segment.")
  in
  let rate_term =
    Arg.(
      value & opt float 0.25
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-request fault-injection probability in [0,1].")
  in
  let json_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the outcome as JSON.")
  in
  let workers_term =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K"
          ~doc:
            "Soak a $(docv)-worker fleet instead of a single daemon: \
             requests route through the spec-affinity shard router while \
             random workers are SIGKILLed at the fault rate; ends with \
             fleet-wide summed accounting checks and a supervisor SIGTERM \
             drain.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak the serving stack under injected transport and process \
          faults: truncation, corruption, stalls, resets, reordering, \
          kill-and-restart, overload shedding, deadline expiry, and a \
          SIGTERM drain.  Every completed response must be bit-identical \
          to the direct circuit evaluation and every failure typed (exit \
          1 on any violation).")
    Term.(
      const run $ requests_term $ rate_term $ workers_term $ seed_term
      $ json_term)

(* ------------------------------------------------------------------ *)

let store_dir_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Artifact directory.")

(* Offline batch compilation: build each requested circuit through the
   same cache + store tier the daemon uses, so a later `serve --store`
   (or another `compile`) finds the artifacts warm.  A spec already in
   the store is loaded (and verified) rather than rebuilt. *)
let compile_cmd =
  let run store_dir what algo ns d bits sched signed tau verbose =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
    let kind =
      match what with
      | "trace" -> P.Trace
      | "triangles" -> P.Triangles
      | _ -> P.Matmul
    in
    match Tcmm_store.Store.create ~dir:store_dir () with
    | Error msg ->
        Format.eprintf "tcmm compile: %s@." msg;
        1
    | Ok store ->
        let cc = Tcmm_server.Circuit_cache.create ~store ~capacity:1 () in
        let failures = ref 0 in
        List.iter
          (fun n ->
            let spec =
              { P.kind; algo = algo.F.Bilinear.name; schedule = sched; d; n;
                entry_bits = bits; signed; tau; kronpow = false }
            in
            let key = Tcmm_server.Circuit_cache.key spec in
            match Tcmm_server.Circuit_cache.find_or_build cc spec with
            | Error msg ->
                incr failures;
                Format.eprintf "%s: %s@." key msg
            | Ok (entry, outcome) ->
                Format.printf "%s: %s in %.3fs (%s)@." key
                  (match outcome with
                  | Tcmm_server.Circuit_cache.Built -> "built and stored"
                  | Tcmm_server.Circuit_cache.Loaded -> "already stored, loaded"
                  | Tcmm_server.Circuit_cache.Cached -> "cached")
                  entry.Tcmm_server.Circuit_cache.build_seconds
                  (Tcmm_threshold.Stats.to_row
                     entry.Tcmm_server.Circuit_cache.stats))
          ns;
        let c = Tcmm_store.Store.counters store in
        Format.printf "store %s: %d saved, %d loaded, %d invalid@." store_dir
          c.Tcmm_store.Store.saves c.Tcmm_store.Store.loads
          c.Tcmm_store.Store.invalid;
        if !failures = 0 then 0 else 1
  in
  let what_term =
    Arg.(
      value
      & opt string "matmul"
      & info [ "kind" ] ~docv:"KIND" ~doc:"matmul, trace, or triangles.")
  in
  let ns_term =
    Arg.(
      value
      & opt_all int [ 16 ]
      & info [ "n" ] ~docv:"N"
          ~doc:"Matrix dimension; repeatable for a batch of sizes.")
  in
  let signed_term =
    Arg.(value & flag & info [ "signed" ] ~doc:"Signed matrix entries.")
  in
  let tau_term =
    Arg.(
      value & opt int 1
      & info [ "t"; "tau" ] ~docv:"TAU" ~doc:"Trace/triangle threshold.")
  in
  let verbose_term =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log store activity.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile circuits offline into a persistent artifact store, so a \
          later $(b,tcmm serve --store) starts warm: every cache miss \
          becomes a single mmap load instead of a multi-second build.")
    Term.(
      const run $ store_dir_term $ what_term $ algo_term $ ns_term $ d_term
      $ bits_term $ schedule_term $ signed_term $ tau_term $ verbose_term)

let artifacts_cmd =
  let module A = Tcmm_store.Artifact in
  let module St = Tcmm_store.Store in
  let with_store dir k =
    match St.create ~dir () with
    | Error msg ->
        Format.eprintf "tcmm artifacts: %s@." msg;
        1
    | Ok store -> k store
  in
  let run store_dir action target =
    with_store store_dir (fun store ->
        match action with
        | "list" ->
            let entries = St.list store in
            List.iter
              (fun (file, r) ->
                match r with
                | Ok (h, bytes) ->
                    Format.printf "%-48s %9d KiB  %8d gates  %s@." file
                      (bytes / 1024) h.A.h_num_gates h.A.h_key
                | Error msg -> Format.printf "%-48s UNREADABLE: %s@." file msg)
              entries;
            Format.printf "%d artifact(s) in %s@." (List.length entries)
              store_dir;
            0
        | "inspect" -> (
            match target with
            | None ->
                Format.eprintf "tcmm artifacts inspect: missing FILE@.";
                1
            | Some file -> (
                let path =
                  if Sys.file_exists file then file
                  else Filename.concat store_dir file
                in
                match A.read_header ~path with
                | Ok (h, bytes) ->
                    Format.printf "%s (%d bytes)@.%a@." path bytes A.pp_header h;
                    0
                | Error msg ->
                    Format.eprintf "%s: %s@." path msg;
                    1))
        | "verify" ->
            (* Full payload verification (checksums, bounds, kernel tags)
               via the real load path — not just headers. *)
            let bad = ref 0 in
            List.iter
              (fun (file, _) ->
                let path = Filename.concat store_dir file in
                match A.read ~path () with
                | Ok a ->
                    Format.printf "%-48s OK (%d bytes%s)@." file a.A.a_bytes
                      (if a.A.a_kern_recompiled then ", kernels recompiled"
                       else "")
                | Error msg ->
                    incr bad;
                    Format.printf "%-48s INVALID: %s@." file msg)
              (St.list store);
            if !bad = 0 then 0
            else begin
              Format.printf "%d invalid artifact(s)@." !bad;
              1
            end
        | "gc" ->
            let freed =
              St.gc store ~removed:(fun f -> Format.printf "removed %s@." f)
            in
            Format.printf "freed %d bytes@." freed;
            0
        | a ->
            Format.eprintf
              "tcmm artifacts: unknown action %S (list|inspect|verify|gc)@." a;
            1)
  in
  let action_term =
    Arg.(
      value
      & pos 0 string "list"
      & info [] ~docv:"ACTION" ~doc:"One of: list, inspect, verify, gc.")
  in
  let target_term =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Artifact file for $(b,inspect).")
  in
  Cmd.v
    (Cmd.info "artifacts"
       ~doc:
         "List, inspect, verify, or garbage-collect a compiled-circuit \
          artifact store: dump self-describing headers, re-checksum \
          payloads, and remove quarantined or stale files.")
    Term.(const run $ store_dir_term $ action_term $ target_term)

let () =
  let doc = "Constant-depth threshold circuits for matrix multiplication (SPAA 2018)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tcmm" ~doc)
          [
            algorithms_cmd; stats_cmd; verify_cmd; triangles_cmd; stream_cmd;
            export_cmd; orbit_cmd; serve_cmd; fleet_status_cmd; request_cmd;
            infer_cmd; compile_cmd; artifacts_cmd; check_cmd; chaos_cmd;
          ]))
