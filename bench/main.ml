(* Benchmark harness: regenerates every experiment table (see
   EXPERIMENTS.md), runs the bechamel wall-clock benches (E8) and the
   evaluation-engine comparison (E17), and leaves the headline numbers
   in BENCH_simulator.json.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e2 e4   # selected tables only *)

module F = Tcmm_fastmm
module T = Tcmm
module Tb = Tcmm_util.Tablefmt

(* The flagship matmul/trace N=16 d=2 circuits are used by both E8
   (simulate leg) and E17 (engine comparison); build each once and share
   the [built] value across legs instead of paying the construction twice. *)
let profile = F.Sparsity.analyze F.Instances.strassen
let sched16 = T.Level_schedule.theorem45 ~profile ~d:2 ~n:16

let shared_mm16 =
  lazy
    (T.Matmul_circuit.build ~algo:F.Instances.strassen ~schedule:sched16
       ~entry_bits:1 ~n:16 ())

let shared_tr16 =
  lazy
    (T.Trace_circuit.build ~algo:F.Instances.strassen ~schedule:sched16
       ~entry_bits:1 ~tau:100 ~n:16 ())

(* E8: wall-clock timings via bechamel. *)
let e8 () =
  Bench_util.header "E8: wall-clock benches (bechamel, ns/run via OLS)";
  let rng = Tcmm_util.Prng.create ~seed:7 in
  let n = 128 in
  let a = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-8) ~hi:8 in
  let b = F.Matrix.random rng ~rows:n ~cols:n ~lo:(-8) ~hi:8 in
  let built = Lazy.force shared_mm16 in
  let a16 = F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1 in
  let b16 = F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1 in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"cpu naive matmul N=128" (Staged.stage (fun () -> F.Matrix.mul a b));
      Test.make ~name:"cpu strassen N=128 (cutoff 32)"
        (Staged.stage (fun () -> F.Bilinear.multiply ~cutoff:32 F.Instances.strassen a b));
      Test.make ~name:"cpu strassen N=128 (cutoff 8)"
        (Staged.stage (fun () -> F.Bilinear.multiply ~cutoff:8 F.Instances.strassen a b));
      Test.make ~name:"build matmul circuit N=16 d=2"
        (Staged.stage (fun () ->
             T.Matmul_circuit.build ~mode:Tcmm_threshold.Builder.Count_only
               ~algo:F.Instances.strassen ~schedule:sched16 ~entry_bits:1 ~n:16 ()));
      Test.make ~name:"simulate matmul circuit N=16"
        (Staged.stage (fun () -> T.Matmul_circuit.run built ~a:a16 ~b:b16));
      Test.make ~name:"exact counts via DP (trace N=1024 d=3)"
        (Staged.stage (fun () ->
             T.Gate_count.trace ~algo:F.Instances.strassen
               ~schedule:(T.Level_schedule.theorem45 ~profile ~d:3 ~n:1024)
               ~entry_bits:10 ~n:1024 ()));
    ]
  in
  let measured = Bench_util.measure_ns tests in
  let rows =
    List.map (fun (name, ns) -> [ Tb.Str name; Bench_util.ns_cell ns ]) measured
  in
  List.iter
    (fun (name, ns) ->
      Bench_util.record ~experiment:"e8"
        [ ("name", Bench_util.Str name); ("ns_per_run", Bench_util.Float ns) ])
    measured;
  Tb.print ~title:"wall-clock (one core)" ~header:[ "bench"; "time/run" ] ~rows;
  (* Scalar-multiplication counts contextualize the CPU crossover. *)
  let rows =
    List.map
      (fun n ->
        [
          Tb.Int n;
          Tb.Int (n * n * n);
          Tb.Int (F.Bilinear.scalar_multiplications F.Instances.strassen ~n ~cutoff:8);
          Tb.Int (F.Bilinear.scalar_multiplications F.Instances.strassen ~n ~cutoff:1);
        ])
      [ 32; 64; 128; 256; 512 ]
  in
  Tb.print ~title:"scalar multiplications: naive vs recursive Strassen"
    ~header:[ "N"; "naive N^3"; "strassen cutoff 8"; "strassen cutoff 1" ]
    ~rows


(* E17: evaluation engines — gate-at-a-time reference interpreter vs the
   packed levelized engine (sequential, multicore, and batched). *)
let e17 () =
  Bench_util.header
    "E17: simulator engines (reference vs packed vs parallel vs batched)";
  let module Th = Tcmm_threshold in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best n f =
    let r, t0 = time f in
    let tmin = ref t0 in
    for _ = 2 to n do
      let _, t = time f in
      if t < !tmin then tmin := t
    done;
    (r, !tmin)
  in
  let batch_size = 64 in
  let bench_circuit ~label (c : Th.Circuit.t) (inputs : bool array array) =
    let iv = inputs.(0) in
    let p, t_pack = time (fun () -> Th.Packed.of_circuit c) in
    let r_ref, t_ref = time (fun () -> Th.Simulator.run c iv) in
    let r_seq, t_seq = best 3 (fun () -> Th.Packed.run p iv) in
    let agree r =
      r.Th.Simulator.outputs = r_ref.Th.Simulator.outputs
      && r.Th.Simulator.firings = r_ref.Th.Simulator.firings
      && r.Th.Simulator.level_firings = r_ref.Th.Simulator.level_firings
    in
    if not (agree r_seq) then failwith (label ^ ": packed-seq disagrees");
    let par_times =
      List.map
        (fun domains ->
          Th.Packed.Pool.with_pool ~domains (fun pool ->
              let r, t = best 3 (fun () -> Th.Packed.run ~pool p iv) in
              if not (agree r) then
                failwith
                  (Printf.sprintf "%s: packed %d domains disagrees" label domains);
              (domains, t)))
        [ 2; 4 ]
    in
    let br, t_batch = best 2 (fun () -> Th.Packed.run_batch p inputs) in
    if
      Th.Packed.batch_outputs br ~lane:0 <> r_ref.Th.Simulator.outputs
      || Th.Packed.batch_firings br ~lane:0 <> r_ref.Th.Simulator.firings
    then failwith (label ^ ": batched lane 0 disagrees");
    let t_batch_vec = t_batch /. float_of_int batch_size in
    let sec t = Tb.Str (Printf.sprintf "%.4f s" t) in
    let rows =
      [
        [ Tb.Str "reference (gate-at-a-time)"; sec t_ref; Tb.Str "1.0x" ]
      ; [
          Tb.Str "packed sequential";
          sec t_seq;
          Tb.Str (Printf.sprintf "%.0fx" (t_ref /. t_seq));
        ]
      ]
      @ List.map
          (fun (d, t) ->
            [
              Tb.Str (Printf.sprintf "packed %d domains" d);
              sec t;
              Tb.Str (Printf.sprintf "%.0fx" (t_ref /. t));
            ])
          par_times
      @ [
          [
            Tb.Str (Printf.sprintf "batched B=%d (per vector)" batch_size);
            sec t_batch_vec;
            Tb.Str (Printf.sprintf "%.0fx" (t_ref /. t_batch_vec));
          ];
        ]
    in
    Tb.print
      ~title:
        (Printf.sprintf "%s: %d gates, %d levels, pack %.2f s" label
           (Th.Packed.num_gates p) (Th.Packed.num_levels p) t_pack)
      ~header:[ "engine"; "time/vector"; "speedup" ]
      ~rows;
    Printf.printf "packed vs reference: %.1fx; batched vs packed one-at-a-time: %.1fx\n"
      (t_ref /. t_seq)
      (t_seq /. t_batch_vec);
    Bench_util.record ~experiment:"e17"
      ([
         ("circuit", Bench_util.Str label);
         ("gates", Bench_util.Int (Th.Packed.num_gates p));
         ("levels", Bench_util.Int (Th.Packed.num_levels p));
         ("pool_edges", Bench_util.Int (Th.Packed.pool_edges p));
         ("pack_seconds", Bench_util.Float t_pack);
         ("reference_seconds", Bench_util.Float t_ref);
         ("packed_seq_seconds", Bench_util.Float t_seq);
         ("packed_seq_speedup_vs_reference", Bench_util.Float (t_ref /. t_seq));
         ("batch_size", Bench_util.Int batch_size);
         ("batched_seconds_total", Bench_util.Float t_batch);
         ("batched_seconds_per_vector", Bench_util.Float t_batch_vec);
         ( "batched_speedup_vs_packed_seq",
           Bench_util.Float (t_seq /. t_batch_vec) );
       ]
      @ List.map
          (fun (d, t) ->
            (Printf.sprintf "packed_domains%d_seconds" d, Bench_util.Float t))
          par_times)
  in
  let rng = Tcmm_util.Prng.create ~seed:11 in
  let mm = Lazy.force shared_mm16 in
  let mm_inputs =
    Array.init batch_size (fun _ ->
        let a = F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1 in
        let b = F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1 in
        T.Matmul_circuit.encode_inputs mm ~a ~b)
  in
  bench_circuit ~label:"matmul N=16 d=2 (Theorem 4.9)"
    (Option.get mm.T.Matmul_circuit.circuit)
    mm_inputs;
  let tr = Lazy.force shared_tr16 in
  let tr_inputs =
    Array.init batch_size (fun _ ->
        T.Trace_circuit.encode_input tr
          (F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1))
  in
  bench_circuit ~label:"trace N=16 d=2 (Theorem 4.5)"
    (Option.get tr.T.Trace_circuit.circuit)
    tr_inputs

(* E18: serving throughput — the same request stream one-at-a-time vs
   pipelined through the daemon's coalescing batcher.  Forks a real
   server on a Unix socket, so the numbers include protocol encoding,
   socket hops and scheduling, not just circuit evaluation. *)
let e18 () =
  Bench_util.header
    "E18: serving throughput (coalesced batches vs one request per run)";
  let module Sv = Tcmm_server in
  let module P = Sv.Protocol in
  (* Port 0: the kernel assigns a free ephemeral port in the parent,
     the child serves the pre-bound fd — no fixed-port collisions, no
     bind-retry loop. *)
  let cfg =
    {
      (Sv.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      Sv.Server.cache_capacity = 4;
    }
  in
  let listen_fd, addr = Sv.Server.bind cfg in
  let cfg = { cfg with Sv.Server.addr } in
  match Unix.fork () with
  | 0 ->
      (try Sv.Server.serve_fd cfg listen_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close listen_fd;
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Sv.Client.shutdown addr) with _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let cl = Sv.Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Sv.Client.close cl)
            (fun () ->
              let spec =
                {
                  P.kind = P.Matmul;
                  algo = "strassen";
                  schedule = "thm45";
                  d = 2;
                  n = 16;
                  entry_bits = 1;
                  signed = false;
                  tau = 0;
                  kronpow = false;
                }
              in
              (* Warm the circuit cache so both passes measure serving,
                 not the one-off build. *)
              let build_seconds =
                match Sv.Client.request cl (P.Compile spec) with
                | Ok (P.Compiled c) -> c.P.build_seconds
                | Ok (P.Error e) | Error e -> failwith ("e18 compile: " ^ e)
                | Ok _ -> failwith "e18 compile: unexpected response"
              in
              Printf.printf "compiled matmul N=16 d=2 in %.2f s\n%!" build_seconds;
              let rng = Tcmm_util.Prng.create ~seed:3 in
              let total = 248 (* 4 full 62-lane batches when coalesced *) in
              let pairs =
                Array.init total (fun _ ->
                    ( F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1,
                      F.Matrix.random rng ~rows:16 ~cols:16 ~lo:0 ~hi:1 ))
              in
              let reqs =
                Array.map (fun (a, b) -> P.Run_matmul (spec, a, b)) pairs
              in
              let expect_result i = function
                | Ok (P.Matmul_result (c, _)) ->
                    let a, b = pairs.(i) in
                    if not (F.Matrix.equal c (F.Matrix.mul a b)) then
                      failwith "e18: served product disagrees with reference"
                | Ok (P.Error e) | Error e -> failwith ("e18 run: " ^ e)
                | Ok _ -> failwith "e18 run: unexpected response"
              in
              let time f =
                let t0 = Unix.gettimeofday () in
                f ();
                Unix.gettimeofday () -. t0
              in
              let metrics () =
                match Sv.Client.request cl P.Metrics with
                | Ok (P.Metrics_result m) -> (m.P.batches, m.P.lanes)
                | _ -> failwith "e18: metrics request failed"
              in
              (* One request per run: a strict request-response lockstep,
                 so every evaluation is a 1-lane batch. *)
              let t_seq =
                time (fun () ->
                    Array.iteri
                      (fun i r -> expect_result i (Sv.Client.request cl r))
                      reqs)
              in
              let batches0, lanes0 = metrics () in
              (* Pipelined: the whole burst is in flight at once and the
                 server coalesces it into full 62-lane batches. *)
              let t_pipe =
                time (fun () ->
                    Array.iter (Sv.Client.send cl) reqs;
                    Array.iteri
                      (fun i _ -> expect_result i (Sv.Client.recv cl))
                      reqs)
              in
              let batches1, lanes1 = metrics () in
              let batches = batches1 - batches0 in
              let occupancy_mean =
                float_of_int (lanes1 - lanes0) /. float_of_int (max 1 batches)
              in
              let per_sec t = float_of_int total /. t in
              let speedup = t_seq /. t_pipe in
              Tb.print
                ~title:
                  (Printf.sprintf
                     "E18: %d matmul runs (N=16, strassen, thm45 d=2) over loopback TCP"
                     total)
                ~header:[ "mode"; "total"; "throughput"; "speedup" ]
                ~rows:
                  [
                    [
                      Tb.Str "one request per run";
                      Tb.Str (Printf.sprintf "%.3f s" t_seq);
                      Tb.Str (Printf.sprintf "%.0f req/s" (per_sec t_seq));
                      Tb.Str "1.0x";
                    ];
                    [
                      Tb.Str "pipelined (coalesced)";
                      Tb.Str (Printf.sprintf "%.3f s" t_pipe);
                      Tb.Str (Printf.sprintf "%.0f req/s" (per_sec t_pipe));
                      Tb.Str (Printf.sprintf "%.1fx" speedup);
                    ];
                  ];
              Printf.printf
                "coalescing speedup: %.1fx (pipelined pass: %d batches, mean \
                 occupancy %.1f lanes)\n"
                speedup batches occupancy_mean;
              Bench_util.record ~experiment:"e18"
                [
                  ("circuit", Bench_util.Str "matmul N=16 d=2 (Theorem 4.9)");
                  ("requests", Bench_util.Int total);
                  ("build_seconds", Bench_util.Float build_seconds);
                  ("sequential_seconds", Bench_util.Float t_seq);
                  ("sequential_req_per_s", Bench_util.Float (per_sec t_seq));
                  ("pipelined_seconds", Bench_util.Float t_pipe);
                  ("pipelined_req_per_s", Bench_util.Float (per_sec t_pipe));
                  ("coalescing_speedup", Bench_util.Float speedup);
                  ("server_batches", Bench_util.Int batches);
                  ("mean_batch_occupancy", Bench_util.Float occupancy_mean);
                ]))

(* E19: the correctness harness itself — certificate battery, differential
   fuzzing, and the mutation sweep's kill rate — recorded as the
   BENCH_check.json artifact so correctness coverage is tracked across
   PRs the same way perf is. *)
let e19 () =
  Bench_util.header
    "E19: correctness harness (certificates, fuzzing, mutation kill rate)";
  let module Ck = Tcmm_check in
  let can_fork =
    (* Unix.fork is forbidden once any domain has been spawned (e17
       does); probe so a full-suite run still yields E19, just without
       the forked-server fuzz leg. *)
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Failure _ -> false
  in
  let r = Ck.Harness.run ~seed:1 ~cases:50 ~mutants:120 ~include_server:can_fork () in
  Ck.Harness.print_report r;
  let killed = r.Ck.Harness.mutation.Ck.Mutate.structural + r.Ck.Harness.mutation.Ck.Mutate.behavioral in
  Bench_util.record ~experiment:"e19"
    ([
       ("certificates", Bench_util.Int (List.length r.Ck.Harness.certificates));
       ( "certificates_ok",
         Bench_util.Int
           (List.length (List.filter Ck.Certify.ok r.Ck.Harness.certificates)) );
       ("fuzz_cases", Bench_util.Int r.Ck.Harness.fuzz.Ck.Fuzz.tested);
       ( "fuzz_failures",
         Bench_util.Int (List.length r.Ck.Harness.fuzz.Ck.Fuzz.failures) );
       ( "server_fuzz_cases",
         Bench_util.Int
           (match r.Ck.Harness.server_fuzz with
           | Some o -> o.Ck.Fuzz.tested
           | None -> 0) );
       ("mutants", Bench_util.Int r.Ck.Harness.mutation.Ck.Mutate.total);
       ("mutants_killed", Bench_util.Int killed);
       ("kill_rate", Bench_util.Float (Ck.Mutate.kill_rate r.Ck.Harness.mutation));
       ("protocol_cuts", Bench_util.Int r.Ck.Harness.protocol.Ck.Mutate.cuts);
       ("protocol_killed", Bench_util.Int r.Ck.Harness.protocol.Ck.Mutate.killed);
       ("ok", Bench_util.Bool (Ck.Harness.all_ok r));
     ]
    @ List.map
        (fun (op, k, t) ->
          ( op ^ "_kill_rate",
            Bench_util.Float (float_of_int k /. float_of_int (max 1 t)) ))
        r.Ck.Harness.mutation.Ck.Mutate.per_op);
  if not (Ck.Harness.all_ok r) then failwith "e19: correctness harness FAILED"

(* E21: serving robustness under injected faults — throughput and tail
   latency of the retrying client as the transport fault rate rises,
   plus the shed rate when a pipelined burst overruns the admission
   gate.  Recorded as BENCH_serve_robust.json. *)
let e21 () =
  Bench_util.header
    "E21: serving robustness (throughput/p99 under faults, shedding at overload)";
  let module Sv = Tcmm_server in
  let module P = Sv.Protocol in
  let clock = Tcmm_util.Clock.now in
  let spec =
    { P.kind = P.Matmul; algo = "strassen"; schedule = "thm45"; d = 2;
      n = 4; entry_bits = 2; signed = true; tau = 0; kronpow = false }
  in
  let start_server cfg =
    let listen_fd, addr = Sv.Server.bind cfg in
    let cfg = { cfg with Sv.Server.addr } in
    match Unix.fork () with
    | 0 ->
        (try Sv.Server.serve_fd cfg listen_fd with _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close listen_fd;
        (addr, pid)
  in
  let stop_server (addr, pid) =
    (try ignore (Sv.Client.shutdown addr) with _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let warm addr =
    match Sv.Client.call addr (P.Compile spec) with
    | Ok (P.Compiled _) -> ()
    | _ -> failwith "e21: warm-up compile failed"
  in
  let raw_send addr bytes =
    (* Below-the-client fault injection: a raw connection the server
       must survive without disturbing well-formed requests. *)
    match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try
           Unix.connect fd (P.sockaddr_of_addr addr);
           ignore (Unix.write_substring fd bytes 0 (String.length bytes))
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let requests = 200 in
  let rates = [ 0.0; 0.1; 0.25; 0.5 ] in
  let rows, json_rows =
    List.split
      (List.map
         (fun rate ->
           let cfg =
             {
               (Sv.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
               Sv.Server.cache_capacity = 4;
             }
           in
           let server = start_server cfg in
           let addr, _ = server in
           Fun.protect
             ~finally:(fun () -> stop_server server)
             (fun () ->
               warm addr;
               let rng = Tcmm_util.Prng.create ~seed:21 in
               let lat = Array.make requests 0. in
               let t0 = clock () in
               for i = 0 to requests - 1 do
                 let hi = 3 in
                 let a = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-hi) ~hi in
                 let b = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-hi) ~hi in
                 let req = P.Run_matmul (spec, a, b) in
                 let q0 = clock () in
                 if Tcmm_util.Prng.float rng < rate then begin
                   (* A dead half-frame: the server reaps the broken
                      connection while the logical request still has to
                      complete through the retrying client. *)
                   let full = P.frame (P.encode_request req) in
                   let cut =
                     1 + Tcmm_util.Prng.int rng ~bound:(String.length full - 1)
                   in
                   raw_send addr (String.sub full 0 cut)
                 end;
                 (match Sv.Client.call ~seed:(i + 1) addr req with
                 | Ok (P.Matmul_result (c, _)) ->
                     if not (F.Matrix.equal c (F.Matrix.mul a b)) then
                       failwith "e21: served product disagrees with reference"
                 | Ok _ -> failwith "e21: unexpected response"
                 | Error f ->
                     failwith
                       (Format.asprintf "e21: request failed: %a"
                          Sv.Client.pp_failure f));
                 lat.(i) <- (clock () -. q0) *. 1000.
               done;
               let total = clock () -. t0 in
               Array.sort compare lat;
               let p99 = lat.(min (requests - 1) (requests * 99 / 100)) in
               let thr = float_of_int requests /. total in
               ( [
                   Tb.Str (Printf.sprintf "%.2f" rate);
                   Tb.Str (Printf.sprintf "%.0f req/s" thr);
                   Tb.Str (Printf.sprintf "%.2f ms" p99);
                 ],
                 (rate, thr, p99) )))
         rates)
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "E21: %d matmul requests (N=4, strassen, thm45 d=2), fault-injected \
          loopback TCP"
         requests)
    ~header:[ "fault rate"; "throughput"; "p99 latency" ] ~rows;
  (* Overload: a single-write pipelined burst against a small admission
     gate; the shed rate is the fraction answered [Overloaded]. *)
  let burst = 200 in
  let cfg =
    {
      (Sv.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      Sv.Server.cache_capacity = 4;
      max_pending = 8;
    }
  in
  let server = start_server cfg in
  let addr, _ = server in
  let shed, completed =
    Fun.protect
      ~finally:(fun () -> stop_server server)
      (fun () ->
        warm addr;
        let rng = Tcmm_util.Prng.create ~seed:22 in
        let reqs =
          Array.init burst (fun _ ->
              let a = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
              let b = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
              P.Run_matmul (spec, a, b))
        in
        let cl = Sv.Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Sv.Client.close cl)
          (fun () ->
            Array.iter (Sv.Client.send cl) reqs;
            let shed = ref 0 and completed = ref 0 in
            Array.iter
              (fun _ ->
                match Sv.Client.recv cl with
                | Ok P.Overloaded -> incr shed
                | Ok (P.Matmul_result _) -> incr completed
                | Ok (P.Error e) | Error e -> failwith ("e21 overload: " ^ e)
                | Ok _ -> failwith "e21 overload: unexpected response")
              reqs;
            (!shed, !completed)))
  in
  let shed_rate = float_of_int shed /. float_of_int burst in
  Printf.printf
    "overload: %d-request burst vs max_pending=8: %d shed, %d completed \
     (shed rate %.2f)\n"
    burst shed completed shed_rate;
  Bench_util.record ~experiment:"e21"
    ([
       ("circuit", Bench_util.Str "matmul N=4 d=2 (signed, 2-bit entries)");
       ("requests_per_rate", Bench_util.Int requests);
       ("overload_burst", Bench_util.Int burst);
       ("overload_shed", Bench_util.Int shed);
       ("overload_completed", Bench_util.Int completed);
       ("overload_shed_rate", Bench_util.Float shed_rate);
     ]
    @ List.concat_map
        (fun (rate, thr, p99) ->
          let tag = Printf.sprintf "fault_%02.0f" (rate *. 100.) in
          [
            (tag ^ "_req_per_s", Bench_util.Float thr);
            (tag ^ "_p99_ms", Bench_util.Float p99);
          ])
        json_rows)

(* E23: template-specialized evaluation kernels — batched evaluation
   with kernels vs the generic CSR loop vs one-vector-at-a-time, across
   domain counts.  Every lane is checked bit-identical (outputs,
   firings, per-level firings) between the kernel and generic engines
   before any number is reported, so a kernel miscompile fails the run
   instead of skewing it. *)
let e23 ?(ns = [ 16; 32 ]) ?(domain_counts = [ 1; 2; 4 ]) () =
  Bench_util.header
    "E23: evaluation kernels (specialized vs generic batched vs packed-seq)";
  let module Th = Tcmm_threshold in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best n f =
    let r, t0 = time f in
    let tmin = ref t0 in
    for _ = 2 to n do
      let _, t = time f in
      if t < !tmin then tmin := t
    done;
    (r, !tmin)
  in
  let batch = 62 in
  List.iter
    (fun n ->
      let sched = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
      let built, t_build =
        time (fun () ->
            T.Matmul_circuit.build ~mode:Th.Builder.Direct
              ~algo:F.Instances.strassen ~schedule:sched ~entry_bits:1 ~n ())
      in
      let arena = Th.Builder.arena built.T.Matmul_circuit.builder in
      let p_kern, t_lower = time (fun () -> Th.Packed.of_arena ~kernels:true arena) in
      let p_gen = Th.Packed.of_arena ~kernels:false arena in
      let cov = Th.Packed.coverage p_kern in
      let coverage =
        float_of_int cov.Th.Packed.kernel_gates
        /. float_of_int (max 1 (Th.Packed.num_gates p_kern))
      in
      let rng = Tcmm_util.Prng.create ~seed:23 in
      let inputs =
        Array.init batch (fun _ ->
            let a = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
            let b = F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
            T.Matmul_circuit.encode_inputs built ~a ~b)
      in
      (* Differential gate before any timing: kernel vs generic on every
         lane and every observable field. *)
      let br_k = Th.Packed.run_batch p_kern inputs in
      let br_g = Th.Packed.run_batch p_gen inputs in
      for lane = 0 to batch - 1 do
        if
          Th.Packed.batch_outputs br_k ~lane <> Th.Packed.batch_outputs br_g ~lane
          || Th.Packed.batch_firings br_k ~lane
             <> Th.Packed.batch_firings br_g ~lane
          || Th.Packed.batch_level_firings br_k ~lane
             <> Th.Packed.batch_level_firings br_g ~lane
        then
          failwith
            (Printf.sprintf "e23: kernel vs generic divergence at N=%d lane %d"
               n lane)
      done;
      let r_seq = Th.Packed.run p_kern inputs.(0) in
      if r_seq.Th.Simulator.outputs <> Th.Packed.batch_outputs br_k ~lane:0 then
        failwith (Printf.sprintf "e23: packed-seq vs kernel batch divergence at N=%d" n);
      let rows =
        List.map
          (fun domains ->
            let with_pool f =
              if domains = 1 then f None
              else Th.Packed.Pool.with_pool ~domains (fun p -> f (Some p))
            in
            with_pool (fun pool ->
                (* One shared workspace keeps the 13 MB wire buffer out
                   of both timed legs — the comparison stays apples to
                   apples. *)
                let ws = Th.Packed.workspace () in
                let _, t_seq = best 2 (fun () -> Th.Packed.run ?pool p_kern inputs.(0)) in
                let _, t_gen = best 5 (fun () -> Th.Packed.run_batch ?pool ~ws p_gen inputs) in
                let _, t_kern = best 5 (fun () -> Th.Packed.run_batch ?pool ~ws p_kern inputs) in
                let gen_vec = t_gen /. float_of_int batch in
                let kern_vec = t_kern /. float_of_int batch in
                Bench_util.record ~experiment:"e23"
                  [
                    ("circuit", Bench_util.Str (Printf.sprintf "matmul N=%d d=2 (Theorem 4.9)" n));
                    ("n", Bench_util.Int n);
                    ("domains", Bench_util.Int domains);
                    ("gates", Bench_util.Int (Th.Packed.num_gates p_kern));
                    ("levels", Bench_util.Int (Th.Packed.num_levels p_kern));
                    ("pool_edges", Bench_util.Int (Th.Packed.pool_edges p_kern));
                    ("build_seconds", Bench_util.Float t_build);
                    ("lower_seconds", Bench_util.Float t_lower);
                    ("kernel_gates", Bench_util.Int cov.Th.Packed.kernel_gates);
                    ("fallback_gates", Bench_util.Int cov.Th.Packed.fallback_gates);
                    ("kernel_segments", Bench_util.Int cov.Th.Packed.kernel_segments);
                    ("generic_segments", Bench_util.Int cov.Th.Packed.generic_segments);
                    ("kernel_coverage", Bench_util.Float coverage);
                    ("batch_size", Bench_util.Int batch);
                    ("packed_seq_seconds", Bench_util.Float t_seq);
                    ("generic_batched_per_vector", Bench_util.Float gen_vec);
                    ("kernel_batched_per_vector", Bench_util.Float kern_vec);
                    ("kernel_speedup_vs_generic", Bench_util.Float (t_gen /. t_kern));
                    ( "kernel_batched_speedup_vs_packed_seq",
                      Bench_util.Float (t_seq /. kern_vec) );
                  ];
                [
                  Tb.Int domains;
                  Tb.Str (Printf.sprintf "%.2f ms" (t_seq *. 1e3));
                  Tb.Str (Printf.sprintf "%.3f ms" (gen_vec *. 1e3));
                  Tb.Str (Printf.sprintf "%.3f ms" (kern_vec *. 1e3));
                  Tb.Str (Printf.sprintf "%.1fx" (t_gen /. t_kern));
                ]))
          domain_counts
      in
      Tb.print
        ~title:
          (Printf.sprintf
             "matmul N=%d d=2: %d gates, kernel coverage %.1f%% (%d/%d segments), B=%d"
             n (Th.Packed.num_gates p_kern) (100. *. coverage)
             cov.Th.Packed.kernel_segments
             (cov.Th.Packed.kernel_segments + cov.Th.Packed.generic_segments)
             batch)
        ~header:
          [ "domains"; "seq/vector"; "generic batched/vec"; "kernel batched/vec"; "kernel speedup" ]
        ~rows;
      Gc.compact ())
    ns

(* E24: the artifact store — what a compile costs cold, what persisting
   it costs, and what the mmap warm load gives back.  One spec per N
   (the flagship matmul d=2 family), each leg differentially gated: the
   store-loaded circuit must be structurally identical to the fresh
   build and answer bit-identically (values and firings) on every lane
   before any timing is reported.  At the flagship N=16 a warm start
   (one verified mmap load) must beat a cold start (build + pack +
   persist) by at least 10x — that restart ratio is the point of the
   store, so a regression fails the bench rather than quietly shipping
   a slow loader.  Other sizes record their ratios without a floor:
   load time is CRC-64-throughput-bound (about 1 GB/s per core) and so
   linear in artifact bytes, which grow faster than build time past
   N=16 on a single core.  Recorded as BENCH_store.json. *)
let e24 ?(ns = [ 8; 16; 32 ]) () =
  Bench_util.header "E24: artifact store (cold build vs save vs warm load)";
  let module Th = Tcmm_threshold in
  let module A = Tcmm_store.Artifact in
  let module St = Tcmm_store.Store in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best k f =
    let r, t0 = time f in
    let tmin = ref t0 in
    for _ = 2 to k do
      let _, t = time f in
      if t < !tmin then tmin := t
    done;
    (r, !tmin)
  in
  let dir = Filename.temp_file "tcmm_bench_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let remove_dir () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:remove_dir @@ fun () ->
  let store =
    match St.create ~dir () with
    | Ok s -> s
    | Error m -> failwith ("e24: cannot open store: " ^ m)
  in
  let batch = 16 in
  let rows =
    List.map
      (fun n ->
        let sched = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
        let (built, packed), t_cold =
          time (fun () ->
              let built =
                T.Matmul_circuit.build ~mode:Th.Builder.Direct
                  ~algo:F.Instances.strassen ~schedule:sched ~entry_bits:1 ~n
                  ()
              in
              (built, T.Matmul_circuit.pack ~kernels:true built))
        in
        let key =
          Printf.sprintf "matmul|strassen|thm45|d=2|n=%d|b=1|signed=false|tau=0"
            n
        in
        let meta =
          {
            A.m_key = key;
            m_templates = true;
            m_kernels = true;
            m_build_seconds = t_cold;
            m_stats = T.Matmul_circuit.stats built;
            m_io =
              A.Matmul_io
                {
                  layout_a = built.T.Matmul_circuit.layout_a;
                  layout_b = built.T.Matmul_circuit.layout_b;
                  c_grid = built.T.Matmul_circuit.c_grid;
                };
          }
        in
        let bytes, t_save =
          time (fun () ->
              match St.save store ~meta packed with
              | Ok b -> b
              | Error m -> failwith ("e24: save failed: " ^ m))
        in
        let loaded, t_load =
          best 3 (fun () ->
              match St.find store ~key with
              | Some a -> a
              | None -> failwith "e24: warm load missed a saved artifact")
        in
        let lp = loaded.A.a_packed in
        if not (Th.Packed.structural_equal packed lp) then
          failwith
            (Printf.sprintf "e24: loaded artifact differs structurally at N=%d"
               n);
        (* Differential gate: fresh vs loaded vs the integer reference,
           every lane, values and firings. *)
        let rng = Tcmm_util.Prng.create ~seed:24 in
        let pairs =
          Array.init batch (fun _ ->
              ( F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1,
                F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 ))
        in
        let inputs =
          Array.map
            (fun (a, b) -> T.Matmul_circuit.encode_inputs built ~a ~b)
            pairs
        in
        let br_f = Th.Packed.run_batch packed inputs in
        let br_l = Th.Packed.run_batch lp inputs in
        Array.iteri
          (fun lane (a, b) ->
            let m_f =
              T.Matmul_circuit.decode built (Th.Packed.batch_value br_f ~lane)
            in
            let m_l =
              T.Matmul_circuit.decode built (Th.Packed.batch_value br_l ~lane)
            in
            if not (F.Matrix.equal m_f (F.Matrix.mul a b)) then
              failwith
                (Printf.sprintf "e24: fresh build wrong at N=%d lane %d" n lane);
            if not (F.Matrix.equal m_f m_l) then
              failwith
                (Printf.sprintf
                   "e24: store-loaded circuit diverges at N=%d lane %d" n lane);
            if
              Th.Packed.batch_firings br_f ~lane
              <> Th.Packed.batch_firings br_l ~lane
            then
              failwith
                (Printf.sprintf "e24: firings diverge at N=%d lane %d" n lane))
          pairs;
        let cold_start = t_cold +. t_save in
        let speedup = cold_start /. t_load in
        if n = 16 && speedup < 10. then
          failwith
            (Printf.sprintf
               "e24: warm start only %.1fx faster than a cold start at N=%d"
               speedup n);
        Bench_util.record ~experiment:"e24"
          [
            ("n", Bench_util.Int n);
            ("gates", Bench_util.Int (Th.Packed.num_gates packed));
            ("artifact_bytes", Bench_util.Int bytes);
            ("cold_build_seconds", Bench_util.Float t_cold);
            ("save_seconds", Bench_util.Float t_save);
            ("warm_load_seconds", Bench_util.Float t_load);
            ("warm_speedup_vs_cold_start", Bench_util.Float speedup);
            ("warm_speedup_vs_build", Bench_util.Float (t_cold /. t_load));
          ];
        [
          Tb.Int n;
          Tb.Int (Th.Packed.num_gates packed);
          Tb.Str (Printf.sprintf "%.1f MiB" (float_of_int bytes /. 1048576.));
          Tb.Str (Printf.sprintf "%.2f s" t_cold);
          Tb.Str (Printf.sprintf "%.3f s" t_save);
          Tb.Str (Printf.sprintf "%.3f s" t_load);
          Tb.Str (Printf.sprintf "%.1fx" speedup);
        ])
      ns
  in
  Tb.print
    ~title:"matmul d=2 b=1: compile once, load warm everywhere after"
    ~header:
      [
        "N"; "gates"; "artifact"; "cold build"; "save"; "warm load";
        "warm vs cold start";
      ]
    ~rows

(* E25: sharded fleet serving — aggregate pipelined throughput of a
   K-worker fleet against the sequential single-process baseline on the
   same tiny-circuit workload as E21.  Every reply in every leg is
   verified bit-exact against the reference product before any number
   is reported, the spec-affinity router gets its own differential leg,
   and the run fails hard if the fleet does not clear [gate]x the
   baseline. *)
let e25 ?(workers = 8) ?(per_client = 400) ?(seq_requests = 300)
    ?(gate = 5.0) () =
  Bench_util.header
    (Printf.sprintf "E25: fleet serving throughput (%d workers)" workers);
  let module Sv = Tcmm_server in
  let module P = Sv.Protocol in
  let module Fl = Sv.Fleet in
  let clock = Tcmm_util.Clock.now in
  let spec =
    { P.kind = P.Matmul; algo = "strassen"; schedule = "thm45"; d = 2;
      n = 4; entry_bits = 2; signed = true; tau = 0; kronpow = false }
  in
  let rand_pair rng =
    let a = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
    let b = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
    (a, b)
  in
  let dir = Filename.temp_file "tcmm_e25" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rm_dir () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:rm_dir @@ fun () ->
  let base_cfg =
    {
      (Sv.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      Sv.Server.cache_capacity = 8;
      store = Some dir;
    }
  in
  (* Sequential single-process baseline: the E21 shape, one request in
     flight at a time against one server process. *)
  let seq_rps =
    let listen_fd, addr = Sv.Server.bind base_cfg in
    let cfg = { base_cfg with Sv.Server.addr = addr } in
    match Unix.fork () with
    | 0 ->
        (try Sv.Server.serve_fd cfg listen_fd with _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close listen_fd;
        Fun.protect
          ~finally:(fun () ->
            (try ignore (Sv.Client.shutdown addr) with _ -> ());
            ignore (Unix.waitpid [] pid))
          (fun () ->
            (match Sv.Client.call addr (P.Compile spec) with
            | Ok (P.Compiled _) -> ()
            | _ -> failwith "e25: baseline warm-up compile failed");
            let rng = Tcmm_util.Prng.create ~seed:25 in
            let t0 = clock () in
            for i = 1 to seq_requests do
              let a, b = rand_pair rng in
              match Sv.Client.call ~seed:i addr (P.Run_matmul (spec, a, b)) with
              | Ok (P.Matmul_result (c, _)) ->
                  if not (F.Matrix.equal c (F.Matrix.mul a b)) then
                    failwith "e25: baseline product disagrees with reference"
              | Ok _ -> failwith "e25: unexpected baseline response"
              | Error f ->
                  failwith
                    (Format.asprintf "e25: baseline request failed: %a"
                       Sv.Client.pp_failure f)
            done;
            float_of_int seq_requests /. (clock () -. t0))
  in
  Printf.printf "sequential single-process baseline: %.0f req/s\n%!" seq_rps;
  let fleet_cfg = { (Fl.default_config base_cfg) with Fl.workers } in
  let handle = Fl.bind fleet_cfg in
  let endpoints = Array.of_list (Fl.endpoints handle) in
  let control = Fl.control_addr handle in
  let sup_pid =
    match Unix.fork () with
    | 0 ->
        (try Fl.supervise handle with _ -> ());
        Unix._exit 0
    | pid ->
        Fl.close_handle handle;
        pid
  in
  let fleet_rps, checked, agg_run =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill sup_pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] sup_pid))
      (fun () ->
        (* Warm every worker cache through its own endpoint; the shared
           store makes all but the first compile a warm load. *)
        Array.iter
          (fun ep ->
            match Sv.Client.call ep (P.Compile spec) with
            | Ok (P.Compiled _) -> ()
            | _ -> failwith "e25: fleet warm-up compile failed")
          endpoints;
        (* Differential leg: spec-affinity routed requests through the
           shard router, every reply verified bit-exact. *)
        let pool = Sv.Client.Pool.create (Array.to_list endpoints) in
        let key = Sv.Client.Pool.key_of_spec spec in
        let rng = Tcmm_util.Prng.create ~seed:2525 in
        let checked = 50 in
        for i = 1 to checked do
          let a, b = rand_pair rng in
          match
            Sv.Client.Pool.call ~seed:i pool ~key (P.Run_matmul (spec, a, b))
          with
          | Ok (P.Matmul_result (c, _)) ->
              if not (F.Matrix.equal c (F.Matrix.mul a b)) then
                failwith "e25: fleet product disagrees with reference"
          | Ok _ -> failwith "e25: unexpected fleet response"
          | Error f ->
              failwith
                (Format.asprintf "e25: fleet request failed: %a"
                   Sv.Client.pp_failure f)
        done;
        (* Timed leg: one pipelining client child per worker (perfect
           affinity partition), wall-clock across all children.  Each
           child verifies every reply against its precomputed products
           and reports through its exit status. *)
        let t0 = clock () in
        let children =
          Array.mapi
            (fun w ep ->
              match Unix.fork () with
              | 0 ->
                  let ok =
                    try
                      let rng = Tcmm_util.Prng.create ~seed:(2600 + w) in
                      let reqs =
                        Array.init per_client (fun _ ->
                            let a, b = rand_pair rng in
                            (P.Run_matmul (spec, a, b), F.Matrix.mul a b))
                      in
                      let cl = Sv.Client.connect ep in
                      (* Windowed pipelining: enough in flight to keep
                         the server's lanes full without outrunning the
                         socket buffers. *)
                      let window = 64 in
                      let ok = ref true in
                      let i = ref 0 in
                      while !i < per_client && !ok do
                        let j = min per_client (!i + window) in
                        for k = !i to j - 1 do
                          Sv.Client.send cl (fst reqs.(k))
                        done;
                        for k = !i to j - 1 do
                          match Sv.Client.recv cl with
                          | Ok (P.Matmul_result (c, _)) ->
                              if not (F.Matrix.equal c (snd reqs.(k))) then
                                ok := false
                          | _ -> ok := false
                        done;
                        i := j
                      done;
                      Sv.Client.close cl;
                      !ok
                    with _ -> false
                  in
                  Unix._exit (if ok then 0 else 1)
              | pid -> pid)
            endpoints
        in
        Array.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> failwith "e25: a fleet client child failed verification")
          children;
        let total = clock () -. t0 in
        let n = workers * per_client in
        (* Fleet-wide accounting must hold on the supervisor's control
           aggregate at quiescence. *)
        let agg_run =
          match Sv.Client.call control P.Metrics with
          | Ok (P.Metrics_result m) ->
              if m.P.accepted
                 <> m.P.run_requests + m.P.deadline_expired + m.P.eval_failures
              then failwith "e25: fleet-wide accounting identity violated";
              if m.P.worker_id <> 0 then
                failwith "e25: aggregate metrics carry a worker id";
              if m.P.run_requests < n + checked then
                failwith "e25: aggregate run_requests below issued requests";
              m.P.run_requests
          | _ -> failwith "e25: fleet metrics aggregation failed"
        in
        (float_of_int n /. total, checked, agg_run))
  in
  let speedup = fleet_rps /. seq_rps in
  Printf.printf
    "fleet (%d workers): %.0f req/s aggregate (%d requests, %d verified \
     differentially), %.1fx the sequential baseline\n"
    workers fleet_rps agg_run checked speedup;
  Bench_util.record ~experiment:"e25"
    [
      ("circuit", Bench_util.Str "matmul N=4 d=2 (signed, 2-bit entries)");
      ("workers", Bench_util.Int workers);
      ("seq_requests", Bench_util.Int seq_requests);
      ("fleet_requests", Bench_util.Int (workers * per_client));
      ("differential_requests", Bench_util.Int checked);
      ("aggregate_run_requests", Bench_util.Int agg_run);
      ("seq_req_per_s", Bench_util.Float seq_rps);
      ("fleet_req_per_s", Bench_util.Float fleet_rps);
      ("speedup_vs_sequential", Bench_util.Float speedup);
      ("gate", Bench_util.Float gate);
    ];
  if speedup < gate then
    failwith
      (Printf.sprintf "e25: fleet speedup %.2fx is below the %.1fx gate"
         speedup gate)

(* E26: incremental dirty-cone evaluation — a stateful {!Packed.session}
   absorbing edge-flip deltas vs full one-vector re-evaluation of the
   flagship trace N=16 circuit.  Each graph family first replays
   a verified pass in which every incremental state must be
   bit-identical (values, outputs, firings, per-level firings) to a
   from-scratch evaluation and the output bit must agree with the
   integer reference trace — a divergence fails the bench before any
   number is reported.  Then update latency is charted across flip
   batch sizes on Erdos–Renyi and BTER-style community graphs, and the
   single-flip update must beat the full re-evaluation by at
   least [gate]x (10x in the full run, a derated floor in the CI smoke
   variant on shared cores).  Recorded as BENCH_incremental.json. *)
let e26 ?(updates = 32) ?(verify_updates = 12)
    ?(batch_sizes = [ 1; 4; 16; 64 ]) ?(gate = 10.0) () =
  Bench_util.header
    "E26: incremental dirty-cone evaluation (session updates vs full re-eval)";
  let module Th = Tcmm_threshold in
  let module G = Tcmm_graph in
  let n = 16 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best k f =
    let r, t0 = time f in
    let tmin = ref t0 in
    for _ = 2 to k do
      let _, t = time f in
      if t < !tmin then tmin := t
    done;
    (r, !tmin)
  in
  let built = Lazy.force shared_tr16 in
  let packed, t_pack =
    time (fun () -> T.Trace_circuit.pack ~kernels:true built)
  in
  let layout = built.T.Trace_circuit.layout in
  let gates = Th.Packed.num_gates packed in
  let rng = Tcmm_util.Prng.create ~seed:26 in
  let random_flip () =
    let i = Tcmm_util.Prng.int rng ~bound:(n - 1) in
    let j = Tcmm_util.Prng.int_range rng ~lo:(i + 1) ~hi:(n - 1) in
    (i, j)
  in
  let random_batch size = List.init size (fun _ -> random_flip ()) in
  (* The full re-evaluation baselines are family-independent and run
     what the server's batcher runs: the 62-lane kernels for a full
     batch, the scalar level walk for a lone lane.  The gate compares
     against the cheaper of the 1-lane batch and the one-shot run: that
     is what a streaming client pays per flip without incrementality —
     one update demands one fresh answer and cannot be amortized across
     the 62 unrelated lanes of a throughput batch.  The amortized B=62
     figure is recorded as context. *)
  let batch = 62 in
  let full_inputs =
    Array.init batch (fun _ ->
        T.Trace_circuit.encode_input built
          (G.Graph.adjacency (G.Generate.erdos_renyi rng ~n ~p:0.3)))
  in
  let ws = Th.Packed.workspace () in
  let _, t_full_batch =
    best 3 (fun () -> Th.Packed.run_batch ~ws packed full_inputs)
  in
  let full_vec = t_full_batch /. float_of_int batch in
  let _, t_full_seq = best 3 (fun () -> Th.Packed.run packed full_inputs.(0)) in
  let _, t_full_1 =
    best 3 (fun () -> Th.Packed.run_batch ~ws packed [| full_inputs.(0) |])
  in
  let full_stream = min t_full_1 t_full_seq in
  Printf.printf
    "full re-eval baseline: %.3f ms 1-lane batch, %.3f ms one-shot, %.3f \
     ms/vector amortized batched (B=%d); pack %.2f s\n%!"
    (t_full_1 *. 1e3) (t_full_seq *. 1e3) (full_vec *. 1e3) batch t_pack;
  let families =
    [
      ("er", fun rng -> G.Generate.erdos_renyi rng ~n ~p:0.3);
      ( "bter",
        fun rng ->
          G.Generate.blocked_community rng ~blocks:4 ~block_size:4 ~p_in:0.6
            ~p_out:0.05 );
    ]
  in
  let rows =
    List.concat_map
      (fun (family, gen) ->
        (* Divergence gate: a verified pass where every incremental
           state is checked bit-identical against from-scratch
           evaluation and against the integer reference trace. *)
        let g = ref (gen (Tcmm_util.Prng.create ~seed:260)) in
        let session =
          Th.Packed.session packed
            (T.Trace_circuit.encode_input built (G.Graph.adjacency !g))
        in
        let check where (res : Th.Simulator.result) =
          let adj = G.Graph.adjacency !g in
          let fresh =
            Th.Packed.run packed (T.Trace_circuit.encode_input built adj)
          in
          if
            res.Th.Simulator.outputs <> fresh.Th.Simulator.outputs
            || res.Th.Simulator.firings <> fresh.Th.Simulator.firings
            || res.Th.Simulator.level_firings
               <> fresh.Th.Simulator.level_firings
            || not
                 (Bytes.equal res.Th.Simulator.values fresh.Th.Simulator.values)
          then
            failwith
              (Printf.sprintf
                 "e26: %s incremental state diverges from from-scratch (%s)"
                 family where);
          let fires =
            Bytes.get res.Th.Simulator.values built.T.Trace_circuit.output
            <> '\000'
          in
          if
            fires
            <> (T.Trace_circuit.reference adj >= built.T.Trace_circuit.tau)
          then
            failwith
              (Printf.sprintf
                 "e26: %s output bit disagrees with integer reference (%s)"
                 family where)
        in
        check "base" (Th.Packed.session_result session);
        for u = 1 to verify_updates do
          let g', delta =
            G.Stream.delta ~layout !g (random_batch ((u mod 3) + 1))
          in
          g := g';
          check (Printf.sprintf "update %d" u) (Th.Packed.update session delta)
        done;
        (* Timed legs: one fresh session per batch size; deltas are
           precomputed (graph evolution is client-side bookkeeping) so
           the timer sees only Packed.update. *)
        List.map
          (fun size ->
            let g = ref (gen (Tcmm_util.Prng.create ~seed:(261 + size))) in
            let session =
              Th.Packed.session packed
                (T.Trace_circuit.encode_input built (G.Graph.adjacency !g))
            in
            let stats0 = Th.Packed.session_stats session in
            let deltas =
              Array.init updates (fun _ ->
                  let g', d = G.Stream.delta ~layout !g (random_batch size) in
                  g := g';
                  d)
            in
            let _, t =
              time (fun () ->
                  Array.iter
                    (fun d -> ignore (Th.Packed.update session d))
                    deltas)
            in
            let stats1 = Th.Packed.session_stats session in
            let per_update = t /. float_of_int updates in
            let dirty =
              float_of_int
                (stats1.Th.Packed.su_dirty_gates
                - stats0.Th.Packed.su_dirty_gates)
              /. float_of_int updates
            in
            let speedup = full_stream /. per_update in
            if size = 1 && speedup < gate then
              failwith
                (Printf.sprintf
                   "e26: %s single-flip update only %.1fx faster than full \
                    re-eval (gate %.1fx)"
                   family speedup gate);
            Bench_util.record ~experiment:"e26"
              [
                ("circuit", Bench_util.Str "trace N=16 d=2 (Theorem 4.5)");
                ("family", Bench_util.Str family);
                ("batch_flips", Bench_util.Int size);
                ("updates", Bench_util.Int updates);
                ("gates", Bench_util.Int gates);
                ("update_seconds", Bench_util.Float per_update);
                ("dirty_gates_mean", Bench_util.Float dirty);
                ( "dirty_ratio",
                  Bench_util.Float (dirty /. float_of_int gates) );
                ("full_1lane_seconds", Bench_util.Float t_full_1);
                ("full_seq_seconds", Bench_util.Float t_full_seq);
                ( "full_batched_seconds_per_vector",
                  Bench_util.Float full_vec );
                ("speedup_vs_full", Bench_util.Float speedup);
                ( "speedup_vs_full_batched",
                  Bench_util.Float (full_vec /. per_update) );
                ("gate", Bench_util.Float (if size = 1 then gate else 0.));
              ];
            [
              Tb.Str family;
              Tb.Int size;
              Tb.Str (Printf.sprintf "%.3f ms" (per_update *. 1e3));
              Tb.Str
                (Printf.sprintf "%.0f (%.1f%%)" dirty
                   (100. *. dirty /. float_of_int gates));
              Tb.Str (Printf.sprintf "%.1fx" speedup);
            ])
          batch_sizes)
      families
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "trace N=16 d=2: %d gates; incremental update vs %.3f ms full \
          re-eval"
         gates (full_stream *. 1e3))
    ~header:
      [ "family"; "flips/update"; "update latency"; "dirty gates"; "speedup" ]
    ~rows

(* E27: the algorithm/workload matrix — exact circuit accounting for
   every bundled fast-matmul algorithm (Strassen, Winograd's 15-product
   variant, the Kronecker-squared <4,4,4;49>, and Laderman's <3,3,3;23>)
   with and without the Kronecker-power linear-layer factoring.  All
   builds are count-only (the accounting is exact either way); value
   identity of the kronpow arm is locked down separately by the test
   suite and the differential fuzzer, so this bench charts size only:
   gates/edges/depth per (algorithm, N) against the sparsity profile's
   gamma^d — the paper's Section 3 knob that drives the subcubic wire
   exponent — plus the measured kronpow reduction.  The kronpow arm is
   gated: its admissibility rule promises gates and edges never exceed
   the flat build, and any regression fails the bench hard.  Recorded as
   BENCH_algos.json. *)
let e27 ?(entry_bits = 6) ?(d = 2)
    ?(matrix =
      [
        ("strassen", [ 8; 16 ]);
        ("winograd", [ 8; 16 ]);
        ("strassen^2", [ 16 ]);
        ("laderman", [ 9; 27 ]);
      ]) () =
  Bench_util.header
    "E27: algorithm matrix (gates/edges per algo x N, kronpow arms, gamma^d)";
  let module Th = Tcmm_threshold in
  let rows =
    List.concat_map
      (fun (name, ns) ->
        let algo =
          List.find
            (fun a -> a.F.Bilinear.name = name)
            (F.Instances.all ())
        in
        let prof = F.Sparsity.analyze algo in
        let gamma = prof.F.Sparsity.overall.F.Sparsity.gamma in
        let gamma_d = Float.pow gamma (float_of_int d) in
        List.map
          (fun n ->
            let schedule =
              T.Level_schedule.resolve ~algo ~name:"thm45" ~d ~n
            in
            let build ~kronpow =
              let t0 = Unix.gettimeofday () in
              let b =
                T.Matmul_circuit.build ~mode:Th.Builder.Count_only ~kronpow
                  ~algo ~schedule ~entry_bits ~n ()
              in
              (T.Matmul_circuit.stats b, Unix.gettimeofday () -. t0)
            in
            let flat, t_flat = build ~kronpow:false in
            let kron, t_kron = build ~kronpow:true in
            if
              kron.Th.Stats.gates > flat.Th.Stats.gates
              || kron.Th.Stats.edges > flat.Th.Stats.edges
            then
              failwith
                (Printf.sprintf
                   "e27: kronpow grew %s N=%d (gates %d -> %d, edges %d -> %d)"
                   name n flat.Th.Stats.gates kron.Th.Stats.gates
                   flat.Th.Stats.edges kron.Th.Stats.edges);
            let reduction part whole =
              1. -. (float_of_int part /. float_of_int (max 1 whole))
            in
            let edge_red = reduction kron.Th.Stats.edges flat.Th.Stats.edges in
            Bench_util.record ~experiment:"e27"
              [
                ("algo", Bench_util.Str name);
                ("n", Bench_util.Int n);
                ("d", Bench_util.Int d);
                ("entry_bits", Bench_util.Int entry_bits);
                ("omega", Bench_util.Float prof.F.Sparsity.omega);
                ("gamma", Bench_util.Float gamma);
                ("gamma_pow_d", Bench_util.Float gamma_d);
                ("flat_gates", Bench_util.Int flat.Th.Stats.gates);
                ("flat_edges", Bench_util.Int flat.Th.Stats.edges);
                ("flat_depth", Bench_util.Int flat.Th.Stats.depth);
                ("kronpow_gates", Bench_util.Int kron.Th.Stats.gates);
                ("kronpow_edges", Bench_util.Int kron.Th.Stats.edges);
                ("kronpow_depth", Bench_util.Int kron.Th.Stats.depth);
                ( "kronpow_gate_reduction",
                  Bench_util.Float
                    (reduction kron.Th.Stats.gates flat.Th.Stats.gates) );
                ("kronpow_edge_reduction", Bench_util.Float edge_red);
                ("flat_build_seconds", Bench_util.Float t_flat);
                ("kronpow_build_seconds", Bench_util.Float t_kron);
              ];
            [
              Tb.Str name;
              Tb.Int n;
              Tb.Float gamma;
              Tb.Float gamma_d;
              Tb.Int flat.Th.Stats.gates;
              Tb.Int flat.Th.Stats.edges;
              Tb.Int kron.Th.Stats.edges;
              Tb.Str
                (Printf.sprintf "%.3f%% (-%d)" (100. *. edge_red)
                   (flat.Th.Stats.edges - kron.Th.Stats.edges));
              Tb.Str
                (Printf.sprintf "%d+%d" flat.Th.Stats.depth
                   (kron.Th.Stats.depth - flat.Th.Stats.depth));
            ])
          ns)
      matrix
  in
  Tb.print
    ~title:
      (Printf.sprintf
         "matmul thm45 d=%d, %d-bit entries: flat vs kronpow accounting"
         d entry_bits)
    ~header:
      [
        "algo"; "N"; "gamma"; "gamma^d"; "gates"; "edges"; "kron edges";
        "edge cut"; "depth+kron";
      ]
    ~rows

(* e18, e19, e21, and e25 fork server children; they are listed before
   e17 because Unix.fork is forbidden after e17 has spawned worker
   domains. *)
let all_experiments =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("e11", Experiments.e11);
    ("e12", Experiments.e12);
    ("e13", Experiments.e13);
    ("e14", Experiments.e14);
    ("e15", Experiments.e15);
    ("e18", e18);
    ("e19", e19);
    ("e21", e21);
    (* e25 forks a fleet supervisor plus per-worker client children; the
       smoke variant is the CI subset (3 workers, fewer requests, a
       correspondingly lower speedup gate on shared CI cores). *)
    ("e25", fun () -> e25 ());
    ( "e25-smoke",
      fun () ->
        e25 ~workers:3 ~per_client:150 ~seq_requests:150 ~gate:1.5 () );
    (* e20 spawns domains for its parallel lowering legs, so it sits
       after the forking experiments (e18/e19), like e17. *)
    ("e20", fun () -> Experiments.e20 ());
    ("e20-smoke", fun () -> Experiments.e20 ~ns:[ 8 ] ());
    ("e17", e17);
    (* e23 spawns domains too; the smoke variant is the CI subset (N=16,
       fewer domain counts) and still fails hard on any kernel-vs-generic
       divergence. *)
    ("e23", fun () -> e23 ());
    ("e23-smoke", fun () -> e23 ~ns:[ 16 ] ~domain_counts:[ 1; 2 ] ());
    (* e24 neither forks nor spawns domains; the smoke variant is the
       CI subset (N=8 only, same differential gates, no speedup floor
       at that size). *)
    ("e24", fun () -> e24 ());
    ("e24-smoke", fun () -> e24 ~ns:[ 8 ] ());
    (* e26 neither forks nor spawns domains; the smoke variant keeps the
       full divergence gate but derates the speedup floor for shared CI
       cores and trims the update counts. *)
    ("e26", fun () -> e26 ());
    ( "e26-smoke",
      fun () ->
        e26 ~updates:12 ~verify_updates:8 ~batch_sizes:[ 1; 16 ] ~gate:3.0 ()
    );
    (* e27 neither forks nor spawns domains (count-only builds); the
       smoke variant trims the matrix to one size per algorithm but
       keeps the kronpow never-grows gate. *)
    ("e27", fun () -> e27 ());
    ( "e27-smoke",
      fun () ->
        e27
          ~matrix:
            [
              ("strassen", [ 8 ]); ("winograd", [ 8 ]); ("strassen^2", [ 16 ]);
              ("laderman", [ 9 ]);
            ]
          () );
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ ->
        (* The -smoke variants are CI subsets; a full run does the real
           experiments only. *)
        List.filter
          (fun e ->
            e <> "e20-smoke" && e <> "e23-smoke" && e <> "e24-smoke"
            && e <> "e25-smoke" && e <> "e26-smoke" && e <> "e27-smoke")
          (List.map fst all_experiments)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f ->
          f ();
          (* Large count-only builds leave big heaps behind; return the
             memory before the next experiment. *)
          Gc.compact ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 2)
    requested;
  Bench_util.write_json
    ~only:(fun e ->
      e <> "e18" && e <> "e19" && e <> "e20" && e <> "e21" && e <> "e23"
      && e <> "e24" && e <> "e25" && e <> "e26" && e <> "e27")
    "BENCH_simulator.json";
  Bench_util.write_json ~only:(fun e -> e = "e18") "BENCH_server.json";
  Bench_util.write_json ~only:(fun e -> e = "e19") "BENCH_check.json";
  Bench_util.write_json ~only:(fun e -> e = "e20") "BENCH_build.json";
  Bench_util.write_json ~only:(fun e -> e = "e21") "BENCH_serve_robust.json";
  Bench_util.write_json ~only:(fun e -> e = "e23") "BENCH_kernels.json";
  Bench_util.write_json ~only:(fun e -> e = "e24") "BENCH_store.json";
  Bench_util.write_json ~only:(fun e -> e = "e25") "BENCH_fleet.json";
  Bench_util.write_json ~only:(fun e -> e = "e26") "BENCH_incremental.json";
  Bench_util.write_json ~only:(fun e -> e = "e27") "BENCH_algos.json";
  print_endline "done."
