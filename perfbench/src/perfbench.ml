(* The repository benchmark: a 2-worker serving fleet under one of three
   workloads, with every reply verified against the integer reference.

     perfbench --workload mm16_burst|mixed_open|trace8_stream
               --seed N --seconds S --trace 0|1 [--smoke]

   Prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A wrong answer,
   a worker restart or a broken accounting identity exits non-zero
   without that line.  See perfbench/README.md. *)

module P = Tcmm_server.Protocol
module Client = Tcmm_server.Client
module W = Workload
module L = Loadgen
module Prng = Tcmm_util.Prng

(* mixed_open's arrival rate (requests/s): low enough that requests
   seldom queue behind each other, so the median measures per-request
   cost rather than queueing (see README.md). *)
let rate = 40.

type args = {
  workload : W.name;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** one set-up, shorter streams, fewer repetitions *)
}

let usage () =
  prerr_endline
    "usage: perfbench --workload mm16_burst|mixed_open|trace8_stream --seed N \
     --seconds S --trace 0|1 [--smoke]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.
  and trace = ref false and smoke = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := W.of_string w;
        if !workload = None then usage ();
        go rest
    | "--seed" :: s :: rest -> seed := int_of_string s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: t :: rest -> trace := t = "1"; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | None -> usage ()
  | Some workload ->
      { workload; seed = !seed; seconds = !seconds; trace = !trace; smoke = !smoke }

(* ------------------------------------------------------------------ *)
(* Inputs, generated before anything is timed                         *)
(* ------------------------------------------------------------------ *)

type inputs =
  | Bursts of W.op array array  (** per connection *)
  | Arrivals of W.arrival array
  | Streams of W.stream array  (** per connection *)

let generate a rng =
  match a.workload with
  | W.Mm16_burst ->
      Bursts
        (Array.init Deploy.workers (fun _ ->
             W.burst_pool (Prng.split rng) ~bursts:(if a.smoke then 2 else 8)))
  | W.Mixed_open -> Arrivals (W.schedule rng ~rate ~seconds:a.seconds)
  | W.Trace8_stream ->
      Streams
        (Array.init (W.connections ~workers:Deploy.workers a.workload) (fun _ ->
             W.stream (Prng.split rng) ~steps:(if a.smoke then 100 else 1000)))

(* ------------------------------------------------------------------ *)
(* One measured window                                                *)
(* ------------------------------------------------------------------ *)

(* A slice boundary of a closed-loop window: the instant, the verified
   ops so far and the workers' CPU seconds so far. *)
type mark = { at : float; ops : int; cpu : float }

(* Closed-loop streams mark a boundary every [slice_s] seconds. *)
let slice_s = 0.2

type window = {
  st : L.stats;  (** the timed ops *)
  aux : L.stats;  (** warm-up, session opening and cross-checks *)
  seconds : float;
  m0 : P.metrics;
  m1 : P.metrics;
  server_cpu_s : float;
  client_cpu_s : float;
  rss_mb : float;
  restarts : int;
  updates : W.op array array;  (** stream workloads: per-connection update ops *)
  per_worker : (int * float) list;  (** verified ops and median latency (ms) per connection *)
  marks : mark list;  (** slice boundaries, oldest first; empty unless a stream *)
}

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure (a : args) (fleet : Deploy.t) inputs rng =
  let warmup_s = if a.smoke then 0.3 else 2. in
  let conns =
    List.map L.connect
      (List.filteri
         (fun i _ -> i < W.connections ~workers:Deploy.workers a.workload)
         (Array.to_list fleet.Deploy.endpoints))
  in
  Fun.protect ~finally:(fun () -> List.iter L.close conns) @@ fun () ->
  let st = L.stats () and aux = L.stats () in
  (* Warm-up: serve every circuit on every worker for a while, so
     first-use costs (page faults on mapped artifacts, workspace growth)
     stay out of the window. *)
  let updates =
    match inputs with
    | Bursts pools -> ignore (L.bursts aux conns pools ~seconds:warmup_s); [||]
    | Arrivals _ ->
        List.iter
          (fun c -> List.iter (fun (s, _) -> ignore (L.call aux c (W.run_op rng s))) W.mix)
          conns;
        [||]
    | Streams streams ->
        Array.of_list
          (List.mapi
             (fun i c ->
               match L.call aux c streams.(i).W.open_op with
               | P.Session_opened o ->
                   Array.init (Array.length streams.(i).W.updates) (W.update_op ~sid:o.P.so_sid streams.(i))
               | _ -> failwith "session did not open")
             conns)
  in
  let steps = Array.make (List.length conns) 0 in
  (match inputs with
  | Streams _ -> ignore (L.updates aux conns updates steps ~seconds:warmup_s)
  | _ -> ());
  (* Per-connection samples count the timed window only. *)
  List.iter (fun c -> c.L.lat.L.Samples.n <- 0) conns;
  let m0 = Deploy.metrics fleet in
  let cpu0 = Deploy.cpu_seconds_total fleet and ccpu0 = client_cpu () in
  let marks = ref [] and next_mark = ref 0. in
  let tick () =
    let t = L.now () in
    if t >= !next_mark then begin
      marks := { at = t; ops = st.L.completed; cpu = Deploy.cpu_seconds_total fleet } :: !marks;
      next_mark := t +. slice_s
    end
  in
  let seconds =
    match inputs with
    | Bursts pools -> L.bursts st conns pools ~seconds:a.seconds
    | Arrivals arr -> L.open_loop st conns arr ~seconds:a.seconds
    | Streams _ -> L.updates ~tick st conns updates steps ~seconds:a.seconds
  in
  let client_cpu_s = client_cpu () -. ccpu0 in
  let per_worker =
    List.map (fun c -> (c.L.lat.L.Samples.n, L.Samples.pct (L.Samples.sorted c.L.lat) 0.5)) conns
  in
  (* Streams end with a one-shot Run_trace of each connection's final
     graph: the session path cross-checked against the batch path. *)
  (match inputs with
  | Streams streams ->
      List.iteri
        (fun i c ->
          let k = (steps.(i) - 1) mod Array.length streams.(i).W.updates in
          ignore (L.call aux c (W.final_check streams.(i) k)))
        conns
  | _ -> ());
  let m1 = Deploy.metrics fleet in
  let server_cpu_s = Deploy.cpu_seconds_total fleet -. cpu0 in
  let roster = Deploy.roster fleet in
  {
    st; aux; seconds; m0; m1; server_cpu_s; client_cpu_s;
    rss_mb = Deploy.hwm_mb_total fleet;
    restarts = List.fold_left (fun acc w -> acc + w.P.fw_restarts) 0 roster
               + List.length (List.filter (fun w -> not w.P.fw_alive) roster);
    updates;
    per_worker;
    marks = List.rev !marks;
  }

(* Lockstep Ping round trip to one worker, microseconds. *)
let ping_rtt_us (fleet : Deploy.t) ~count =
  Client.with_connection fleet.Deploy.endpoints.(0) (fun c ->
      Layers.median
        (List.init count (fun _ ->
             let t0 = L.now () in
             (match Client.request c P.Ping with
             | Ok P.Pong -> ()
             | _ -> failwith "ping failed");
             (L.now () -. t0) *. 1e6)))

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let metric name value unit = (name, value, unit)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) ms

(* Printed only when every reply was verified: a wrong answer aborts. *)
let json ~attempted ~failed ms =
  let fields =
    List.map
      (fun (n, v, u) ->
        if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      ms
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed (String.concat ", " fields)

let ratio a b = if b = 0. then 0. else a /. b

(* Verified ops in each second after the first reply: the host's speed
   drifts, and this shows by how much within the window. *)
let print_per_second (st : L.stats) ~seconds =
  let d = st.L.done_at in
  if d.L.Samples.n > 0 then begin
    let t0 = d.L.Samples.a.(0) in
    let slices = Array.make (int_of_float seconds + 1) 0 in
    for i = 0 to d.L.Samples.n - 1 do
      let k = int_of_float (d.L.Samples.a.(i) -. t0) in
      slices.(k) <- slices.(k) + 1
    done;
    Printf.printf "per-second ops: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int slices)))
  end

(* The fastest tenth (at least one) of a stream window's slices, by
   verified ops per second, as (opening mark, closing mark) pairs;
   empty for other windows.  A closed loop of short updates runs as
   fast as the host lets it, and on a shared host that speed drifts by
   a quarter over tens of seconds; the fastest slices are what the
   program does when the host is quiet. *)
let fastest_slices w =
  let ms = Array.of_list w.marks in
  let slices = List.init (max 0 (Array.length ms - 1)) (fun k -> (ms.(k), ms.(k + 1))) in
  let rate (a, b) = float_of_int (b.ops - a.ops) /. (b.at -. a.at) in
  let by_rate = List.sort (fun x y -> compare (rate y) (rate x)) slices in
  List.filteri (fun i _ -> i < max 1 (List.length slices / 10)) by_rate

type span = {
  span_s : float;
  span_ops : int;
  span_cpu_s : float;  (** workers' CPU seconds *)
  tail : float;  (** the tail percentile reported as p99 *)
  p50_ms : float;
  tail_ms : float;
}

(* The span the end-to-end figures are taken over: for a stream, its
   fastest slices, with the median the median of the slices' own; else
   the whole window.  The tail percentile is always the whole window's:
   the fastest slices are those with the fewest slow replies, so their
   tail says more about the selection than about the program. *)
let measured_span w =
  let lat = w.st.L.latency and done_at = w.st.L.done_at in
  let whole = L.Samples.sorted lat in
  let tail = L.Samples.tail_pct (Array.length whole) in
  match fastest_slices w with
  | [] ->
      { span_s = w.seconds; span_ops = w.st.L.completed; span_cpu_s = w.server_cpu_s; tail;
        p50_ms = L.Samples.pct whole 0.5; tail_ms = L.Samples.pct whole tail }
  | top ->
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0. top in
      (* Completion instants only grow: the first sample after [t]. *)
      let first_after t =
        let rec go lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if done_at.L.Samples.a.(mid) > t then go lo mid else go (mid + 1) hi
        in
        go 0 done_at.L.Samples.n
      in
      let slice_p50 (a, b) =
        let i = first_after a.at in
        let s = Array.sub lat.L.Samples.a i (first_after b.at - i) in
        Array.sort compare s;
        L.Samples.pct s 0.5
      in
      { span_s = sum (fun (a, b) -> b.at -. a.at);
        span_ops = int_of_float (sum (fun (a, b) -> float_of_int (b.ops - a.ops)));
        span_cpu_s = sum (fun (a, b) -> b.cpu -. a.cpu);
        tail; p50_ms = Layers.median (List.map slice_p50 top); tail_ms = L.Samples.pct whole tail }

let end_to_end w ~setup_s =
  let sp = measured_span w in
  let ops = float_of_int sp.span_ops in
  ( sp.tail,
    [
      metric "throughput_ops_s" (ops /. sp.span_s) "ops/s";
      metric "latency_p50_ms" sp.p50_ms "ms";
      metric "latency_p99_ms" sp.tail_ms "ms";
      metric "ok_frac" (ratio (float_of_int w.st.L.completed) (float_of_int w.st.L.attempted)) "ratio";
      metric "setup_s" setup_s "s";
      metric "server_rss_mb" w.rss_mb "MB";
      metric "server_cpu_ms_per_op" (sp.span_cpu_s *. 1e3 /. ops) "ms";
    ] )

(* ------------------------------------------------------------------ *)
(* Per-layer legs                                                     *)
(* ------------------------------------------------------------------ *)

let layer_metrics (a : args) inputs (w : window) ~p50_ms ~ping_us rng =
  let reps = if a.smoke then 1 else 5 in
  let n_upd = if a.smoke then 20 else 200 in
  let dir = Deploy.fresh_dir () in
  Fun.protect ~finally:(fun () -> Deploy.remove_dir dir) @@ fun () ->
  let store =
    match Tcmm_store.Store.create ~dir () with
    | Ok s -> s
    | Error e -> failwith ("store: " ^ e)
  in
  (* (spec, share of ops, the workload's own ops on it, update deltas) *)
  let circuits, codec_ops, conv_jobs =
    match inputs with
    | Bursts pools ->
        ( [ (W.mm16, 1., pools.(0), Layers.Random_pairs n_upd) ],
          pools.(0),
          Array.init 16 (fun _ -> (W.conv_job16 rng, 16)) )
    | Arrivals arr ->
        let ops = Array.map (fun x -> x.W.aop) arr in
        let on s =
          let mine = List.filter (fun (o : W.op) -> W.key o.W.spec = W.key s) (Array.to_list ops) in
          Array.of_list (if mine = [] then [ W.run_op rng s ] else mine)
        in
        let jobs =
          Array.of_list
            (List.filter_map
               (fun (o : W.op) ->
                 match o.W.request with P.Run_conv (s, j) -> Some (j, s.P.n) | _ -> None)
               (Array.to_list ops))
        in
        ( List.map (fun (s, share) -> (s, share, on s, Layers.Random_pairs n_upd)) W.mix,
          ops,
          if jobs = [||] then [| (W.conv_job rng, W.conv8.P.n) |] else jobs )
    | Streams streams ->
        let s = streams.(0) in
        let graphs =
          Array.append [| s.W.open_op |]
            (Array.init (W.burst - 1) (fun k -> W.final_check s k))
        in
        ( [ (W.trace8, 1., graphs,
             Layers.Given (Array.sub s.W.updates 0 (min n_upd (Array.length s.W.updates)))) ],
          w.updates.(0),
          Array.init 16 (fun _ -> (W.conv_job16 rng, 16)) )
  in
  let legs =
    List.map
      (fun (spec, weight, ops, deltas) ->
        Gc.compact ();
        Layers.circuit_leg ~store ~reps ~weight ~deltas spec ops)
      circuits
  in
  let sum f = List.fold_left (fun acc l -> acc +. f l) 0. legs in
  let wmean f = sum (fun l -> l.Layers.weight *. f l) /. sum (fun l -> l.Layers.weight) in
  let codec_us = Layers.codec_us ~reps codec_ops in
  let im2col_us = Layers.im2col_us ~reps conv_jobs in
  let d f = float_of_int (f w.m1 - f w.m0) in
  let ops = float_of_int w.st.L.completed in
  let d_eval = w.m1.P.eval_seconds -. w.m0.P.eval_seconds in
  let hits = d (fun m -> m.P.cache.P.hits) and misses = d (fun m -> m.P.cache.P.misses) in
  let session_gates = d (fun m -> m.P.session_gates) in
  let dirty_ratio =
    if session_gates > 0. then d (fun m -> m.P.session_dirty_gates) /. session_gates
    else wmean (fun l -> l.Layers.dirty_ratio)
  in
  let batch1 = wmean (fun l -> l.Layers.batch1_ms) in
  let batch62 = wmean (fun l -> l.Layers.batch62_ms_per_vec) in
  let update = wmean (fun l -> l.Layers.update_ms) in
  let conv_share = List.assoc W.conv8 W.mix in
  (* The median request of a mix runs the circuit at the weighted median
     of the one-lane eval times; the mean would be dominated by the rare
     elephants, which only reach the tail. *)
  let batch1_median =
    let by_time = List.sort (fun l l' -> compare l.Layers.batch1_ms l'.Layers.batch1_ms) legs in
    let half = sum (fun l -> l.Layers.weight) /. 2. in
    let rec go acc = function
      | [ l ] -> l.Layers.batch1_ms
      | l :: rest -> if acc +. l.Layers.weight >= half then l.Layers.batch1_ms else go (acc +. l.Layers.weight) rest
      | [] -> nan
    in
    go 0. by_time
  in
  (* The blocking path of one request, from the layer timings. *)
  let rtt_ms = ping_us /. 1e3 and codec_ms = codec_us /. 1e3 in
  let path =
    match a.workload with
    | W.Mm16_burst ->
        [ ("rtt", rtt_ms); ("codec x62", 62. *. codec_ms); ("eval 62 lanes", 62. *. batch62) ]
    | W.Mixed_open ->
        [ ("rtt", rtt_ms); ("codec", codec_ms); ("eval 1 lane", batch1_median);
          ("im2col", conv_share *. im2col_us /. 1e3) ]
    | W.Trace8_stream -> [ ("rtt", rtt_ms); ("codec", codec_ms); ("update", update) ]
  in
  let explained = List.fold_left (fun acc (_, v) -> acc +. v) 0. path in
  let unattributed = 1. -. (explained /. p50_ms) in
  Printf.printf "reconcile %s: latency_p50_ms %.4f = %s + unattributed %.4f (%.1f%%)\n"
    (W.to_string a.workload) p50_ms
    (String.concat " + " (List.map (fun (n, v) -> Printf.sprintf "%s %.4f" n v) path))
    (p50_ms -. explained) (100. *. unattributed);
  let lag = L.Samples.sorted w.st.L.lag in
  let gates = sum (fun l -> float_of_int l.Layers.gates) in
  [
    metric "server.eval_ms_per_op" (d_eval *. 1e3 /. ops) "ms";
    metric "server.eval_share" (ratio d_eval w.server_cpu_s) "ratio";
    metric "batcher.lanes_per_batch" (ratio (d (fun m -> m.P.lanes)) (d (fun m -> m.P.batches))) "lanes";
    metric "server.firings_per_op" (float_of_int w.st.L.firings /. ops) "count";
    metric "circuit_cache.hit_ratio" (ratio hits (hits +. misses)) "ratio";
    metric "server.refused"
      (d (fun m -> m.P.shed) +. d (fun m -> m.P.deadline_expired) +. d (fun m -> m.P.errors))
      "count";
    metric "fleet.restarts" (float_of_int w.restarts) "count";
    metric "session.dirty_ratio" dirty_ratio "ratio";
    metric "server.ping_rtt_us" ping_us "us";
    metric "protocol.codec_us" codec_us "us";
    metric "protocol.bytes_per_op" (Layers.bytes_per_op codec_ops) "bytes";
    metric "packed.batch62_ms_per_vec" batch62 "ms";
    metric "packed.batch1_ms" batch1 "ms";
    metric "packed.run_ms" (wmean (fun l -> l.Layers.run_ms)) "ms";
    metric "packed.update_ms" update "ms";
    metric "packed.gates" gates "count";
    metric "packed.levels" (List.fold_left (fun acc l -> max acc (float_of_int l.Layers.levels)) 0. legs) "count";
    metric "packed.pool_edges" (sum (fun l -> float_of_int l.Layers.pool_edges)) "count";
    metric "packed.kernel_coverage" (sum (fun l -> float_of_int l.Layers.kernel_gates) /. gates) "ratio";
    metric "core.construct_s" (sum (fun l -> l.Layers.construct_s)) "s";
    metric "packed.lower_s" (sum (fun l -> l.Layers.lower_s)) "s";
    metric "store.save_s" (sum (fun l -> l.Layers.save_s)) "s";
    metric "store.load_s" (sum (fun l -> l.Layers.load_s)) "s";
    metric "store.artifact_mb" (sum (fun l -> l.Layers.artifact_mb)) "MB";
    metric "convnet.im2col_us" im2col_us "us";
    metric "loadgen.lag_p99_ms" (L.Samples.pct lag (L.Samples.tail_pct (Array.length lag))) "ms";
    metric "loadgen.cpu_share" (w.client_cpu_s /. w.seconds) "ratio";
    metric "trace.unattributed_frac" unattributed "ratio";
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

(* Wall time of cold set-ups to accumulate before the window (s). *)
let setup_budget_s = 1.5

let run (a : args) =
  let rng = Prng.create ~seed:a.seed in
  let inputs = generate a rng in
  let specs = W.specs a.workload and flush_ms = W.flush_ms a.workload in
  (* Cold set-up, repeated on a fresh store each time.  The last store
     is kept, and the measured fleet restarts over it: both workers then
     load every circuit from the store, so they serve the same mmap-backed
     artifacts instead of one built copy and one loaded copy.  There are
     at least three set-ups, and more until they add up to [setup_budget_s]
     (at most 15), so a set-up of milliseconds still has a steady median. *)
  let min_setups, max_setups = if a.smoke then (1, 1) else (3, 15) in
  let rec setups acc =
    let fleet, s = Deploy.setup ~flush_ms specs in
    let acc = s :: acc in
    let n = List.length acc in
    let last =
      n >= max_setups || (n >= min_setups && List.fold_left ( +. ) 0. acc >= setup_budget_s)
    in
    if not (Deploy.stop ~keep_store:last fleet) then failwith "fleet did not drain after set-up";
    if last then (fleet.Deploy.store_dir, acc) else setups acc
  in
  let store_dir, setup_times = setups [] in
  let setup_s = Layers.median setup_times in
  let fleet = Deploy.deploy ~flush_ms specs ~store_dir in
  let w = measure a fleet inputs rng in
  let ping_us = if a.trace then ping_rtt_us fleet ~count:(if a.smoke then 20 else 300) else 0. in
  if not (Deploy.stop fleet) then failwith "fleet did not drain through the control plane";
  let m = w.m1 in
  if m.P.accepted <> m.P.run_requests + m.P.deadline_expired + m.P.eval_failures then
    failwith
      (Printf.sprintf "accounting identity broken: accepted %d <> run %d + expired %d + failed %d"
         m.P.accepted m.P.run_requests m.P.deadline_expired m.P.eval_failures);
  if w.restarts <> 0 then failwith (Printf.sprintf "%d worker restart(s)" w.restarts);
  let st = w.st in
  let tail, e2e = end_to_end w ~setup_s in
  Printf.printf "workload %s  seed %d  window %.3f s  %d attempted  %d verified  %d latency samples (tail = p%g)\n"
    (W.to_string a.workload) a.seed w.seconds st.L.attempted st.L.completed
    st.L.latency.L.Samples.n (100. *. tail);
  Printf.printf "setup_s runs: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev setup_times)));
  List.iteri
    (fun i (n, p50) -> Printf.printf "worker %d: %d latency samples, p50 %.4f ms\n" (i + 1) n p50)
    w.per_worker;
  print_per_second st ~seconds:w.seconds;
  (match fastest_slices w with
  | [] -> ()
  | top ->
      let sp = measured_span w in
      Printf.printf
        "end-to-end figures over the fastest %d of %d slices: %.3f s, %d ops \
         (whole window: %.1f ops/s, p50 %.4f ms)\n"
        (List.length top) (List.length w.marks - 1) sp.span_s sp.span_ops
        (float_of_int st.L.completed /. w.seconds)
        (L.Samples.pct (L.Samples.sorted st.L.latency) 0.5));
  print_metrics "end-to-end" e2e;
  Printf.printf "  %-28s %14.6g %s\n" "failed_frac"
    (ratio (float_of_int st.L.failed) (float_of_int st.L.attempted)) "ratio";
  let reported =
    if a.trace then begin
      let p50 = List.assoc "latency_p50_ms" (List.map (fun (n, v, _) -> (n, v)) e2e) in
      let layers = layer_metrics a inputs w ~p50_ms:p50 ~ping_us rng in
      print_metrics "per-layer" layers;
      layers
    end
    else e2e
  in
  print_endline
    (json
       ~attempted:(st.L.attempted + w.aux.L.attempted)
       ~failed:(st.L.failed + w.aux.L.failed)
       reported)

(* A run must end within 180 s; past this, stop everything and fail. *)
let watchdog_s = 170

let () =
  let a = parse_args () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let abort msg =
    Sys.Signal_handle
      (fun _ ->
        Deploy.stop_all ~now:true;
        prerr_endline ("perfbench: " ^ msg);
        Unix._exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "time limit exceeded");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  ignore (Unix.alarm watchdog_s);
  let failed msg =
    flush stdout;
    Deploy.stop_all ~now:false;
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  in
  match run a with
  | () -> exit 0
  | exception L.Wrong_answer msg -> failed ("WRONG ANSWER: " ^ msg)
  | exception e -> failed (Printexc.to_string e)
