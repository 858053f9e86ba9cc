(* The serving subsystem: protocol round-trips, framing, the batcher,
   the circuit cache, and a forked loopback server checked bit-exactly
   against in-process evaluation. *)

module P = Tcmm_server.Protocol
module S = Tcmm_test_support.Support
module F = Tcmm_fastmm
module T = Tcmm
module Th = Tcmm_threshold
open QCheck2

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let gen_name = Gen.(string_size ~gen:printable (int_range 0 12))

let gen_spec =
  let open Gen in
  let* kind = oneofl [ P.Matmul; P.Trace; P.Triangles; P.Conv ] in
  let* algo = gen_name in
  let* schedule = gen_name in
  let* d = int_range 0 8 in
  let* n = int_range 0 64 in
  let* entry_bits = int_range 0 8 in
  let* signed = bool in
  let* tau = int_range (-1000) 1000 in
  let+ kronpow = bool in
  { P.kind; algo; schedule; d; n; entry_bits; signed; tau; kronpow }

let gen_matrix =
  let open Gen in
  let* rows = int_range 1 6 in
  let* cols = int_range 1 6 in
  let+ entries = array_size (return (rows * cols)) (int_range (-4096) 4096) in
  F.Matrix.init ~rows ~cols (fun i j -> entries.((i * cols) + j))

let gen_image =
  let open Gen in
  let* channels = int_range 1 3 in
  let* height = int_range 1 5 in
  let* width = int_range 1 5 in
  let+ entries =
    array_size (return (channels * height * width)) (int_range (-64) 64)
  in
  P.Image.init ~channels ~height ~width (fun c y x ->
      entries.((((c * height) + y) * width) + x))

let gen_conv_job =
  let open Gen in
  let* cj_q = int_range 1 4 in
  let* cj_stride = int_range 1 3 in
  let* cj_image = gen_image in
  let+ cj_kernels = array_size (int_range 1 3) gen_image in
  { P.cj_q; cj_stride; cj_image; cj_kernels }

let gen_request =
  let open Gen in
  oneof
    [
      map (fun s -> P.Compile s) gen_spec;
      map (fun s -> P.Stats s) gen_spec;
      map2 (fun s j -> P.Run_conv (s, j)) gen_spec gen_conv_job;
      (let* s = gen_spec in
       let* a = gen_matrix in
       let+ b = gen_matrix in
       P.Run_matmul (s, a, b));
      map2 (fun s a -> P.Run_trace (s, a)) gen_spec gen_matrix;
      map2 (fun s a -> P.Run_triangles (s, a)) gen_spec gen_matrix;
      return P.Metrics;
      return P.Ping;
      return P.Shutdown;
      return P.Fleet;
      map2 (fun s a -> P.Open_session (s, a)) gen_spec gen_matrix;
      (let* sid = int_range 0 1000 in
       let+ delta =
         array_size (int_range 0 8)
           (map2 (fun w v -> (w, v)) (int_range 0 4096) bool)
       in
       P.Update (sid, delta));
      map (fun sid -> P.Close_session sid) (int_range 0 1000);
    ]

let gen_stats =
  let open Gen in
  let* inputs = int_range 0 1000 in
  let* outputs = int_range 0 1000 in
  let* gates = int_range 0 100000 in
  let* edges = int_range 0 1000000 in
  let* depth = int_range 0 40 in
  let* max_fan_in = int_range 0 10000 in
  let* max_abs_weight = int_range 0 1000000 in
  let+ gates_by_depth = array_size (int_range 0 8) (int_range 0 1000) in
  {
    Th.Stats.inputs;
    outputs;
    gates;
    edges;
    depth;
    max_fan_in;
    max_abs_weight;
    gates_by_depth;
  }

let gen_cache_stats =
  let open Gen in
  let* hits = int_range 0 1000 in
  let* misses = int_range 0 1000 in
  let* evictions = int_range 0 1000 in
  let* size = int_range 0 64 in
  let+ capacity = int_range 1 64 in
  { P.hits; misses; evictions; size; capacity }

let gen_histogram =
  let open Gen in
  let* n = int_range 0 6 in
  let* bounds = array_size (return n) (float_range 0.1 1000.) in
  let* counts = array_size (return (n + 1)) (int_range 0 10000) in
  let* sum = float_range 0. 1e6 in
  let+ count = int_range 0 100000 in
  { P.bounds; counts; sum; count }

let gen_metrics =
  let open Gen in
  let* uptime_seconds = float_range 0. 1e6 in
  let* connections_accepted = int_range 0 1000 in
  let* connections_active = int_range 0 100 in
  let* requests_total = int_range 0 100000 in
  let* run_requests = int_range 0 100000 in
  let* errors = int_range 0 1000 in
  let* batches = int_range 0 10000 in
  let* lanes = int_range 0 100000 in
  let* max_lanes = int_range 1 62 in
  let* occupancy = array_size (return max_lanes) (int_range 0 1000) in
  let* latency_ms = gen_histogram in
  let* firings_total = int_range 0 1000000 in
  let* eval_seconds = float_range 0. 1e4 in
  let* build_seconds = float_range 0. 1e4 in
  let* cache = gen_cache_stats in
  let* accepted = int_range 0 100000 in
  let* shed = int_range 0 100000 in
  let* deadline_expired = int_range 0 100000 in
  let* eval_failures = int_range 0 1000 in
  let* slow_client_drops = int_range 0 1000 in
  let* kernel_gates = int_range 0 1000000 in
  let* fallback_gates = int_range 0 1000000 in
  let* store_loads = int_range 0 100000 in
  let* store_saves = int_range 0 100000 in
  let* store_invalid = int_range 0 1000 in
  let* worker_id = int_range 0 64 in
  let* sessions_opened = int_range 0 1000 in
  let* sessions_active = int_range 0 64 in
  let* sessions_evicted = int_range 0 1000 in
  let* session_updates = int_range 0 100000 in
  let* session_dirty_gates = int_range 0 1000000 in
  let+ session_gates = int_range 0 10000000 in
  {
    P.uptime_seconds;
    connections_accepted;
    connections_active;
    requests_total;
    run_requests;
    errors;
    batches;
    lanes;
    max_lanes;
    occupancy;
    latency_ms;
    firings_total;
    eval_seconds;
    build_seconds;
    cache;
    accepted;
    shed;
    deadline_expired;
    eval_failures;
    slow_client_drops;
    kernel_gates;
    fallback_gates;
    store_loads;
    store_saves;
    store_invalid;
    worker_id;
    sessions_opened;
    sessions_active;
    sessions_evicted;
    session_updates;
    session_dirty_gates;
    session_gates;
  }

let gen_fleet_worker =
  let open Gen in
  let* fw_id = int_range 1 64 in
  let* fw_pid = int_range 1 (1 lsl 22) in
  let* fw_addr = gen_name in
  let* fw_restarts = int_range 0 100 in
  let+ fw_alive = bool in
  { P.fw_id; fw_pid; fw_addr; fw_restarts; fw_alive }

let gen_response =
  let open Gen in
  oneof
    [
      (let* cached = bool in
       let* loaded = bool in
       let* build_seconds = float_range 0. 100. in
       let+ stats = gen_stats in
       P.Compiled { P.cached; loaded; build_seconds; stats });
      map2 (fun m f -> P.Matmul_result (m, f)) gen_matrix (int_range 0 1000000);
      (let* k = int_range 1 3 in
       let* oh = int_range 1 4 in
       let* ow = int_range 1 4 in
       let* scores =
         array_size (return k)
           (array_size (return oh)
              (array_size (return ow) (int_range (-4096) 4096)))
       in
       let+ firings = int_range 0 1000000 in
       P.Conv_result (scores, firings));
      map2 (fun b f -> P.Trace_result (b, f)) bool (int_range 0 1000000);
      map2 (fun b f -> P.Triangles_result (b, f)) bool (int_range 0 1000000);
      map (fun s -> P.Stats_result s) gen_stats;
      map (fun m -> P.Metrics_result m) gen_metrics;
      return P.Pong;
      return P.Shutting_down;
      map (fun s -> P.Error s) gen_name;
      return P.Overloaded;
      return P.Deadline_exceeded;
      map (fun ws -> P.Fleet_result ws) (list_size (int_range 0 8) gen_fleet_worker);
      (let* so_sid = int_range 0 1000 in
       let* so_fires = bool in
       let+ so_firings = int_range 0 1000000 in
       P.Session_opened { P.so_sid; so_fires; so_firings });
      (let* ur_fires = bool in
       let* ur_firings = int_range 0 1000000 in
       let* ur_dirty_gates = int_range 0 100000 in
       let+ ur_gates = int_range 0 1000000 in
       P.Update_result { P.ur_fires; ur_firings; ur_dirty_gates; ur_gates });
      return P.Session_closed;
    ]

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                               *)
(* ------------------------------------------------------------------ *)

let request_roundtrip =
  S.qcheck_case ~count:300 "request round-trip" gen_request (fun req ->
      match P.decode_request (P.encode_request req) with
      | Ok req' -> P.equal_request req req'
      | Error _ -> false)

let response_roundtrip =
  S.qcheck_case ~count:300 "response round-trip" gen_response (fun resp ->
      match P.decode_response (P.encode_response resp) with
      | Ok resp' -> P.equal_response resp resp'
      | Error _ -> false)

let sample_metrics ~worker_id =
  P.(
    { uptime_seconds = 1.; connections_accepted = 1; connections_active = 1;
      requests_total = 1; run_requests = 1; errors = 0; batches = 1; lanes = 1;
      max_lanes = 62; occupancy = Array.make 62 0;
      latency_ms = { P.bounds = [| 1. |]; counts = [| 0; 0 |]; sum = 0.; count = 0 };
      firings_total = 0; eval_seconds = 0.; build_seconds = 0.;
      cache = { P.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 1 };
      accepted = 1; shed = 0; deadline_expired = 0; eval_failures = 0;
      slow_client_drops = 0; kernel_gates = 0; fallback_gates = 0;
      store_loads = 0; store_saves = 0; store_invalid = 0; worker_id;
      sessions_opened = 0; sessions_active = 0; sessions_evicted = 0;
      session_updates = 0; session_dirty_gates = 0; session_gates = 0;
    })

let test_decode_rejects_truncation () =
  let payloads =
    [
      P.encode_request
        (P.Run_matmul
           ( {
               P.kind = P.Matmul;
               algo = "strassen";
               schedule = "thm45";
               d = 2;
               n = 2;
               entry_bits = 1;
               signed = false;
               tau = 0;
               kronpow = false;
             },
             F.Matrix.identity 2,
             F.Matrix.identity 2 ));
      P.encode_request P.Ping;
    ]
  in
  List.iter
    (fun payload ->
      for k = 0 to String.length payload - 1 do
        match P.decode_request (String.sub payload 0 k) with
        | Ok _ -> Alcotest.fail (Printf.sprintf "decoded a %d-byte prefix" k)
        | Error _ -> ()
      done)
    payloads;
  let resp = P.encode_response (P.Metrics_result (sample_metrics ~worker_id:1)) in
  for k = 0 to String.length resp - 1 do
    match P.decode_response (String.sub resp 0 k) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "decoded a %d-byte response prefix" k)
    | Error _ -> ()
  done

let test_decode_rejects_garbage () =
  let payload = P.encode_request P.Ping in
  (* trailing bytes *)
  (match P.decode_request (payload ^ "x") with
  | Ok _ -> Alcotest.fail "accepted trailing bytes"
  | Error _ -> ());
  (* wrong version *)
  let bad = Bytes.of_string payload in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) + 1));
  (match P.decode_request (Bytes.to_string bad) with
  | Ok _ -> Alcotest.fail "accepted wrong version"
  | Error _ -> ());
  (* unknown tag *)
  (match P.decode_request "\x01\xff" with
  | Ok _ -> Alcotest.fail "accepted unknown tag"
  | Error _ -> ())

(* One protocol version: a payload stamped with any other version byte
   is refused by both decoders, with an error naming both versions.
   Each case stamps payloads that version once decoded — its own
   messages and the ones later versions added — so none of them can
   slip through a leftover version gate. *)
let patch_version v payload =
  let b = Bytes.of_string payload in
  Bytes.set b 0 (Char.chr v);
  Bytes.to_string b

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_refused v ~requests ~responses =
  let needle = Printf.sprintf "version %d (want %d)" v P.version in
  let refused what = function
    | Ok _ -> Alcotest.failf "%s stamped v%d was decoded" what v
    | Error e ->
        if not (contains ~needle e) then
          Alcotest.failf "%s stamped v%d: error %S does not name both versions"
            what v e
  in
  List.iter
    (fun req ->
      refused "request" (P.decode_request (patch_version v (P.encode_request req)));
      S.check_bool "request round-trips unstamped" true
        (match P.decode_request (P.encode_request req) with
        | Ok req' -> P.equal_request req req'
        | Error _ -> false))
    requests;
  List.iter
    (fun resp ->
      refused "response"
        (P.decode_response (patch_version v (P.encode_response resp)));
      S.check_bool "response round-trips unstamped" true
        (match P.decode_response (P.encode_response resp) with
        | Ok resp' -> P.equal_response resp resp'
        | Error _ -> false))
    responses

let compat_spec kind =
  { P.kind; algo = "strassen"; schedule = "thm45"; d = 2; n = 4;
    entry_bits = 1; signed = false; tau = 0; kronpow = false }

let test_v4_compat () =
  check_refused 4
    ~requests:[ P.Ping; P.Metrics; P.Compile (compat_spec P.Matmul); P.Fleet ]
    ~responses:
      [ P.Pong; P.Overloaded;
        P.Metrics_result (sample_metrics ~worker_id:7);
        P.Compiled
          { P.cached = false; loaded = true; build_seconds = 0.5;
            stats = Tcmm_threshold.Stats.zero };
        P.Fleet_result
          [ { P.fw_id = 1; fw_pid = 42; fw_addr = "127.0.0.1:9000";
              fw_restarts = 0; fw_alive = true } ] ]

let test_v5_compat () =
  check_refused 5
    ~requests:
      [ P.Fleet;
        P.Open_session
          (compat_spec P.Triangles, F.Matrix.init ~rows:4 ~cols:4 (fun _ _ -> 0));
        P.Update (1, [| (0, true); (3, false) |]);
        P.Close_session 1 ]
    ~responses:
      [ P.Metrics_result (sample_metrics ~worker_id:3);
        P.Session_opened { P.so_sid = 1; so_fires = true; so_firings = 42 };
        P.Update_result
          { P.ur_fires = false; ur_firings = 12; ur_dirty_gates = 3;
            ur_gates = 100 };
        P.Session_closed ]

(* v6 and v7 were the last two versions before this one: the conv
   messages and the kronpow spec flag joined in v7. *)
let test_v6_compat () =
  let job =
    { P.cj_q = 2; cj_stride = 1;
      cj_image = P.Image.init ~channels:1 ~height:3 ~width:3 (fun _ y x -> y + x);
      cj_kernels =
        [| P.Image.init ~channels:1 ~height:2 ~width:2 (fun _ y x -> y - x) |];
    }
  in
  List.iter
    (fun v ->
      check_refused v
        ~requests:
          [ P.Compile { (compat_spec P.Matmul) with P.kronpow = true };
            P.Compile (compat_spec P.Conv);
            P.Run_conv (compat_spec P.Conv, job);
            P.Update (2, [| (5, true) |]) ]
        ~responses:
          [ P.Conv_result ([| [| [| 1; -2 |]; [| 0; 3 |] |] |], 42);
            P.Metrics_result (sample_metrics ~worker_id:2);
            P.Session_closed ])
    [ 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* Adversarial re-chunking: a valid stream of framed responses (the
   generator covers the v2 [Overloaded] / [Deadline_exceeded] status
   codes) must decode identically no matter where the transport splits
   it — random cut sets with chunks spanning several frames, and the
   worst case of one byte per feed. *)
let dechunker_adversarial =
  let gen =
    let open Gen in
    let* resps = list_size (int_range 1 6) gen_response in
    let* n_cuts = int_range 0 12 in
    let+ cut_seeds = list_repeat n_cuts (int_range 1 0x3FFFFFFF) in
    (resps, cut_seeds)
  in
  S.qcheck_case ~count:120 "dechunker survives adversarial chunking" gen
    (fun (resps, cut_seeds) ->
      let stream =
        String.concat ""
          (List.map (fun r -> P.frame (P.encode_response r)) resps)
      in
      let len = String.length stream in
      let decode_with cuts =
        (* [cuts] are the split points; feed each segment, draining
           complete frames after every feed. *)
        let d = P.create_dechunker () in
        let got = ref [] in
        let rec drain () =
          match P.next_frame d with
          | `Frame payload ->
              (match P.decode_response payload with
              | Ok r -> got := r :: !got
              | Error e -> Alcotest.fail e);
              drain ()
          | `More -> ()
          | `Corrupt e -> Alcotest.fail e
        in
        List.iter
          (fun (pos, n) ->
            P.feed d (Bytes.of_string (String.sub stream pos n)) 0 n;
            drain ())
          cuts;
        (List.rev !got, P.buffered d)
      in
      let segments_of_cuts cuts =
        let cuts = List.sort_uniq compare (List.filter (fun c -> c < len) cuts) in
        let bounds = (0 :: cuts) @ [ len ] in
        let rec pair = function
          | a :: (b :: _ as rest) -> (a, b - a) :: pair rest
          | _ -> []
        in
        List.filter (fun (_, n) -> n > 0) (pair bounds)
      in
      let same (got, buffered) =
        buffered = 0
        && List.length got = List.length resps
        && List.for_all2 P.equal_response resps got
      in
      same (decode_with (segments_of_cuts (List.map (fun s -> s mod len) cut_seeds)))
      && same (decode_with (List.init len (fun i -> (i, 1)))))

let test_frame_limits () =
  let huge = String.make P.max_frame_len 'x' in
  let framed = P.frame huge in
  S.check_int "framed length" (P.max_frame_len + 4) (String.length framed);
  (try
     ignore (P.frame (huge ^ "y"));
     Alcotest.fail "framed an oversized payload"
   with Invalid_argument _ -> ());
  (* A max-size frame survives the dechunker, fed in two pieces. *)
  let d = P.create_dechunker () in
  let half = (String.length framed / 2) + 1 in
  P.feed d (Bytes.of_string (String.sub framed 0 half)) 0 half;
  S.check_bool "incomplete" true (P.next_frame d = `More);
  let rest = String.length framed - half in
  P.feed d (Bytes.of_string (String.sub framed half rest)) 0 rest;
  (match P.next_frame d with
  | `Frame payload -> S.check_bool "max frame intact" true (payload = huge)
  | _ -> Alcotest.fail "expected max-size frame");
  S.check_int "drained" 0 (P.buffered d)

let test_dechunker_corrupt_lengths () =
  let corrupt s =
    let d = P.create_dechunker () in
    P.feed d (Bytes.of_string s) 0 (String.length s);
    match P.next_frame d with `Corrupt _ -> true | _ -> false
  in
  S.check_bool "zero length" true (corrupt "\x00\x00\x00\x00");
  S.check_bool "oversized length" true (corrupt "\xff\xff\xff\xff")

let dechunker_chunking =
  let gen =
    let open Gen in
    let* reqs = list_size (int_range 1 5) gen_request in
    let+ chunk = int_range 1 7 in
    (reqs, chunk)
  in
  S.qcheck_case ~count:60 "dechunker reassembles chunked frames" gen
    (fun (reqs, chunk) ->
      let stream =
        String.concat "" (List.map (fun r -> P.frame (P.encode_request r)) reqs)
      in
      let d = P.create_dechunker () in
      let got = ref [] in
      let pos = ref 0 in
      let drain () =
        let rec go () =
          match P.next_frame d with
          | `Frame payload ->
              (match P.decode_request payload with
              | Ok r -> got := r :: !got
              | Error e -> Alcotest.fail e);
              go ()
          | `More -> ()
          | `Corrupt e -> Alcotest.fail e
        in
        go ()
      in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        P.feed d (Bytes.of_string (String.sub stream !pos len)) 0 len;
        pos := !pos + len;
        drain ()
      done;
      List.length !got = List.length reqs
      && List.for_all2 P.equal_request reqs (List.rev !got)
      && P.buffered d = 0)

(* ------------------------------------------------------------------ *)
(* Batcher                                                            *)
(* ------------------------------------------------------------------ *)

let test_batcher_fills () =
  let b = Tcmm_server.Batcher.create ~max_lanes:3 () in
  S.check_bool "1st" true (Tcmm_server.Batcher.enqueue b ~key:"k" ~now:0. "a" = None);
  S.check_bool "2nd" true (Tcmm_server.Batcher.enqueue b ~key:"k" ~now:0. "b" = None);
  S.check_int "pending" 2 (Tcmm_server.Batcher.pending b);
  (match Tcmm_server.Batcher.enqueue b ~key:"k" ~now:0. "c" with
  | Some jobs -> S.check_bool "arrival order" true (jobs = [ "a"; "b"; "c" ])
  | None -> Alcotest.fail "expected a full batch");
  S.check_int "drained" 0 (Tcmm_server.Batcher.pending b)

let test_batcher_keys_separate () =
  let b = Tcmm_server.Batcher.create ~max_lanes:2 () in
  ignore (Tcmm_server.Batcher.enqueue b ~key:"x" ~now:0. 1);
  ignore (Tcmm_server.Batcher.enqueue b ~key:"y" ~now:0. 2);
  S.check_bool "no cross-key batch" true
    (Tcmm_server.Batcher.enqueue b ~key:"x" ~now:0. 3 = Some [ 1; 3 ]);
  S.check_bool "other key intact" true
    (Tcmm_server.Batcher.drain b = [ ("y", [ 2 ]) ])

let test_batcher_deadline () =
  let b = Tcmm_server.Batcher.create ~max_lanes:62 ~flush_ms:10. () in
  ignore (Tcmm_server.Batcher.enqueue b ~key:"k" ~now:1. "a");
  ignore (Tcmm_server.Batcher.enqueue b ~key:"k" ~now:1.005 "b");
  S.check_bool "deadline from first job" true
    (Tcmm_server.Batcher.next_deadline b = Some 1.01);
  S.check_bool "not due yet" true (Tcmm_server.Batcher.due b ~now:1.009 = []);
  S.check_bool "due" true
    (Tcmm_server.Batcher.due b ~now:1.01 = [ ("k", [ "a"; "b" ]) ]);
  S.check_int "empty" 0 (Tcmm_server.Batcher.pending b)

let test_batcher_adaptive_mode () =
  let b = Tcmm_server.Batcher.create () in
  ignore (Tcmm_server.Batcher.enqueue b ~key:"k" ~now:5. "a");
  S.check_bool "no deadline when adaptive" true
    (Tcmm_server.Batcher.next_deadline b = None);
  S.check_bool "never due by time" true
    (Tcmm_server.Batcher.due b ~now:1e9 = []);
  S.check_bool "drain flushes" true
    (Tcmm_server.Batcher.drain b = [ ("k", [ "a" ]) ])

(* ------------------------------------------------------------------ *)
(* Circuit cache                                                      *)
(* ------------------------------------------------------------------ *)

let small_spec =
  {
    P.kind = P.Matmul;
    algo = "strassen";
    schedule = "thm45";
    d = 1;
    n = 2;
    entry_bits = 1;
    signed = false;
    tau = 0;
    kronpow = false;
  }

let test_circuit_cache_hits () =
  let cc = Tcmm_server.Circuit_cache.create ~capacity:2 () in
  (match Tcmm_server.Circuit_cache.find_or_build cc small_spec with
  | Error e -> Alcotest.fail e
  | Ok (e1, outcome1) ->
      S.check_bool "first build is a miss" true
        (outcome1 = Tcmm_server.Circuit_cache.Built);
      (match Tcmm_server.Circuit_cache.find_or_build cc small_spec with
      | Error e -> Alcotest.fail e
      | Ok (e2, outcome2) ->
          S.check_bool "second is a hit" true
            (outcome2 = Tcmm_server.Circuit_cache.Cached);
          S.check_bool "same entry" true (e1 == e2)));
  let st = Tcmm_server.Circuit_cache.stats cc in
  S.check_int "hits" 1 st.Tcmm_util.Lru.hits;
  S.check_int "misses" 1 st.Tcmm_util.Lru.misses

let test_circuit_cache_rejects () =
  let cc = Tcmm_server.Circuit_cache.create ~capacity:2 () in
  let bad mut =
    match Tcmm_server.Circuit_cache.find_or_build cc (mut small_spec) with
    | Error _ -> true
    | Ok _ -> false
  in
  S.check_bool "unknown algorithm" true (bad (fun s -> { s with P.algo = "nope" }));
  S.check_bool "unknown schedule" true
    (bad (fun s -> { s with P.schedule = "nope" }));
  S.check_bool "bad n" true (bad (fun s -> { s with P.n = 0 }));
  S.check_bool "bad bits" true (bad (fun s -> { s with P.entry_bits = 0 }))

(* [kronpow] selects no pass and is not part of the key, so a set flag
   would map onto its flat twin's entry.  It must be refused before
   either tier is consulted: with the twin resident in the LRU, and
   from a fresh cache over a store that holds the twin. *)
let kronpow_spec = { small_spec with P.kronpow = true }

let expect_outcome what want = function
  | Ok (_, got) when got = want -> ()
  | Ok _ -> Alcotest.failf "%s: unexpected cache outcome" what
  | Error e -> Alcotest.failf "%s: %s" what e

let check_kronpow_refused what = function
  | Ok _ -> Alcotest.failf "%s: kronpow spec was served" what
  | Error msg ->
      S.check_bool (what ^ ": error names the pass") true
        (String.starts_with ~prefix:"kronpow" msg)

let test_circuit_cache_kronpow_resident () =
  let module Cc = Tcmm_server.Circuit_cache in
  let cc = Cc.create ~capacity:2 () in
  expect_outcome "flat twin" Cc.Built (Cc.find_or_build cc small_spec);
  check_kronpow_refused "resident twin" (Cc.find_or_build cc kronpow_spec);
  let st = Cc.stats cc in
  S.check_int "refusal is not a hit" 0 st.Tcmm_util.Lru.hits;
  S.check_int "refusal is not a miss" 1 st.Tcmm_util.Lru.misses

let test_circuit_cache_kronpow_stored () =
  let module Cc = Tcmm_server.Circuit_cache in
  let module St = Tcmm_store.Store in
  S.with_temp_dir @@ fun dir ->
  let fresh_cache () =
    match St.create ~dir () with
    | Ok store -> (store, Cc.create ~store ~capacity:2 ())
    | Error e -> Alcotest.fail e
  in
  let _, writer = fresh_cache () in
  expect_outcome "flat twin" Cc.Built (Cc.find_or_build writer small_spec);
  let store, cc = fresh_cache () in
  check_kronpow_refused "stored twin" (Cc.find_or_build cc kronpow_spec);
  S.check_int "refusal loads nothing" 0 (St.counters store).St.loads;
  (* The twin really is on disk: the flat spec loads it. *)
  expect_outcome "flat twin" Cc.Loaded (Cc.find_or_build cc small_spec);
  S.check_int "flat spec loads the twin" 1 (St.counters store).St.loads

(* The matmul circuit ignores tau, so a tau-1 spec (the CLI default) and
   its tau-0 twin are one entry: the second is served from the first's
   artifact, and the store holds one file. *)
let test_circuit_cache_matmul_ignores_tau () =
  let module Cc = Tcmm_server.Circuit_cache in
  let module St = Tcmm_store.Store in
  S.with_temp_dir @@ fun dir ->
  let fresh_cache () =
    match St.create ~dir () with
    | Ok store -> (store, Cc.create ~store ~capacity:2 ())
    | Error e -> Alcotest.fail e
  in
  let _, writer = fresh_cache () in
  expect_outcome "tau 1" Cc.Built
    (Cc.find_or_build writer { small_spec with P.tau = 1 });
  let store, cc = fresh_cache () in
  expect_outcome "tau 0" Cc.Loaded (Cc.find_or_build cc small_spec);
  S.check_int "one stored artifact" 1 (List.length (St.list store));
  Alcotest.(check string) "tau-0 key unchanged"
    "matmul|strassen|thm45|d=1|n=2|b=1|signed=false|tau=0"
    (Cc.key { small_spec with P.tau = 7 });
  Alcotest.(check string) "conv shares the matmul key" (Cc.key small_spec)
    (Cc.key { small_spec with P.kind = P.Conv; tau = 3 })

(* The widest entries a matmul spec admits: signed 28-bit entries at
   n=2 put segment sums at up to 61 bits, inside the packed form's
   proven weight-mass bound.  Products at the extremes must match the
   integer reference exactly through the one-lane scalar walk and the
   62-lane kernels alike.  One bit wider, the build must fail with an
   error, never serve a wrapped product. *)
let test_circuit_cache_widest_entries () =
  let module Cc = Tcmm_server.Circuit_cache in
  let spec = { small_spec with P.entry_bits = 28; signed = true } in
  let cc = Cc.create ~capacity:2 () in
  let built =
    match Cc.find_or_build cc spec with
    | Error e -> Alcotest.fail e
    | Ok ({ Cc.compiled = Cc.Matmul built; _ }, _) -> built
    | Ok _ -> Alcotest.fail "expected a matmul entry"
  in
  let m = (1 lsl 27) - 1 in
  let mat signs = F.Matrix.init ~rows:2 ~cols:2 (fun i j -> signs.((2 * i) + j) * m) in
  let rng = Tcmm_util.Prng.create ~seed:28 in
  let random () = F.Matrix.random rng ~rows:2 ~cols:2 ~lo:(-m) ~hi:m in
  let pairs =
    Array.append
      [|
        (mat [| 1; 1; 1; 1 |], mat [| 1; 1; 1; 1 |]);
        (mat [| -1; -1; -1; -1 |], mat [| 1; 1; 1; 1 |]);
        (mat [| -1; -1; -1; -1 |], mat [| -1; -1; -1; -1 |]);
        (mat [| 1; -1; -1; 1 |], mat [| -1; 1; 1; -1 |]);
      |]
      (Array.init 4 (fun _ -> (random (), random ())))
  in
  let exact (a, b) c = F.Matrix.equal c (F.Matrix.mul a b) in
  Array.iter
    (fun pair ->
      S.check_bool "one-lane product exact" true
        (exact pair (T.Matmul_circuit.run_batch built [| pair |]).(0)))
    pairs;
  S.check_bool "multi-lane products exact" true
    (Array.for_all2 exact pairs (T.Matmul_circuit.run_batch built pairs));
  S.check_bool "29-bit entries refused" true
    (Result.is_error (Cc.find_or_build cc { spec with P.entry_bits = 29 }))

(* Interleaved lookups over more specs than capacity: eviction order
   follows recency (not insertion), counters stay exact, and a rebuilt
   evicted entry is indistinguishable from the original — same packed
   shape, same products. *)
let test_circuit_cache_interleaved_eviction () =
  let module Cc = Tcmm_server.Circuit_cache in
  let fingerprint e =
    ( Th.Packed.num_gates e.Cc.packed,
      Th.Packed.num_levels e.Cc.packed,
      Th.Packed.num_segments e.Cc.packed,
      Th.Packed.pool_edges e.Cc.packed )
  in
  let product e a b =
    match e.Cc.compiled with
    | Cc.Matmul built -> T.Matmul_circuit.run built ~a ~b
    | Cc.Trace _ | Cc.Stored _ -> Alcotest.fail "expected a matmul entry"
  in
  let s1 = small_spec in
  let s2 = { small_spec with P.n = 4 } in
  let s3 = { small_spec with P.entry_bits = 2 } in
  let cc = Cc.create ~capacity:2 () in
  let build spec ~expect_cached what =
    match Cc.find_or_build cc spec with
    | Error e -> Alcotest.fail (what ^ ": " ^ e)
    | Ok (e, outcome) ->
        S.check_bool (what ^ " cached?") expect_cached
          (outcome = Cc.Cached);
        e
  in
  ignore (build s1 ~expect_cached:false "s1 first build");
  let e2 = build s2 ~expect_cached:false "s2 first build" in
  let rng = Tcmm_util.Prng.create ~seed:11 in
  let a = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:1 in
  let b = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:1 in
  let shape2 = fingerprint e2 and c2 = product e2 a b in
  S.check_bool "s2 product correct" true (F.Matrix.equal c2 (F.Matrix.mul a b));
  (* Promote s1: s2 becomes least recent and the s3 build evicts it. *)
  ignore (build s1 ~expect_cached:true "s1 promote");
  ignore (build s3 ~expect_cached:false "s3 build");
  ignore (build s1 ~expect_cached:true "s1 survives s3");
  (* s2 was evicted; its rebuild must reproduce the original exactly. *)
  let e2' = build s2 ~expect_cached:false "s2 rebuild" in
  S.check_bool "rebuilt packed shape identical" true (fingerprint e2' = shape2);
  S.check_bool "rebuilt products identical" true
    (F.Matrix.equal (product e2' a b) c2);
  let st = Cc.stats cc in
  S.check_int "hits" 2 st.Tcmm_util.Lru.hits;
  S.check_int "misses" 4 st.Tcmm_util.Lru.misses;
  S.check_int "evictions" 2 st.Tcmm_util.Lru.evictions;
  S.check_int "size" 2 st.Tcmm_util.Lru.size

(* ------------------------------------------------------------------ *)
(* Loopback end-to-end                                                *)
(* ------------------------------------------------------------------ *)

(* Bind port 0 in the parent — the kernel assigns a free ephemeral
   port, so concurrent test runs can never collide — and hand the
   already-listening socket to the forked child.  The listening backlog
   also makes the post-fork connect race-free: no bind-retry loop. *)
let with_server ?(max_sessions = 16) f =
  let cfg =
    {
      (Tcmm_server.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      cache_capacity = 4;
      max_sessions;
    }
  in
  let listen_fd, addr = Tcmm_server.Server.bind cfg in
  let cfg = { cfg with Tcmm_server.Server.addr } in
  match Unix.fork () with
  | 0 ->
      (try Tcmm_server.Server.serve_fd cfg listen_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close listen_fd;
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Tcmm_server.Client.shutdown addr) with _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let cl = Tcmm_server.Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Tcmm_server.Client.close cl)
            (fun () -> f addr cl))

let mm_spec =
  {
    P.kind = P.Matmul;
    algo = "strassen";
    schedule = "thm45";
    d = 2;
    n = 4;
    entry_bits = 2;
    signed = true;
    tau = 0;
    kronpow = false;
  }

let test_loopback_matmul_bit_identical () =
  with_server (fun _addr cl ->
      (* The in-process oracle: the same circuit run locally. *)
      let algo = F.Instances.strassen in
      let schedule = T.Level_schedule.resolve ~algo ~name:"thm45" ~d:2 ~n:4 in
      let built =
        T.Matmul_circuit.build ~algo ~schedule ~signed_inputs:true ~entry_bits:2
          ~n:4 ()
      in
      let rng = Tcmm_util.Prng.create ~seed:7 in
      let pairs =
        (* > 62 so the server must split the burst across batches *)
        Array.init 70 (fun _ ->
            ( F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3,
              F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 ))
      in
      (* Pipelined: write the whole burst, then collect. *)
      Array.iter
        (fun (a, b) ->
          Tcmm_server.Client.send cl (P.Run_matmul (mm_spec, a, b)))
        pairs;
      Array.iter
        (fun (a, b) ->
          match Tcmm_server.Client.recv cl with
          | Ok (P.Matmul_result (c, firings)) ->
              let local = T.Matmul_circuit.run built ~a ~b in
              S.check_bool "served = in-process" true (F.Matrix.equal c local);
              S.check_bool "served = integer reference" true
                (F.Matrix.equal c (F.Matrix.mul a b));
              S.check_bool "firings positive" true (firings > 0)
          | Ok (P.Error e) -> Alcotest.fail e
          | Ok _ -> Alcotest.fail "unexpected response"
          | Error e -> Alcotest.fail e)
        pairs)

let test_loopback_trace_and_errors () =
  with_server (fun _addr cl ->
      let rng = Tcmm_util.Prng.create ~seed:11 in
      let m = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:0 ~hi:1 in
      let exact = T.Trace_circuit.reference m in
      let spec tau = { mm_spec with P.kind = P.Trace; signed = false; entry_bits = 1; tau } in
      (match Tcmm_server.Client.request cl (P.Run_trace (spec exact, m)) with
      | Ok (P.Trace_result (fires, _)) -> S.check_bool "trace >= tau" true fires
      | _ -> Alcotest.fail "trace request failed");
      (match Tcmm_server.Client.request cl (P.Run_trace (spec (exact + 1), m)) with
      | Ok (P.Trace_result (fires, _)) ->
          S.check_bool "trace < tau+1" false fires
      | _ -> Alcotest.fail "trace request failed");
      (* A malformed run is answered with Error, not a dropped socket. *)
      let wrong = F.Matrix.identity 3 in
      (match
         Tcmm_server.Client.request cl (P.Run_matmul (mm_spec, wrong, wrong))
       with
      | Ok (P.Error _) -> ()
      | _ -> Alcotest.fail "expected an error reply");
      (* ... and the connection still works. *)
      (match Tcmm_server.Client.request cl P.Ping with
      | Ok P.Pong -> ()
      | _ -> Alcotest.fail "connection unusable after error");
      (* Metrics reflect the work done. *)
      match Tcmm_server.Client.request cl P.Metrics with
      | Ok (P.Metrics_result m) ->
          S.check_bool "requests counted" true (m.P.requests_total >= 4);
          S.check_bool "runs counted" true (m.P.run_requests >= 2);
          S.check_bool "errors counted" true (m.P.errors >= 1);
          S.check_bool "batches ran" true (m.P.batches >= 2);
          S.check_bool "cache populated" true (m.P.cache.P.size >= 1)
      | _ -> Alcotest.fail "metrics request failed")

(* Streaming session end-to-end: open a triangles session, drive it
   with edge flips computed by Stream.delta, and check every reply
   against the graph's exact triangle count — plus the stateless
   Run_triangles path on the same daemon, LRU eviction at the session
   cap, and the v6 metrics counters. *)
let test_loopback_streaming_session () =
  with_server ~max_sessions:2 (fun _addr cl ->
      let module G = Tcmm_graph in
      let n = 4 in
      let spec =
        { P.kind = P.Triangles; algo = "strassen"; schedule = "thm45";
          d = 2; n; entry_bits = 1; signed = false; tau = 1; kronpow = false }
      in
      (* The trace circuit allocates its input layout first, so the
         client reconstitutes it from the spec alone: base 0, one
         unsigned wire per adjacency entry. *)
      let layout =
        T.Encode.restore ~rows:n ~cols:n ~entry_bits:1 ~signed:false ~base:0
      in
      let g = ref (G.Graph.empty n) in
      let sid =
        match
          Tcmm_server.Client.open_session cl spec (G.Graph.adjacency !g)
        with
        | Ok s ->
            S.check_bool "empty graph has no triangle" false s.P.so_fires;
            s.P.so_sid
        | Error e -> Alcotest.fail e
      in
      let flip flips =
        let g', delta = G.Stream.delta ~layout !g flips in
        g := g';
        let expect = G.Triangles.count !g >= 1 in
        match Tcmm_server.Client.update cl ~sid delta with
        | Ok u ->
            S.check_bool "served = reference" expect u.P.ur_fires;
            S.check_bool "dirty cone bounded" true
              (u.P.ur_dirty_gates >= 0 && u.P.ur_dirty_gates <= u.P.ur_gates)
        | Error e -> Alcotest.fail e
      in
      (* Build a triangle edge by edge, then break and rebuild it. *)
      flip [ (0, 1) ];
      flip [ (1, 2) ];
      flip [ (0, 2) ];
      (* flip-then-unflip in one delta is a structural no-op *)
      flip [ (2, 3); (2, 3) ];
      flip [ (0, 1) ];
      (* the stateless batched path on the same daemon agrees *)
      (match
         Tcmm_server.Client.request cl
           (P.Run_triangles (spec, G.Graph.adjacency !g))
       with
      | Ok (P.Triangles_result (fires, _)) ->
          S.check_bool "stateless agrees" (G.Triangles.count !g >= 1) fires
      | _ -> Alcotest.fail "triangles request failed");
      (* unknown sid / malformed delta answer Error; the session and
         the connection both survive *)
      (match Tcmm_server.Client.update cl ~sid:9999 [| (0, true) |] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "update on unknown session succeeded");
      (match Tcmm_server.Client.update cl ~sid [| (-1, true) |] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range delta accepted");
      flip [ (0, 1) ];
      (* LRU: cap 2 — two more opens evict the original session, which
         was last touched before either of them *)
      let open2 () =
        match
          Tcmm_server.Client.open_session cl spec (G.Graph.adjacency !g)
        with
        | Ok s -> s.P.so_sid
        | Error e -> Alcotest.fail e
      in
      let sid2 = open2 () in
      let _sid3 = open2 () in
      (match Tcmm_server.Client.update cl ~sid [||] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "evicted session still answered");
      (match Tcmm_server.Client.close_session cl ~sid:sid2 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Tcmm_server.Client.request cl P.Metrics with
      | Ok (P.Metrics_result m) ->
          S.check_int "sessions opened" 3 m.P.sessions_opened;
          S.check_int "sessions active" 1 m.P.sessions_active;
          S.check_int "sessions evicted" 1 m.P.sessions_evicted;
          S.check_int "updates counted" 6 m.P.session_updates;
          S.check_bool "dirty work is a fraction of full sweeps" true
            (m.P.session_dirty_gates <= m.P.session_gates)
      | _ -> Alcotest.fail "metrics request failed")

let () =
  Alcotest.run "tcmm_server"
    [
      ( "protocol",
        [
          request_roundtrip;
          response_roundtrip;
          Alcotest.test_case "rejects truncation" `Quick
            test_decode_rejects_truncation;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "v4 compatibility" `Quick test_v4_compat;
          Alcotest.test_case "v5 compatibility" `Quick test_v5_compat;
          Alcotest.test_case "v6 compatibility" `Quick test_v6_compat;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame limits" `Quick test_frame_limits;
          Alcotest.test_case "corrupt lengths" `Quick
            test_dechunker_corrupt_lengths;
          dechunker_chunking;
          dechunker_adversarial;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "fills" `Quick test_batcher_fills;
          Alcotest.test_case "keys separate" `Quick test_batcher_keys_separate;
          Alcotest.test_case "deadline" `Quick test_batcher_deadline;
          Alcotest.test_case "adaptive mode" `Quick test_batcher_adaptive_mode;
        ] );
      ( "circuit-cache",
        [
          Alcotest.test_case "hits" `Quick test_circuit_cache_hits;
          Alcotest.test_case "rejects" `Quick test_circuit_cache_rejects;
          Alcotest.test_case "kronpow refused over a resident twin" `Quick
            test_circuit_cache_kronpow_resident;
          Alcotest.test_case "matmul key ignores tau" `Quick
            test_circuit_cache_matmul_ignores_tau;
          Alcotest.test_case "kronpow refused over a stored twin" `Quick
            test_circuit_cache_kronpow_stored;
          Alcotest.test_case "widest entries exact" `Quick
            test_circuit_cache_widest_entries;
          Alcotest.test_case "interleaved eviction" `Quick
            test_circuit_cache_interleaved_eviction;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "matmul bit-identical" `Quick
            test_loopback_matmul_bit_identical;
          Alcotest.test_case "trace, errors, metrics" `Quick
            test_loopback_trace_and_errors;
          Alcotest.test_case "streaming session" `Quick
            test_loopback_streaming_session;
        ] );
    ]
