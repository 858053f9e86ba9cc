module Matrix = Tcmm_fastmm.Matrix
module Image = Tcmm_convnet.Image

let version = 7
let min_version = 1
let max_frame_len = 1 lsl 24

type kind = Matmul | Trace | Triangles | Conv

type spec = {
  kind : kind;
  algo : string;
  schedule : string;
  d : int;
  n : int;
  entry_bits : int;
  signed : bool;
  tau : int;
  kronpow : bool;
      (** apply the Kronecker-power linear-circuit rewrite when building
          (protocol v7; false when decoding an older peer) *)
}

(* One im2col inference job (protocol v7): [cj_q]/[cj_stride] pick the
   patch grid, the kernels all share the image's channel count.  The
   server embeds patch and kernel matrices into the spec's [n x n]
   matmul circuit and replies with the [K x out_h x out_w] scores. *)
type conv_job = { cj_q : int; cj_stride : int; cj_image : Image.t; cj_kernels : Image.t array }

type request =
  | Compile of spec
  | Run_matmul of spec * Matrix.t * Matrix.t
  | Run_trace of spec * Matrix.t
  | Run_triangles of spec * Matrix.t
  | Stats of spec
  | Metrics
  | Ping
  | Shutdown
  | Fleet
  | Open_session of spec * Matrix.t
  | Update of int * (int * bool) array
  | Close_session of int
  | Run_conv of spec * conv_job

type compiled = {
  cached : bool;
  loaded : bool;
      (** the entry came from the artifact store, not a build (protocol
          v4; false when decoding an older peer) *)
  build_seconds : float;
  stats : Tcmm_threshold.Stats.t;
}

type cache_stats = Tcmm_util.Lru.stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

type histogram = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type metrics = {
  uptime_seconds : float;
  connections_accepted : int;
  connections_active : int;
  requests_total : int;
  run_requests : int;
  errors : int;
  batches : int;
  lanes : int;
  max_lanes : int;
  occupancy : int array;
  latency_ms : histogram;
  firings_total : int;
  eval_seconds : float;
  build_seconds : float;
  cache : cache_stats;
  engine : cache_stats;
  (* Robustness accounting (protocol v2; zero when decoding a v1 peer).
     Invariant once the queue is empty:
     [accepted = run_requests + deadline_expired + eval_failures]. *)
  accepted : int;
  shed : int;
  deadline_expired : int;
  eval_failures : int;
  slow_client_drops : int;
  (* Kernel coverage (protocol v3; zero when decoding an older peer):
     gates of cache-miss builds that evaluate through a specialized
     kernel vs the generic CSR fallback, summed over all builds. *)
  kernel_gates : int;
  fallback_gates : int;
  (* Artifact-store traffic (protocol v4; zero when decoding an older
     peer): warm loads, write-behind saves, and quarantined invalid
     artifacts since the daemon started. *)
  store_loads : int;
  store_saves : int;
  store_invalid : int;
  (* Fleet identity (protocol v5; zero when decoding an older peer):
     which worker produced this snapshot.  0 = a standalone daemon or a
     supervisor-side aggregate; fleet workers are numbered from 1. *)
  worker_id : int;
  (* Streaming-session accounting (protocol v6; zero when decoding an
     older peer).  [session_dirty_gates / session_gates] is the
     fleet-wide incremental work ratio: gates actually re-examined by
     dirty-cone updates over gates a from-scratch re-evaluation of the
     same updates would have swept. *)
  sessions_opened : int;
  sessions_active : int;
  sessions_evicted : int;
  session_updates : int;
  session_dirty_gates : int;
  session_gates : int;
}

type fleet_worker = {
  fw_id : int;  (** 1-based worker number, stable across restarts *)
  fw_pid : int;
  fw_addr : string;  (** the worker's own endpoint, [parse_addr] form *)
  fw_restarts : int;
  fw_alive : bool;
}

type session_opened = {
  so_sid : int;  (** server-assigned session id *)
  so_fires : bool;  (** the circuit's output on the initial input *)
  so_firings : int;
}

type update_result = {
  ur_fires : bool;
  ur_firings : int;
  ur_dirty_gates : int;  (** gates re-examined by this update's dirty cone *)
  ur_gates : int;  (** total gates a from-scratch sweep would visit *)
}

type response =
  | Compiled of compiled
  | Matmul_result of Matrix.t * int
  | Trace_result of bool * int
  | Triangles_result of bool * int
  | Stats_result of Tcmm_threshold.Stats.t
  | Metrics_result of metrics
  | Pong
  | Shutting_down
  | Error of string
  | Overloaded
  | Deadline_exceeded
  | Fleet_result of fleet_worker list
  | Session_opened of session_opened
  | Update_result of update_result
  | Session_closed
  | Conv_result of int array array array * int
      (** [K x out_h x out_w] score planes and the lane's firings
          (protocol v7) *)

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let w_int buf v = Buffer.add_int64_le buf (Int64.of_int v)
let w_bool buf b = w_u8 buf (if b then 1 else 0)
let w_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_int_array buf a =
  w_int buf (Array.length a);
  Array.iter (w_int buf) a

let w_float_array buf a =
  w_int buf (Array.length a);
  Array.iter (w_float buf) a

let w_matrix buf m =
  w_int buf (Matrix.rows m);
  w_int buf (Matrix.cols m);
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      w_int buf (Matrix.get m i j)
    done
  done

let w_kind buf = function
  | Matmul -> w_u8 buf 0
  | Trace -> w_u8 buf 1
  | Triangles -> w_u8 buf 2
  | Conv -> w_u8 buf 3

let w_spec buf s =
  w_kind buf s.kind;
  w_string buf s.algo;
  w_string buf s.schedule;
  w_int buf s.d;
  w_int buf s.n;
  w_int buf s.entry_bits;
  w_bool buf s.signed;
  w_int buf s.tau;
  (* The v7 field rides at the tail, like the metrics counters. *)
  w_bool buf s.kronpow

let w_image buf (img : Image.t) =
  w_int buf img.Image.channels;
  w_int buf img.Image.height;
  w_int buf img.Image.width;
  Array.iter (w_int buf) img.Image.data

let w_conv_job buf j =
  w_int buf j.cj_q;
  w_int buf j.cj_stride;
  w_image buf j.cj_image;
  w_int buf (Array.length j.cj_kernels);
  Array.iter (w_image buf) j.cj_kernels

let w_scores buf (scores : int array array array) =
  let k = Array.length scores in
  let oh = if k = 0 then 0 else Array.length scores.(0) in
  let ow = if k = 0 || oh = 0 then 0 else Array.length scores.(0).(0) in
  w_int buf k;
  w_int buf oh;
  w_int buf ow;
  Array.iter (fun plane -> Array.iter (fun row -> Array.iter (w_int buf) row) plane) scores

let w_stats buf (s : Tcmm_threshold.Stats.t) =
  w_int buf s.inputs;
  w_int buf s.outputs;
  w_int buf s.gates;
  w_int buf s.edges;
  w_int buf s.depth;
  w_int buf s.max_fan_in;
  w_int buf s.max_abs_weight;
  w_int_array buf s.gates_by_depth

let w_cache_stats buf (s : cache_stats) =
  w_int buf s.hits;
  w_int buf s.misses;
  w_int buf s.evictions;
  w_int buf s.size;
  w_int buf s.capacity

let w_histogram buf h =
  w_float_array buf h.bounds;
  w_int_array buf h.counts;
  w_float buf h.sum;
  w_int buf h.count

let w_metrics buf m =
  w_float buf m.uptime_seconds;
  w_int buf m.connections_accepted;
  w_int buf m.connections_active;
  w_int buf m.requests_total;
  w_int buf m.run_requests;
  w_int buf m.errors;
  w_int buf m.batches;
  w_int buf m.lanes;
  w_int buf m.max_lanes;
  w_int_array buf m.occupancy;
  w_histogram buf m.latency_ms;
  w_int buf m.firings_total;
  w_float buf m.eval_seconds;
  w_float buf m.build_seconds;
  w_cache_stats buf m.cache;
  w_cache_stats buf m.engine;
  (* v2 fields ride at the tail so a v1 reader body is a prefix. *)
  w_int buf m.accepted;
  w_int buf m.shed;
  w_int buf m.deadline_expired;
  w_int buf m.eval_failures;
  w_int buf m.slow_client_drops;
  w_int buf m.kernel_gates;
  w_int buf m.fallback_gates;
  w_int buf m.store_loads;
  w_int buf m.store_saves;
  w_int buf m.store_invalid;
  w_int buf m.worker_id;
  (* v6 session counters ride at the tail, like every version before. *)
  w_int buf m.sessions_opened;
  w_int buf m.sessions_active;
  w_int buf m.sessions_evicted;
  w_int buf m.session_updates;
  w_int buf m.session_dirty_gates;
  w_int buf m.session_gates

let w_fleet_worker buf w =
  w_int buf w.fw_id;
  w_int buf w.fw_pid;
  w_string buf w.fw_addr;
  w_int buf w.fw_restarts;
  w_bool buf w.fw_alive

let payload tag fill =
  let buf = Buffer.create 256 in
  w_u8 buf version;
  w_u8 buf tag;
  fill buf;
  Buffer.contents buf

let encode_request = function
  | Compile spec -> payload 1 (fun buf -> w_spec buf spec)
  | Run_matmul (spec, a, b) ->
      payload 2 (fun buf ->
          w_spec buf spec;
          w_matrix buf a;
          w_matrix buf b)
  | Run_trace (spec, m) ->
      payload 3 (fun buf ->
          w_spec buf spec;
          w_matrix buf m)
  | Run_triangles (spec, m) ->
      payload 4 (fun buf ->
          w_spec buf spec;
          w_matrix buf m)
  | Stats spec -> payload 5 (fun buf -> w_spec buf spec)
  | Metrics -> payload 6 ignore
  | Ping -> payload 7 ignore
  | Shutdown -> payload 8 ignore
  (* Tag 13, not 9: a zero-payload request is a 2-byte frame, so its
     tag byte must not collide with any response tag that carries a
     payload (9 is [Error]) — otherwise that response's 2-byte
     truncation prefix would decode as a valid request.  13 is unused
     in both tag spaces. *)
  | Fleet -> payload 13 ignore
  | Open_session (spec, m) ->
      payload 14 (fun buf ->
          w_spec buf spec;
          w_matrix buf m)
  | Update (sid, delta) ->
      payload 15 (fun buf ->
          w_int buf sid;
          w_int buf (Array.length delta);
          Array.iter
            (fun (w, v) ->
              w_int buf w;
              w_bool buf v)
            delta)
  | Close_session sid -> payload 16 (fun buf -> w_int buf sid)
  | Run_conv (spec, job) ->
      (* Tag 17: unused in both tag spaces. *)
      payload 17 (fun buf ->
          w_spec buf spec;
          w_conv_job buf job)

let encode_response = function
  | Compiled c ->
      payload 1 (fun buf ->
          w_bool buf c.cached;
          w_float buf c.build_seconds;
          w_stats buf c.stats;
          (* v4 field rides at the tail, mirroring the metrics layout
             discipline. *)
          w_bool buf c.loaded)
  | Matmul_result (m, firings) ->
      payload 2 (fun buf ->
          w_matrix buf m;
          w_int buf firings)
  | Trace_result (b, firings) ->
      payload 3 (fun buf ->
          w_bool buf b;
          w_int buf firings)
  | Triangles_result (b, firings) ->
      payload 4 (fun buf ->
          w_bool buf b;
          w_int buf firings)
  | Stats_result s -> payload 5 (fun buf -> w_stats buf s)
  | Metrics_result m -> payload 6 (fun buf -> w_metrics buf m)
  | Pong -> payload 7 ignore
  | Shutting_down -> payload 8 ignore
  | Error msg -> payload 9 (fun buf -> w_string buf msg)
  | Overloaded -> payload 10 ignore
  | Deadline_exceeded -> payload 11 ignore
  | Fleet_result workers ->
      payload 12 (fun buf ->
          w_int buf (List.length workers);
          List.iter (w_fleet_worker buf) workers)
  | Session_opened s ->
      payload 14 (fun buf ->
          w_int buf s.so_sid;
          w_bool buf s.so_fires;
          w_int buf s.so_firings)
  | Update_result u ->
      payload 15 (fun buf ->
          w_bool buf u.ur_fires;
          w_int buf u.ur_firings;
          w_int buf u.ur_dirty_gates;
          w_int buf u.ur_gates)
  (* Tag 18, not 16: [Session_closed] is a zero-payload response, so by
     the [Fleet] rule's mirror image its tag must not collide with a
     payload-carrying request tag (16 is [Close_session]) — otherwise a
     request's 2-byte truncation prefix would decode as a valid
     response. *)
  | Session_closed -> payload 18 ignore
  | Conv_result (scores, firings) ->
      (* Tag 19: unused in both tag spaces. *)
      payload 19 (fun buf ->
          w_scores buf scores;
          w_int buf firings)

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

type reader = { s : string; mutable pos : int }

let remaining r = String.length r.s - r.pos

let need r n what =
  if n < 0 || n > remaining r then
    fail "truncated payload: need %d bytes for %s, have %d" n what (remaining r)

let r_u8 r what =
  need r 1 what;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_int r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_bool r what =
  match r_u8 r what with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad boolean %d for %s" v what

let r_float r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r what =
  let len = r_int r what in
  need r len what;
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let r_counted r ~elem_bytes what =
  let count = r_int r what in
  (* The bound also keeps [count * elem_bytes] far from overflow. *)
  if count < 0 || count > max_frame_len then fail "bad count %d for %s" count what;
  need r (count * elem_bytes) what;
  count

let r_int_array r what =
  let count = r_counted r ~elem_bytes:8 what in
  Array.init count (fun _ -> r_int r what)

let r_float_array r what =
  let count = r_counted r ~elem_bytes:8 what in
  Array.init count (fun _ -> r_float r what)

let r_matrix r what =
  let rows = r_int r what in
  let cols = r_int r what in
  if rows < 1 || cols < 1 || rows > max_frame_len || cols > max_frame_len then
    fail "bad matrix shape %dx%d for %s" rows cols what;
  need r (rows * cols * 8) what;
  Matrix.of_rows (Array.init rows (fun _ -> Array.init cols (fun _ -> r_int r what)))

let r_kind r ~version:v =
  match r_u8 r "kind" with
  | 0 -> Matmul
  | 1 -> Trace
  | 2 -> Triangles
  | 3 when v >= 7 -> Conv
  | k -> fail "unknown circuit kind %d" k

let r_spec r ~version:v =
  let kind = r_kind r ~version:v in
  let algo = r_string r "spec.algo" in
  let schedule = r_string r "spec.schedule" in
  let d = r_int r "spec.d" in
  let n = r_int r "spec.n" in
  let entry_bits = r_int r "spec.entry_bits" in
  let signed = r_bool r "spec.signed" in
  let tau = r_int r "spec.tau" in
  (* The kronpow flag joined in v7; older builds are always flat. *)
  let kronpow = if v >= 7 then r_bool r "spec.kronpow" else false in
  { kind; algo; schedule; d; n; entry_bits; signed; tau; kronpow }

let r_image r what =
  let channels = r_int r what in
  let height = r_int r what in
  let width = r_int r what in
  (* Per-dimension bounds first, so the size product cannot overflow. *)
  if channels < 1 || height < 1 || width < 1 || channels > max_frame_len
     || height > max_frame_len || width > max_frame_len
  then fail "bad image shape %dx%dx%d for %s" channels height width what;
  if channels * height > max_frame_len || channels * height * width > max_frame_len
  then fail "oversized image for %s" what;
  need r (channels * height * width * 8) what;
  let data =
    Array.init (channels * height * width) (fun _ -> r_int r what)
  in
  Image.init ~channels ~height ~width (fun c y x ->
      data.((((c * height) + y) * width) + x))

let r_conv_job r =
  let cj_q = r_int r "conv.q" in
  let cj_stride = r_int r "conv.stride" in
  let cj_image = r_image r "conv.image" in
  let count = r_counted r ~elem_bytes:24 "conv.kernels" in
  if count < 1 then fail "conv job carries no kernels";
  let cj_kernels = Array.init count (fun _ -> r_image r "conv.kernel") in
  { cj_q; cj_stride; cj_image; cj_kernels }

let r_scores r =
  let k = r_int r "scores.k" in
  let oh = r_int r "scores.out_h" in
  let ow = r_int r "scores.out_w" in
  if k < 0 || oh < 0 || ow < 0 || k > max_frame_len || oh > max_frame_len
     || ow > max_frame_len
  then fail "bad score shape %dx%dx%d" k oh ow;
  if k * oh > max_frame_len || k * oh * ow > max_frame_len then
    fail "oversized score block %dx%dx%d" k oh ow;
  need r (k * oh * ow * 8) "scores.data";
  Array.init k (fun _ ->
      Array.init oh (fun _ -> Array.init ow (fun _ -> r_int r "scores.data")))

let r_stats r : Tcmm_threshold.Stats.t =
  let inputs = r_int r "stats.inputs" in
  let outputs = r_int r "stats.outputs" in
  let gates = r_int r "stats.gates" in
  let edges = r_int r "stats.edges" in
  let depth = r_int r "stats.depth" in
  let max_fan_in = r_int r "stats.max_fan_in" in
  let max_abs_weight = r_int r "stats.max_abs_weight" in
  let gates_by_depth = r_int_array r "stats.gates_by_depth" in
  { inputs; outputs; gates; edges; depth; max_fan_in; max_abs_weight; gates_by_depth }

let r_cache_stats r : cache_stats =
  let hits = r_int r "cache.hits" in
  let misses = r_int r "cache.misses" in
  let evictions = r_int r "cache.evictions" in
  let size = r_int r "cache.size" in
  let capacity = r_int r "cache.capacity" in
  { hits; misses; evictions; size; capacity }

let r_histogram r =
  let bounds = r_float_array r "histogram.bounds" in
  let counts = r_int_array r "histogram.counts" in
  let sum = r_float r "histogram.sum" in
  let count = r_int r "histogram.count" in
  { bounds; counts; sum; count }

let r_metrics r ~version:v =
  let uptime_seconds = r_float r "metrics.uptime" in
  let connections_accepted = r_int r "metrics.accepted" in
  let connections_active = r_int r "metrics.active" in
  let requests_total = r_int r "metrics.requests" in
  let run_requests = r_int r "metrics.run_requests" in
  let errors = r_int r "metrics.errors" in
  let batches = r_int r "metrics.batches" in
  let lanes = r_int r "metrics.lanes" in
  let max_lanes = r_int r "metrics.max_lanes" in
  let occupancy = r_int_array r "metrics.occupancy" in
  let latency_ms = r_histogram r in
  let firings_total = r_int r "metrics.firings" in
  let eval_seconds = r_float r "metrics.eval_seconds" in
  let build_seconds = r_float r "metrics.build_seconds" in
  let cache = r_cache_stats r in
  let engine = r_cache_stats r in
  (* The robustness counters joined in v2; a v1 peer simply never saw a
     shed or expired request. *)
  let accepted = if v >= 2 then r_int r "metrics.accepted" else 0 in
  let shed = if v >= 2 then r_int r "metrics.shed" else 0 in
  let deadline_expired = if v >= 2 then r_int r "metrics.deadline_expired" else 0 in
  let eval_failures = if v >= 2 then r_int r "metrics.eval_failures" else 0 in
  let slow_client_drops =
    if v >= 2 then r_int r "metrics.slow_client_drops" else 0
  in
  (* Kernel coverage joined in v3; older peers predate the kernels. *)
  let kernel_gates = if v >= 3 then r_int r "metrics.kernel_gates" else 0 in
  let fallback_gates = if v >= 3 then r_int r "metrics.fallback_gates" else 0 in
  (* Artifact-store counters joined in v4; older daemons had no store. *)
  let store_loads = if v >= 4 then r_int r "metrics.store_loads" else 0 in
  let store_saves = if v >= 4 then r_int r "metrics.store_saves" else 0 in
  let store_invalid = if v >= 4 then r_int r "metrics.store_invalid" else 0 in
  (* The fleet identity joined in v5; an older daemon is standalone. *)
  let worker_id = if v >= 5 then r_int r "metrics.worker_id" else 0 in
  (* Streaming sessions joined in v6; older daemons served none. *)
  let sessions_opened = if v >= 6 then r_int r "metrics.sessions_opened" else 0 in
  let sessions_active = if v >= 6 then r_int r "metrics.sessions_active" else 0 in
  let sessions_evicted =
    if v >= 6 then r_int r "metrics.sessions_evicted" else 0
  in
  let session_updates = if v >= 6 then r_int r "metrics.session_updates" else 0 in
  let session_dirty_gates =
    if v >= 6 then r_int r "metrics.session_dirty_gates" else 0
  in
  let session_gates = if v >= 6 then r_int r "metrics.session_gates" else 0 in
  {
    uptime_seconds; connections_accepted; connections_active; requests_total;
    run_requests; errors; batches; lanes; max_lanes; occupancy; latency_ms;
    firings_total; eval_seconds; build_seconds; cache; engine;
    accepted; shed; deadline_expired; eval_failures; slow_client_drops;
    kernel_gates; fallback_gates; store_loads; store_saves; store_invalid;
    worker_id; sessions_opened; sessions_active; sessions_evicted;
    session_updates; session_dirty_gates; session_gates;
  }

let r_fleet_worker r =
  let fw_id = r_int r "fleet.id" in
  let fw_pid = r_int r "fleet.pid" in
  let fw_addr = r_string r "fleet.addr" in
  let fw_restarts = r_int r "fleet.restarts" in
  let fw_alive = r_bool r "fleet.alive" in
  { fw_id; fw_pid; fw_addr; fw_restarts; fw_alive }

let decode what f s =
  try
    let r = { s; pos = 0 } in
    let v = r_u8 r "version" in
    if v < min_version || v > version then
      fail "unsupported protocol version %d (want %d..%d)" v min_version version;
    let tag = r_u8 r "tag" in
    let value = f r ~version:v tag in
    if remaining r > 0 then fail "%d trailing bytes after %s" (remaining r) what;
    Ok value
  with Fail msg -> Result.Error (Printf.sprintf "bad %s: %s" what msg)

let decode_request =
  decode "request" (fun r ~version tag ->
      match tag with
      | 1 -> Compile (r_spec r ~version)
      | 2 ->
          let spec = r_spec r ~version in
          let a = r_matrix r "run.a" in
          let b = r_matrix r "run.b" in
          Run_matmul (spec, a, b)
      | 3 ->
          let spec = r_spec r ~version in
          Run_trace (spec, r_matrix r "run.a")
      | 4 ->
          let spec = r_spec r ~version in
          Run_triangles (spec, r_matrix r "run.adjacency")
      | 5 -> Stats (r_spec r ~version)
      | 6 -> Metrics
      | 7 -> Ping
      | 8 -> Shutdown
      | 13 when version >= 5 -> Fleet
      | 14 when version >= 6 ->
          let spec = r_spec r ~version in
          Open_session (spec, r_matrix r "session.adjacency")
      | 15 when version >= 6 ->
          let sid = r_int r "update.sid" in
          let count = r_counted r ~elem_bytes:9 "update.delta" in
          Update
            ( sid,
              Array.init count (fun _ ->
                  let w = r_int r "update.wire" in
                  let v = r_bool r "update.value" in
                  (w, v)) )
      | 16 when version >= 6 -> Close_session (r_int r "close.sid")
      | 17 when version >= 7 ->
          let spec = r_spec r ~version in
          Run_conv (spec, r_conv_job r)
      | t -> fail "unknown request tag %d" t)

let decode_response =
  decode "response" (fun r ~version tag ->
      match tag with
      | 1 ->
          let cached = r_bool r "compiled.cached" in
          let build_seconds = r_float r "compiled.build_seconds" in
          let stats = r_stats r in
          let loaded = if version >= 4 then r_bool r "compiled.loaded" else false in
          Compiled { cached; loaded; build_seconds; stats }
      | 2 ->
          let m = r_matrix r "result.c" in
          Matmul_result (m, r_int r "result.firings")
      | 3 ->
          let b = r_bool r "result.fires" in
          Trace_result (b, r_int r "result.firings")
      | 4 ->
          let b = r_bool r "result.fires" in
          Triangles_result (b, r_int r "result.firings")
      | 5 -> Stats_result (r_stats r)
      | 6 -> Metrics_result (r_metrics r ~version)
      | 7 -> Pong
      | 8 -> Shutting_down
      | 9 -> Error (r_string r "error.message")
      | 10 when version >= 2 -> Overloaded
      | 11 when version >= 2 -> Deadline_exceeded
      | 12 when version >= 5 ->
          let count = r_counted r ~elem_bytes:(8 * 4 + 1) "fleet.workers" in
          Fleet_result (List.init count (fun _ -> r_fleet_worker r))
      | 14 when version >= 6 ->
          let so_sid = r_int r "session.sid" in
          let so_fires = r_bool r "session.fires" in
          let so_firings = r_int r "session.firings" in
          Session_opened { so_sid; so_fires; so_firings }
      | 15 when version >= 6 ->
          let ur_fires = r_bool r "update.fires" in
          let ur_firings = r_int r "update.firings" in
          let ur_dirty_gates = r_int r "update.dirty_gates" in
          let ur_gates = r_int r "update.gates" in
          Update_result { ur_fires; ur_firings; ur_dirty_gates; ur_gates }
      | 18 when version >= 6 -> Session_closed
      | 19 when version >= 7 ->
          let scores = r_scores r in
          Conv_result (scores, r_int r "result.firings")
      | t -> fail "unknown response tag %d" t)

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

let frame p =
  let len = String.length p in
  if len = 0 || len > max_frame_len then
    invalid_arg (Printf.sprintf "Protocol.frame: payload of %d bytes" len);
  let buf = Buffer.create (len + 4) in
  Buffer.add_int32_be buf (Int32.of_int len);
  Buffer.add_string buf p;
  Buffer.contents buf

type dechunker = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let create_dechunker () = { buf = Bytes.create 4096; start = 0; len = 0 }

let feed d src pos len =
  if len < 0 || pos < 0 || pos + len > Bytes.length src then
    invalid_arg "Protocol.feed";
  (* Compact, then grow if needed. *)
  if d.start > 0 && d.start + d.len + len > Bytes.length d.buf then begin
    Bytes.blit d.buf d.start d.buf 0 d.len;
    d.start <- 0
  end;
  if d.len + len > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while d.len + len > !cap do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf d.start bigger 0 d.len;
    d.buf <- bigger;
    d.start <- 0
  end;
  Bytes.blit src pos d.buf (d.start + d.len) len;
  d.len <- d.len + len

let next_frame d =
  if d.len < 4 then `More
  else
    let len = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
    if len <= 0 || len > max_frame_len then
      `Corrupt (Printf.sprintf "bad frame length %d" len)
    else if d.len < 4 + len then `More
    else begin
      let p = Bytes.sub_string d.buf (d.start + 4) len in
      d.start <- d.start + 4 + len;
      d.len <- d.len - 4 - len;
      if d.len = 0 then d.start <- 0;
      `Frame p
    end

let buffered d = d.len

let write_frame fd p =
  let s = frame p in
  let len = String.length s in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd s !written (len - !written)
  done

let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let k = Unix.read fd b !got (n - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit | Unix.Unix_error (ECONNRESET, _, _) ->
     (* A reset peer (killed with our requests unread) is a closed
        connection, as in [read_exactly_within]. *)
     ());
  if !got = n then Ok (Bytes.unsafe_to_string b)
  else Result.Error (Printf.sprintf "connection closed (%d of %d bytes)" !got n)

let read_frame fd =
  match read_exactly fd 4 with
  | Result.Error _ as e -> e
  | Ok header ->
      let len = Int32.to_int (String.get_int32_be header 0) in
      if len <= 0 || len > max_frame_len then
        Result.Error (Printf.sprintf "bad frame length %d" len)
      else read_exactly fd len

(* Deadline-bounded variant of [read_exactly]: a [select] guards every
   [read] so a stalled peer surfaces as [`Timeout] instead of a hang.
   [deadline] is an absolute instant on the same clock the caller uses
   for [Clock.now]. *)
let read_exactly_within fd n ~deadline ~now =
  let b = Bytes.create n in
  let got = ref 0 in
  let result = ref None in
  while !result = None && !got < n do
    let budget = deadline -. now () in
    if budget <= 0. then result := Some (Result.Error `Timeout)
    else
      match Unix.select [ fd ] [] [] budget with
      | [], _, _ -> result := Some (Result.Error `Timeout)
      | _ -> (
          match Unix.read fd b !got (n - !got) with
          | 0 ->
              result :=
                Some
                  (Result.Error
                     (`Closed
                       (Printf.sprintf "connection closed (%d of %d bytes)" !got n)))
          | k -> got := !got + k
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
          | exception Unix.Unix_error (e, _, _) ->
              (* A reset peer is a closed connection, not a crash. *)
              result := Some (Result.Error (`Closed (Unix.error_message e))))
      | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  match !result with
  | Some r -> r
  | None -> Ok (Bytes.unsafe_to_string b)

let read_frame_within fd ~deadline ~now =
  match read_exactly_within fd 4 ~deadline ~now with
  | Result.Error _ as e -> e
  | Ok header ->
      let len = Int32.to_int (String.get_int32_be header 0) in
      if len <= 0 || len > max_frame_len then
        Result.Error (`Closed (Printf.sprintf "bad frame length %d" len))
      else read_exactly_within fd len ~deadline ~now

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

type addr = Unix_socket of string | Tcp of string * int

let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Result.Error (Printf.sprintf "bad TCP address %S (want HOST:PORT)" s))
  | None -> if s = "" then Result.Error "empty address" else Ok (Unix_socket s)

let pp_addr ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

(* Round-trips through [parse_addr] (unlike [pp_addr]'s tagged form):
   the fleet roster and the shard router's hash both use this form. *)
let addr_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of_addr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (inet, port)

(* ------------------------------------------------------------------ *)
(* Equality and printing                                              *)
(* ------------------------------------------------------------------ *)

let equal_spec (a : spec) (b : spec) = a = b

let equal_request a b =
  match (a, b) with
  | Compile sa, Compile sb | Stats sa, Stats sb -> equal_spec sa sb
  | Run_matmul (sa, a1, a2), Run_matmul (sb, b1, b2) ->
      equal_spec sa sb && Matrix.equal a1 b1 && Matrix.equal a2 b2
  | Run_trace (sa, ma), Run_trace (sb, mb)
  | Run_triangles (sa, ma), Run_triangles (sb, mb) ->
      equal_spec sa sb && Matrix.equal ma mb
  | Metrics, Metrics | Ping, Ping | Shutdown, Shutdown | Fleet, Fleet -> true
  | Open_session (sa, ma), Open_session (sb, mb) ->
      equal_spec sa sb && Matrix.equal ma mb
  | Update (ia, da), Update (ib, db) -> ia = ib && da = db
  | Close_session a, Close_session b -> a = b
  | Run_conv (sa, ja), Run_conv (sb, jb) ->
      equal_spec sa sb && ja.cj_q = jb.cj_q && ja.cj_stride = jb.cj_stride
      && Image.equal ja.cj_image jb.cj_image
      && Array.length ja.cj_kernels = Array.length jb.cj_kernels
      && Array.for_all2 Image.equal ja.cj_kernels jb.cj_kernels
  | _ -> false

(* Floats travel by bits, so [=] on the records is exact; NaNs would
   still compare unequal, hence the explicit bit comparison. *)
let equal_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_float_array a b =
  Array.length a = Array.length b && Array.for_all2 equal_float a b

let equal_histogram a b =
  equal_float_array a.bounds b.bounds
  && a.counts = b.counts && equal_float a.sum b.sum && a.count = b.count

let equal_metrics a b =
  equal_float a.uptime_seconds b.uptime_seconds
  && a.connections_accepted = b.connections_accepted
  && a.connections_active = b.connections_active
  && a.requests_total = b.requests_total
  && a.run_requests = b.run_requests
  && a.errors = b.errors && a.batches = b.batches && a.lanes = b.lanes
  && a.max_lanes = b.max_lanes && a.occupancy = b.occupancy
  && equal_histogram a.latency_ms b.latency_ms
  && a.firings_total = b.firings_total
  && equal_float a.eval_seconds b.eval_seconds
  && equal_float a.build_seconds b.build_seconds
  && a.cache = b.cache && a.engine = b.engine
  && a.accepted = b.accepted && a.shed = b.shed
  && a.deadline_expired = b.deadline_expired
  && a.eval_failures = b.eval_failures
  && a.slow_client_drops = b.slow_client_drops
  && a.kernel_gates = b.kernel_gates
  && a.fallback_gates = b.fallback_gates
  && a.store_loads = b.store_loads
  && a.store_saves = b.store_saves
  && a.store_invalid = b.store_invalid
  && a.worker_id = b.worker_id
  && a.sessions_opened = b.sessions_opened
  && a.sessions_active = b.sessions_active
  && a.sessions_evicted = b.sessions_evicted
  && a.session_updates = b.session_updates
  && a.session_dirty_gates = b.session_dirty_gates
  && a.session_gates = b.session_gates

let equal_response a b =
  match (a, b) with
  | Compiled ca, Compiled cb ->
      ca.cached = cb.cached && ca.loaded = cb.loaded
      && equal_float ca.build_seconds cb.build_seconds
      && ca.stats = cb.stats
  | Matmul_result (ma, fa), Matmul_result (mb, fb) -> Matrix.equal ma mb && fa = fb
  | Trace_result (ba, fa), Trace_result (bb, fb)
  | Triangles_result (ba, fa), Triangles_result (bb, fb) ->
      ba = bb && fa = fb
  | Stats_result sa, Stats_result sb -> sa = sb
  | Metrics_result ma, Metrics_result mb -> equal_metrics ma mb
  | Pong, Pong | Shutting_down, Shutting_down -> true
  | Overloaded, Overloaded | Deadline_exceeded, Deadline_exceeded -> true
  | Error ea, Error eb -> ea = eb
  | Fleet_result wa, Fleet_result wb -> wa = wb
  | Session_opened a, Session_opened b -> a = b
  | Update_result a, Update_result b -> a = b
  | Session_closed, Session_closed -> true
  | Conv_result (sa, fa), Conv_result (sb, fb) -> sa = sb && fa = fb
  | _ -> false

let pp_metrics ppf m =
  let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  Format.fprintf ppf "uptime: %.1f s, connections: %d accepted / %d active%t@."
    m.uptime_seconds m.connections_accepted m.connections_active
    (fun ppf ->
      if m.worker_id > 0 then Format.fprintf ppf " (worker %d)" m.worker_id);
  Format.fprintf ppf
    "requests: %d total, %d runs, %d errors; latency mean %.3f ms over %d@."
    m.requests_total m.run_requests m.errors
    (if m.latency_ms.count = 0 then 0. else m.latency_ms.sum /. float_of_int m.latency_ms.count)
    m.latency_ms.count;
  Format.fprintf ppf
    "batches: %d carrying %d lanes (mean occupancy %.1f of %d); firings %d@."
    m.batches m.lanes (frac m.lanes m.batches) m.max_lanes m.firings_total;
  Format.fprintf ppf "time: eval %.3f s, build %.3f s@." m.eval_seconds
    m.build_seconds;
  Format.fprintf ppf
    "robustness: %d accepted, %d shed, %d deadline-expired, %d eval failures, %d slow-client drops@."
    m.accepted m.shed m.deadline_expired m.eval_failures m.slow_client_drops;
  Format.fprintf ppf
    "kernels: %d gates kernelized, %d fallback (%.1f%% coverage)@."
    m.kernel_gates m.fallback_gates
    (100. *. frac m.kernel_gates (m.kernel_gates + m.fallback_gates));
  Format.fprintf ppf
    "store: %d warm loads, %d saves, %d invalid artifacts quarantined@."
    m.store_loads m.store_saves m.store_invalid;
  Format.fprintf ppf
    "sessions: %d opened (%d active, %d evicted), %d updates touching \
     %d/%d gates (%.1f%% dirty)@."
    m.sessions_opened m.sessions_active m.sessions_evicted m.session_updates
    m.session_dirty_gates m.session_gates
    (100. *. frac m.session_dirty_gates m.session_gates);
  let pp_cache name (c : cache_stats) =
    Format.fprintf ppf
      "%s cache: %d/%d entries, %d hits / %d misses (%.0f%% hit rate), %d evictions@."
      name c.size c.capacity c.hits c.misses
      (100. *. frac c.hits (c.hits + c.misses))
      c.evictions
  in
  pp_cache "circuit" m.cache;
  pp_cache "engine" m.engine;
  let occupied = ref [] in
  Array.iteri
    (fun i c -> if c > 0 then occupied := (i + 1, c) :: !occupied)
    m.occupancy;
  Format.fprintf ppf "occupancy: %s@."
    (if !occupied = [] then "-"
     else
       String.concat ", "
         (List.rev_map (fun (lanes, c) -> Printf.sprintf "%dx%d-lane" c lanes) !occupied))
