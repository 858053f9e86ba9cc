module P = Protocol
module T = Tcmm
module Th = Tcmm_threshold
module Cn = Tcmm_convnet
module Clock = Tcmm_util.Clock

let src = Logs.Src.create "tcmm.server" ~doc:"tcmm serving daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  addr : P.addr;
  cache_capacity : int;
  flush_ms : float;
  max_lanes : int;
  profile_build : bool;
  profile_eval : bool;
  max_pending : int;
  deadline_ms : float;
  grace_s : float;
  max_backlog : int;
  store : string option;
  worker_id : int;
  max_sessions : int;
}

let default_config addr =
  { addr; cache_capacity = 8; flush_ms = 0.; max_lanes = 62;
    profile_build = false; profile_eval = false;
    max_pending = 0; deadline_ms = 0.; grace_s = 5.;
    max_backlog = 1 lsl 26; store = None; worker_id = 0; max_sessions = 16 }

type conn = {
  fd : Unix.file_descr;
  dech : P.dechunker;
  out : Buffer.t;
  mutable sent : int;  (* prefix of [out] already written to the socket *)
  mutable alive : bool;
  mutable closing : bool;  (* close once [out] is flushed *)
}

type job = {
  jconn : conn;
  packed : Th.Packed.t;
  input : bool array;
  reply : Th.Packed.batch_result -> lane:int -> P.response;
  enqueued_at : float;
  (* Set when the job has been answered (dispatched, expired, or
     failed).  The timer wheel cancels lazily: an answered job's wheel
     entry is skipped when it surfaces. *)
  mutable answered : bool;
}

(* One resident streaming session.  The packed session
   holds the last input bits and every gate's cached sum, so an
   [Update] re-examines only the flipped wires' dirty cone.
   [se_last_dirty] snapshots the session's cumulative dirty-gate
   counter so each update reports its own cone size. *)
type session_entry = {
  se_id : int;
  se_session : Th.Packed.session;
  se_out : int;  (* the trace/triangles output wire *)
  se_gates : int;
  mutable se_last_dirty : int;
  mutable se_touched : int;  (* LRU clock stamp *)
}

type state = {
  cfg : config;
  (* One fd standalone; a fleet worker also accepts on the supervisor's
     shared front socket (inherited across fork), so the kernel load
     balances un-routed connections while the worker's own endpoint
     receives spec-affine traffic. *)
  listen_fds : Unix.file_descr list;
  mutable conns : conn list;
  cache : Circuit_cache.t;
  batcher : job Batcher.t;
  wheel : job Timer_wheel.t;
  metrics : Metrics.t;
  (* The dispatch loop is single-threaded, so one shared wire-value
     workspace is safe and amortizes the per-batch buffer allocation;
     replies are fully decoded inside [dispatch], before the next
     batch can reuse it. *)
  ws : Th.Packed.workspace;
  (* Per-circuit accumulated eval profiles ([profile_eval]), keyed by
     the batcher's coalescing key. *)
  profiles : (string, Th.Packed.eval_profile) Hashtbl.t;
  mutable stopping : bool;
  mutable stop_at : float;
  (* The previous select round found no readable connection: together
     with an empty batcher and flushed buffers this is the drain's
     quiescence condition. *)
  mutable quiet : bool;
  mutable term_pending : bool;  (* set by the SIGTERM handler *)
  started : float;
  read_buf : Bytes.t;
  (* Streaming sessions, LRU-capped at [cfg.max_sessions].  Sessions
     are few (each pins a full wire-value image), so the LRU scan is a
     linear fold over the table rather than an intrusive list. *)
  sessions : (int, session_entry) Hashtbl.t;
  mutable next_sid : int;
  mutable session_clock : int;
}

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns;
    Metrics.connection_closed st.metrics;
    Log.debug (fun m -> m "connection closed (%d active)" (List.length st.conns))
  end

let send st c resp =
  if c.alive then begin
    (match resp with P.Error _ -> Metrics.error st.metrics | _ -> ());
    let payload = P.encode_response resp in
    let framed =
      match P.frame payload with
      | framed -> framed
      | exception Invalid_argument _ ->
          Metrics.error st.metrics;
          P.frame (P.encode_response (P.Error "response exceeds frame limit"))
    in
    Buffer.add_string c.out framed;
    if Buffer.length c.out - c.sent > st.cfg.max_backlog then begin
      Metrics.slow_client_drop st.metrics;
      Log.warn (fun m -> m "dropping connection: output backlog exceeded");
      close_conn st c
    end
  end

let flush_conn st c =
  if c.alive then begin
    let len = Buffer.length c.out in
    if len > c.sent then begin
      let s = Buffer.contents c.out in
      match Unix.write_substring c.fd s c.sent (len - c.sent) with
      | n ->
          c.sent <- c.sent + n;
          if c.sent = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.sent <- 0
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn st c
    end;
    if c.alive && c.closing && Buffer.length c.out = c.sent then close_conn st c
  end

let circuit_stats (entry : Circuit_cache.entry) = entry.Circuit_cache.stats

let dispatch st ~key jobs =
  (* Deadline-expired jobs were already answered and reaped; any still
     in a dispatch list (drain racing expiry) are skipped here. *)
  match List.filter (fun j -> not j.answered) jobs with
  | [] -> ()
  | first :: _ as jobs ->
      List.iter (fun j -> j.answered <- true) jobs;
      let batch = Array.of_list (List.map (fun j -> j.input) jobs) in
      let lanes = Array.length batch in
      let profile =
        if not st.cfg.profile_eval then None
        else
          match Hashtbl.find_opt st.profiles key with
          | Some p -> Some p
          | None ->
              let p = Th.Packed.make_profile first.packed in
              Hashtbl.replace st.profiles key p;
              Some p
      in
      let t0 = Clock.now () in
      (match
         Th.Packed.run_batch ?profile ~ws:st.ws first.packed batch
       with
      | br ->
          let t1 = Clock.now () in
          let firings = ref 0 in
          List.iteri
            (fun lane j ->
              firings := !firings + Th.Packed.batch_firings br ~lane;
              send st j.jconn (j.reply br ~lane);
              Metrics.observe_latency st.metrics ~seconds:(t1 -. j.enqueued_at))
            jobs;
          Metrics.observe_batch st.metrics ~lanes ~firings:!firings
            ~seconds:(t1 -. t0);
          Log.debug (fun m -> m "dispatched batch of %d lane(s)" lanes)
      | exception e ->
          (* Supervised recovery: a raising evaluation fails its own
             lanes and the daemon keeps serving. *)
          let msg = Printexc.to_string e in
          Log.err (fun m -> m "batch evaluation failed (%d lanes): %s" lanes msg);
          List.iter
            (fun j ->
              Metrics.eval_failure st.metrics;
              send st j.jconn (P.Error ("evaluation failed: " ^ msg)))
            jobs)

(* Sweep the timer wheel and answer every queued job whose deadline
   passed; reap them out of the batcher so a later flush cannot answer
   them twice (and so an emptied group stops driving the timeout). *)
let expire_deadlines st ~now =
  match Timer_wheel.advance st.wheel ~now with
  | [] -> ()
  | expired -> (
      match List.filter (fun j -> not j.answered) expired with
      | [] -> ()
      | newly ->
          List.iter
            (fun j ->
              j.answered <- true;
              Metrics.deadline_expired st.metrics;
              send st j.jconn P.Deadline_exceeded)
            newly;
          let reaped = Batcher.reap st.batcher ~f:(fun j -> j.answered) in
          Log.debug (fun m ->
              m "expired %d job(s) past deadline (%d reaped from queue)"
                (List.length newly) (List.length reaped)))

(* Served convolution: embed the im2col operands into the
   spec's [n x n] matmul circuit; the top-left [P x K] block of the
   product is the score matrix.  Raises [Invalid_argument] on a
   mis-shaped job, which the caller converts to an [Error] reply. *)
let conv_matrices (job : P.conv_job) ~n =
  let cspec = { Cn.Im2col.q = job.P.cj_q; stride = job.P.cj_stride } in
  let img = job.P.cj_image in
  Array.iter
    (fun (k : Cn.Image.t) ->
      if
        k.Cn.Image.channels <> img.Cn.Image.channels
        || k.Cn.Image.height <> job.P.cj_q
        || k.Cn.Image.width <> job.P.cj_q
      then invalid_arg "conv kernels must be image-channels x q x q")
    job.P.cj_kernels;
  let patches = Cn.Im2col.patch_matrix cspec img in
  let kmat = Cn.Im2col.kernel_matrix job.P.cj_kernels in
  let p = P.Matrix.rows patches and q = P.Matrix.cols patches in
  let k = P.Matrix.cols kmat in
  if p > n || q > n || k > n then
    invalid_arg
      (Printf.sprintf
         "conv job needs a circuit of n >= %d (P=%d, Q=%d, K=%d); spec has n=%d"
         (max p (max q k)) p q k n);
  let a = Cn.Im2col.embed patches ~n and b = Cn.Im2col.embed kmat ~n in
  let finish get firings =
    let product = P.Matrix.init ~rows:p ~cols:k get in
    P.Conv_result (Cn.Im2col.scores_of_product cspec img product, firings)
  in
  (a, b, finish)

(* Input vectors from a circuit's I/O descriptor.  [Encode.write]
   raises [Invalid_argument] on a wrongly-shaped matrix or an entry
   outside the layout's range, which the callers convert to an [Error]
   reply. *)
let matmul_input layout_a layout_b a b =
  let wa = T.Encode.total_wires layout_a in
  let input = Array.make (wa + T.Encode.total_wires layout_b) false in
  T.Encode.write layout_a a input;
  T.Encode.write layout_b b input;
  input

let trace_input layout m =
  let input = Array.make (T.Encode.total_wires layout) false in
  T.Encode.write layout m input;
  input

(* Encode the request's matrices into an input vector and build the
   per-lane decoder. *)
let prepare_run (entry : Circuit_cache.entry) req =
  let entry_of c_grid br ~lane i j =
    Tcmm_arith.Repr.eval_sbits
      (fun w -> Th.Packed.batch_value br ~lane w)
      c_grid.(i).(j)
  in
  match (Circuit_cache.io entry, req) with
  | Tcmm_store.Artifact.Matmul_io io, P.Run_matmul (_, a, b) ->
      let n = Array.length io.c_grid in
      let reply br ~lane =
        P.Matmul_result
          ( Tcmm_fastmm.Matrix.init ~rows:n ~cols:n (entry_of io.c_grid br ~lane),
            Th.Packed.batch_firings br ~lane )
      in
      (matmul_input io.layout_a io.layout_b a b, reply)
  | Tcmm_store.Artifact.Matmul_io io, P.Run_conv (_, job) ->
      let a, b, finish = conv_matrices job ~n:entry.spec.P.n in
      let reply br ~lane =
        finish (entry_of io.c_grid br ~lane) (Th.Packed.batch_firings br ~lane)
      in
      (matmul_input io.layout_a io.layout_b a b, reply)
  | Tcmm_store.Artifact.Trace_io io, (P.Run_trace (_, a) | P.Run_triangles (_, a))
    ->
      let reply br ~lane =
        let fired = Th.Packed.batch_value br ~lane io.output in
        let firings = Th.Packed.batch_firings br ~lane in
        match req with
        | P.Run_triangles _ -> P.Triangles_result (fired, firings)
        | _ -> P.Trace_result (fired, firings)
      in
      (trace_input io.layout a, reply)
  | _ -> invalid_arg "request kind does not match the compiled circuit"

let with_entry st c spec k =
  match Circuit_cache.find_or_build st.cache spec with
  | Error msg -> send st c (P.Error msg)
  | Ok (entry, outcome) ->
      let cov = entry.Circuit_cache.coverage in
      if outcome <> Circuit_cache.Cached then
        Metrics.observe_coverage st.metrics
          ~kernel_gates:cov.Th.Packed.kernel_gates
          ~fallback_gates:cov.Th.Packed.fallback_gates;
      (match outcome with
      | Circuit_cache.Cached -> ()
      | Circuit_cache.Built ->
          Metrics.observe_build st.metrics ~seconds:entry.build_seconds;
          let level = if st.cfg.profile_build then Logs.App else Logs.Info in
          Log.msg level (fun m ->
              let total = cov.Th.Packed.kernel_gates + cov.Th.Packed.fallback_gates in
              m
                "built %s in %.3fs (construct %.3fs, lower %.3fs; kernels \
                 cover %d/%d gates)"
                (Circuit_cache.key spec) entry.build_seconds
                entry.construct_seconds entry.lower_seconds
                cov.Th.Packed.kernel_gates total)
      | Circuit_cache.Loaded ->
          Log.info (fun m ->
              m "loaded %s warm from the artifact store in %.3fs"
                (Circuit_cache.key spec) entry.build_seconds));
      k entry outcome

let handle_run st c ~now spec req =
  (* Admission gate: shedding here (before the build) keeps an
     overloaded daemon answering in constant time. *)
  if st.cfg.max_pending > 0 && Batcher.pending st.batcher >= st.cfg.max_pending
  then begin
    Metrics.shed st.metrics;
    send st c P.Overloaded
  end
  else
    with_entry st c spec (fun entry _outcome ->
        match prepare_run entry req with
        | exception Invalid_argument msg | exception Failure msg ->
            send st c (P.Error msg)
        | exception Tcmm_util.Checked.Overflow msg ->
            send st c (P.Error ("arithmetic overflow: " ^ msg))
        | input, reply ->
            Metrics.accepted st.metrics;
            let job =
              { jconn = c; packed = entry.packed; input; reply;
                enqueued_at = now; answered = false }
            in
            if st.cfg.deadline_ms > 0. then
              Timer_wheel.add st.wheel
                ~deadline:(now +. (st.cfg.deadline_ms /. 1000.))
                job;
            let key = Circuit_cache.key spec in
            (match Batcher.enqueue st.batcher ~key ~now job with
            | Some jobs -> dispatch st ~key jobs
            | None -> ()))

(* ------------------------------------------------------------------ *)
(* Streaming sessions                                                 *)
(* ------------------------------------------------------------------ *)

let session_input (entry : Circuit_cache.entry) m =
  match Circuit_cache.io entry with
  | Tcmm_store.Artifact.Trace_io io -> (trace_input io.layout m, io.output)
  | Tcmm_store.Artifact.Matmul_io _ ->
      invalid_arg "streaming sessions serve trace/triangles circuits"

let evict_lru_session st =
  if Hashtbl.length st.sessions >= max 1 st.cfg.max_sessions then begin
    let victim =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some b when b.se_touched <= e.se_touched -> acc
          | _ -> Some e)
        st.sessions None
    in
    match victim with
    | Some e ->
        Hashtbl.remove st.sessions e.se_id;
        Metrics.session_evicted st.metrics;
        Log.info (fun m ->
            m "evicted session %d (LRU, cap %d)" e.se_id
              (max 1 st.cfg.max_sessions))
    | None -> ()
  end

let wire_value (res : Th.Simulator.result) w =
  Bytes.get res.Th.Simulator.values w <> '\000'

let handle_open_session st c spec m =
  if spec.P.kind = P.Matmul || spec.P.kind = P.Conv then
    send st c (P.Error "streaming sessions serve trace/triangles circuits")
  else
  with_entry st c spec (fun entry _outcome ->
      match session_input entry m with
      | exception Invalid_argument msg | exception Failure msg ->
          send st c (P.Error msg)
      | input, out -> (
          match Th.Packed.session entry.packed input with
          | exception Invalid_argument msg -> send st c (P.Error msg)
          | session ->
              evict_lru_session st;
              let sid = st.next_sid in
              st.next_sid <- sid + 1;
              st.session_clock <- st.session_clock + 1;
              let stats = Th.Packed.session_stats session in
              Hashtbl.replace st.sessions sid
                {
                  se_id = sid;
                  se_session = session;
                  se_out = out;
                  se_gates = stats.Th.Packed.su_gates;
                  se_last_dirty = 0;
                  se_touched = st.session_clock;
                };
              Metrics.session_opened st.metrics;
              let res = Th.Packed.session_result session in
              send st c
                (P.Session_opened
                   {
                     P.so_sid = sid;
                     so_fires = wire_value res out;
                     so_firings = res.Th.Simulator.firings;
                   })))

let handle_update st c sid delta =
  match Hashtbl.find_opt st.sessions sid with
  | None -> send st c (P.Error (Printf.sprintf "unknown session %d" sid))
  | Some e -> (
      st.session_clock <- st.session_clock + 1;
      e.se_touched <- st.session_clock;
      match Th.Packed.update e.se_session delta with
      | exception Invalid_argument msg -> send st c (P.Error msg)
      | res ->
          let stats = Th.Packed.session_stats e.se_session in
          let dirty = stats.Th.Packed.su_dirty_gates - e.se_last_dirty in
          e.se_last_dirty <- stats.Th.Packed.su_dirty_gates;
          Metrics.session_update st.metrics ~dirty_gates:dirty
            ~gates:e.se_gates;
          send st c
            (P.Update_result
               {
                 P.ur_fires = wire_value res e.se_out;
                 ur_firings = res.Th.Simulator.firings;
                 ur_dirty_gates = dirty;
                 ur_gates = e.se_gates;
               }))

let handle_close_session st c sid =
  match Hashtbl.find_opt st.sessions sid with
  | None -> send st c (P.Error (Printf.sprintf "unknown session %d" sid))
  | Some _ ->
      Hashtbl.remove st.sessions sid;
      Metrics.session_closed st.metrics;
      send st c P.Session_closed

let begin_drain st ~now reason =
  if not st.stopping then begin
    st.stopping <- true;
    st.stop_at <- now +. st.cfg.grace_s;
    st.quiet <- false;
    Log.info (fun m ->
        m "%s: draining (grace %.1fs, %d pending)" reason st.cfg.grace_s
          (Batcher.pending st.batcher))
  end

let store_counters st =
  match Circuit_cache.store st.cache with
  | None -> (0, 0, 0)
  | Some store ->
      let c = Tcmm_store.Store.counters store in
      (c.Tcmm_store.Store.loads, c.Tcmm_store.Store.saves,
       c.Tcmm_store.Store.invalid)

let handle_request st c ~now req =
  match req with
  | P.Ping -> send st c P.Pong
  | P.Shutdown ->
      send st c P.Shutting_down;
      begin_drain st ~now "shutdown requested"
  | P.Metrics ->
      let m =
        Metrics.snapshot st.metrics
          ~uptime_seconds:(now -. st.started)
          ~cache:(Circuit_cache.stats st.cache)
          ~store:(store_counters st)
      in
      send st c (P.Metrics_result m)
  | P.Fleet ->
      (* A worker (or standalone daemon) only knows itself; the
         supervisor answers this with the whole roster. *)
      send st c
        (P.Fleet_result
           [
             {
               P.fw_id = st.cfg.worker_id;
               fw_pid = Unix.getpid ();
               fw_addr = P.addr_string st.cfg.addr;
               fw_restarts = 0;
               fw_alive = true;
             };
           ])
  | P.Compile spec ->
      with_entry st c spec (fun entry outcome ->
          send st c
            (P.Compiled
               {
                 P.cached = (outcome = Circuit_cache.Cached);
                 loaded = (outcome = Circuit_cache.Loaded);
                 build_seconds =
                   (if outcome = Circuit_cache.Cached then 0.
                    else entry.build_seconds);
                 stats = circuit_stats entry;
               }))
  | P.Stats spec ->
      with_entry st c spec (fun entry _outcome ->
          send st c (P.Stats_result (circuit_stats entry)))
  (* Run constructors dictate the circuit kind: normalizing the spec
     here keeps a mislabelled spec from building the wrong circuit. *)
  | P.Run_matmul (spec, _, _) ->
      handle_run st c ~now { spec with P.kind = P.Matmul } req
  | P.Run_trace (spec, _) ->
      handle_run st c ~now { spec with P.kind = P.Trace } req
  | P.Run_triangles (spec, _) ->
      handle_run st c ~now { spec with P.kind = P.Triangles } req
  | P.Run_conv (spec, _) ->
      handle_run st c ~now { spec with P.kind = P.Conv } req
  (* Session requests are answered synchronously in the event loop —
     an update's dirty cone is orders of magnitude cheaper than a full
     evaluation, so routing it through the batcher would only add
     queueing latency. *)
  | P.Open_session (spec, m) -> handle_open_session st c spec m
  | P.Update (sid, delta) -> handle_update st c sid delta
  | P.Close_session sid -> handle_close_session st c sid

(* Frames keep being processed while draining: the drain serves what
   existing connections already sent, it only stops admitting new
   connections. *)
let process_frames st c ~now =
  let rec go () =
    if c.alive && not c.closing then
      match P.next_frame c.dech with
      | `More -> ()
      | `Corrupt msg ->
          Metrics.request st.metrics;
          send st c (P.Error ("corrupt frame: " ^ msg));
          (* A framing error desynchronizes the byte stream for good:
             answer, flush, drop the connection. *)
          c.closing <- true
      | `Frame payload ->
          Metrics.request st.metrics;
          (match P.decode_request payload with
          | Error msg -> send st c (P.Error ("bad request: " ^ msg))
          | Ok req -> handle_request st c ~now req);
          go ()
  in
  go ()

let read_conn st c ~now =
  let rec drain () =
    match Unix.read c.fd st.read_buf 0 (Bytes.length st.read_buf) with
    | 0 -> close_conn st c
    | len ->
        P.feed c.dech st.read_buf 0 len;
        if len = Bytes.length st.read_buf then drain ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn st c
  in
  drain ();
  if c.alive then process_frames st c ~now

let accept_all st listen_fd =
  let rec go () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (match st.cfg.addr with
        | P.Tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | P.Unix_socket _ -> ());
        st.conns <-
          {
            fd;
            dech = P.create_dechunker ();
            out = Buffer.create 256;
            sent = 0;
            alive = true;
            closing = false;
          }
          :: st.conns;
        Metrics.connection_opened st.metrics;
        Log.debug (fun m -> m "connection accepted (%d active)" (List.length st.conns));
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (ECONNABORTED, _, _) -> go ()
  in
  go ()

let log_final st ~now reason =
  let m =
    Metrics.snapshot st.metrics
      ~uptime_seconds:(now -. st.started)
      ~cache:(Circuit_cache.stats st.cache)
      ~store:(store_counters st)
  in
  Log.info (fun f ->
      f
        "drained (%s): accepted=%d completed=%d shed=%d deadline_expired=%d \
         eval_failures=%d slow_client_drops=%d pending=%d"
        reason m.P.accepted m.P.run_requests m.P.shed m.P.deadline_expired
        m.P.eval_failures m.P.slow_client_drops
        (Batcher.pending st.batcher));
  if st.cfg.profile_eval then
    Hashtbl.iter
      (fun key (p : Th.Packed.eval_profile) ->
        if Array.length p.Th.Packed.ep_level_ns > 0 then begin
        let total = Array.fold_left ( +. ) 0. p.Th.Packed.ep_level_ns in
        let hottest = ref 0 in
        Array.iteri
          (fun l ns ->
            if ns > p.Th.Packed.ep_level_ns.(!hottest) then hottest := l)
          p.Th.Packed.ep_level_ns;
        Log.app (fun f ->
            f
              "eval profile %s: %d batches, %d lanes, %.3f ms total \
               (hottest level %d at %.3f ms)"
              key p.Th.Packed.ep_batches p.Th.Packed.ep_lanes (total /. 1e6)
              !hottest
              (p.Th.Packed.ep_level_ns.(!hottest) /. 1e6))
        end)
      st.profiles

let rec loop st =
  let now = Clock.now () in
  if st.term_pending then begin
    st.term_pending <- false;
    begin_drain st ~now "SIGTERM"
  end;
  expire_deadlines st ~now;
  List.iter (fun (key, jobs) -> dispatch st ~key jobs) (Batcher.due st.batcher ~now);
  let flushed = List.for_all (fun c -> Buffer.length c.out = c.sent) st.conns in
  let drained =
    st.stopping && Batcher.pending st.batcher = 0 && flushed && st.quiet
  in
  if st.stopping && (drained || now >= st.stop_at) then
    log_final st ~now (if drained then "quiescent" else "grace expired")
  else begin
    let reads =
      (if st.stopping then [] else st.listen_fds)
      @ List.filter_map
          (fun c -> if c.closing then None else Some c.fd)
          st.conns
    in
    let writes =
      List.filter_map
        (fun c -> if Buffer.length c.out > c.sent then Some c.fd else None)
        st.conns
    in
    let timeout =
      if st.stopping then max 0.02 (min 0.25 (st.stop_at -. now))
      else begin
        let earliest =
          List.fold_left
            (fun acc d -> match d with Some d -> min acc d | None -> acc)
            infinity
            [ Batcher.next_deadline st.batcher;
              Timer_wheel.next_deadline st.wheel ]
        in
        if Batcher.pending st.batcher > 0 && st.cfg.flush_ms = 0. then
          0. (* adaptive mode: flush as soon as input drains *)
        else if earliest = infinity then -1.
        else max 0. (earliest -. now)
      end
    in
    let r, w, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c -> if List.mem c.fd w then flush_conn st c)
      (List.filter (fun c -> c.alive) st.conns);
    let read_activity = ref false in
    if not st.stopping then
      List.iter
        (fun fd -> if List.mem fd r then accept_all st fd)
        st.listen_fds;
    List.iter
      (fun c ->
        if c.alive && List.mem c.fd r then begin
          read_activity := true;
          read_conn st c ~now
        end)
      st.conns;
    st.quiet <- not !read_activity;
    if
      Batcher.pending st.batcher > 0
      && (st.cfg.flush_ms = 0. || st.stopping)
      && not !read_activity
    then
      List.iter
        (fun (key, jobs) -> dispatch st ~key jobs)
        (Batcher.drain st.batcher);
    loop st
  end

let bind cfg =
  let domain =
    match cfg.addr with P.Unix_socket _ -> Unix.PF_UNIX | P.Tcp _ -> Unix.PF_INET
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | P.Unix_socket path -> if Sys.file_exists path then Sys.remove path
  | P.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
  Unix.bind listen_fd (P.sockaddr_of_addr cfg.addr);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  (* Recover the kernel-assigned port so callers can bind port 0 and
     hand the real address to clients (no fixed-port collisions). *)
  let bound =
    match cfg.addr with
    | P.Unix_socket _ as a -> a
    | P.Tcp (host, _) -> (
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, port) -> P.Tcp (host, port)
        | _ -> cfg.addr)
  in
  (listen_fd, bound)

let serve_fds cfg listen_fds =
  if listen_fds = [] then invalid_arg "Server.serve_fds: no listening sockets";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let max_lanes = max 1 (min 62 cfg.max_lanes) in
  let started = Clock.now () in
  let store =
    match cfg.store with
    | None -> None
    | Some dir -> (
        match Tcmm_store.Store.create ~dir () with
        | Ok s -> Some s
        | Error msg ->
            Log.err (fun m ->
                m "artifact store disabled: could not open %s: %s" dir msg);
            None)
  in
  let st =
    {
      cfg;
      listen_fds;
      conns = [];
      cache =
        Circuit_cache.create ?store ~capacity:(max 1 cfg.cache_capacity) ();
      batcher = Batcher.create ~max_lanes ~flush_ms:cfg.flush_ms ();
      wheel = Timer_wheel.create ~now:started ();
      metrics = Metrics.create ~worker_id:cfg.worker_id ~max_lanes ();
      ws = Th.Packed.workspace ();
      profiles = Hashtbl.create 8;
      stopping = false;
      stop_at = infinity;
      quiet = false;
      term_pending = false;
      started;
      read_buf = Bytes.create 65536;
      sessions = Hashtbl.create 16;
      next_sid = 1;
      session_clock = 0;
    }
  in
  let prev_term =
    try
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> st.term_pending <- true)))
    with Invalid_argument _ -> None
  in
  Log.info (fun m ->
      m
        "%slistening on %a (cache %d, lanes %d, flush %gms, max_pending %d, \
         deadline %gms%s)"
        (if cfg.worker_id > 0 then Printf.sprintf "worker %d " cfg.worker_id
         else "")
        P.pp_addr cfg.addr (max 1 cfg.cache_capacity) max_lanes cfg.flush_ms
        cfg.max_pending cfg.deadline_ms
        (if List.length listen_fds > 1 then
           Printf.sprintf ", %d listen sockets" (List.length listen_fds)
         else ""));
  Fun.protect
    ~finally:(fun () ->
      (match prev_term with
      | Some b -> ( try Sys.set_signal Sys.sigterm b with Invalid_argument _ -> ())
      | None -> ());
      List.iter (fun c -> close_conn st c) st.conns;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listen_fds;
      (match cfg.addr with
      | P.Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
      | P.Tcp _ -> ());
      Log.info (fun m -> m "stopped"))
    (fun () -> loop st)

let serve_fd cfg listen_fd = serve_fds cfg [ listen_fd ]

let serve cfg =
  let listen_fd, addr = bind cfg in
  serve_fd { cfg with addr } listen_fd
