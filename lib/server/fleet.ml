module P = Protocol
module Clock = Tcmm_util.Clock

let src = Logs.Src.create "tcmm.fleet" ~doc:"tcmm serving fleet supervisor"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  server : Server.config;
  workers : int;
  reuseport : bool;
  control : P.addr option;
  restart_limit : int;
  restart_window_s : float;
}

let default_config server =
  {
    server;
    workers = 2;
    reuseport = false;
    control = None;
    restart_limit = 5;
    restart_window_s = 30.;
  }

type worker = {
  id : int;
  endpoint : P.addr;
  endpoint_fd : Unix.file_descr;
      (* supervisor-held listening socket for the worker's spec-affinity
         endpoint; kept open across crashes so a restarted worker
         re-inherits the same port and no client ever sees the shard
         endpoint vanish *)
  front_fd : Unix.file_descr;
      (* the front socket this worker accepts on: the single shared
         inherited socket, or its own SO_REUSEPORT one *)
  mutable pid : int;
  mutable restarts : int;
  mutable restart_times : float list;
  mutable alive : bool;
}

type handle = {
  cfg : config;
  front_fds : Unix.file_descr list;
  front_addr : P.addr;
  control_fd : Unix.file_descr;
  control_addr : P.addr;
  workers : worker array;
}

let tcp_host = function
  | P.Tcp (host, _) -> host
  | P.Unix_socket _ ->
      invalid_arg "Fleet: front address must be TCP (host:port)"

(* ------------------------------------------------------------------ *)
(* Binding                                                            *)
(* ------------------------------------------------------------------ *)

let bind_reuseport_front ~host ~port ~workers =
  let bind_one addr =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.setsockopt fd Unix.SO_REUSEPORT true;
       Unix.bind fd (P.sockaddr_of_addr addr);
       Unix.listen fd 64;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  in
  (* Bind the first socket (possibly port 0), recover the kernel port,
     then bind the siblings to the concrete port so the kernel hashes
     incoming connections across all of them. *)
  let first = bind_one (P.Tcp (host, port)) in
  let bound_port =
    match Unix.getsockname first with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let rest =
    List.init (workers - 1) (fun _ -> bind_one (P.Tcp (host, bound_port)))
  in
  (first :: rest, P.Tcp (host, bound_port))

let bind (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Fleet.bind: workers < 1";
  let host = tcp_host cfg.server.Server.addr in
  let front_fds, front_addr =
    if cfg.reuseport then
      let port =
        match cfg.server.Server.addr with P.Tcp (_, p) -> p | _ -> 0
      in
      bind_reuseport_front ~host ~port ~workers:cfg.workers
    else
      let fd, addr = Server.bind cfg.server in
      ([ fd ], addr)
  in
  let cleanup fds =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
  in
  try
    let control_addr =
      match cfg.control with Some a -> a | None -> P.Tcp (host, 0)
    in
    let control_fd, control_addr =
      Server.bind { cfg.server with Server.addr = control_addr }
    in
    (try
       let workers =
         Array.init cfg.workers (fun i ->
             let endpoint_fd, endpoint =
               Server.bind { cfg.server with Server.addr = P.Tcp (host, 0) }
             in
             let front_fd =
               if cfg.reuseport then List.nth front_fds i
               else List.hd front_fds
             in
             {
               id = i + 1;
               endpoint;
               endpoint_fd;
               front_fd;
               pid = 0;
               restarts = 0;
               restart_times = [];
               alive = true;
             })
       in
       { cfg; front_fds; front_addr; control_fd; control_addr; workers }
     with e ->
       cleanup [ control_fd ];
       raise e)
  with e ->
    cleanup front_fds;
    raise e

let front_addr (handle : handle) = handle.front_addr
let control_addr (handle : handle) = handle.control_addr

let roster (handle : handle) =
  Array.to_list
    (Array.map
       (fun w ->
         {
           P.fw_id = w.id;
           fw_pid = w.pid;
           fw_addr = P.addr_string w.endpoint;
           fw_restarts = w.restarts;
           fw_alive = w.alive;
         })
       handle.workers)

let endpoints (handle : handle) =
  Array.to_list (Array.map (fun w -> w.endpoint) handle.workers)

let close_handle (handle : handle) =
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  List.iter close handle.front_fds;
  close handle.control_fd;
  Array.iter (fun w -> close w.endpoint_fd) handle.workers

(* ------------------------------------------------------------------ *)
(* Metrics aggregation                                                *)
(* ------------------------------------------------------------------ *)

let add_cache (a : P.cache_stats) (b : P.cache_stats) =
  {
    P.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
    capacity = a.capacity + b.capacity;
  }

let add_histogram (a : P.histogram) (b : P.histogram) =
  if a.P.bounds <> b.P.bounds || Array.length a.counts <> Array.length b.counts
  then if a.count >= b.count then a else b
  else
    {
      a with
      P.counts = Array.map2 ( + ) a.counts b.counts;
      sum = a.sum +. b.sum;
      count = a.count + b.count;
    }

let add_occupancy a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      (if i < Array.length a then a.(i) else 0)
      + if i < Array.length b then b.(i) else 0)

let add_metrics (a : P.metrics) (b : P.metrics) =
  {
    P.uptime_seconds = Float.max a.uptime_seconds b.uptime_seconds;
    connections_accepted = a.connections_accepted + b.connections_accepted;
    connections_active = a.connections_active + b.connections_active;
    requests_total = a.requests_total + b.requests_total;
    run_requests = a.run_requests + b.run_requests;
    errors = a.errors + b.errors;
    batches = a.batches + b.batches;
    lanes = a.lanes + b.lanes;
    max_lanes = max a.max_lanes b.max_lanes;
    occupancy = add_occupancy a.occupancy b.occupancy;
    latency_ms = add_histogram a.latency_ms b.latency_ms;
    firings_total = a.firings_total + b.firings_total;
    eval_seconds = a.eval_seconds +. b.eval_seconds;
    build_seconds = a.build_seconds +. b.build_seconds;
    cache = add_cache a.cache b.cache;
    accepted = a.accepted + b.accepted;
    shed = a.shed + b.shed;
    deadline_expired = a.deadline_expired + b.deadline_expired;
    eval_failures = a.eval_failures + b.eval_failures;
    slow_client_drops = a.slow_client_drops + b.slow_client_drops;
    kernel_gates = a.kernel_gates + b.kernel_gates;
    fallback_gates = a.fallback_gates + b.fallback_gates;
    store_loads = a.store_loads + b.store_loads;
    store_saves = a.store_saves + b.store_saves;
    store_invalid = a.store_invalid + b.store_invalid;
    worker_id = 0;
    sessions_opened = a.sessions_opened + b.sessions_opened;
    sessions_active = a.sessions_active + b.sessions_active;
    sessions_evicted = a.sessions_evicted + b.sessions_evicted;
    session_updates = a.session_updates + b.session_updates;
    session_dirty_gates = a.session_dirty_gates + b.session_dirty_gates;
    session_gates = a.session_gates + b.session_gates;
  }

let aggregate = function
  | [] -> None
  | m :: rest -> Some { (List.fold_left add_metrics m rest) with P.worker_id = 0 }

(* ------------------------------------------------------------------ *)
(* Forking workers                                                    *)
(* ------------------------------------------------------------------ *)

(* Fleet-wide counters the supervisor folds into its own log lines. *)
type stats = { mutable forks : int; mutable crash_restarts : int }

let worker_policy =
  (* Control-plane fan-out: short deadline, one retry — a dead worker
     must not stall a [Metrics] aggregation behind a long backoff. *)
  {
    Client.attempts = 2;
    timeout_ms = 2000.;
    base_delay_ms = 10.;
    max_delay_ms = 50.;
  }

let fork_worker ~extra_fds handle stats w =
  stats.forks <- stats.forks + 1;
  match Unix.fork () with
  | 0 ->
      (* Child: keep only this worker's two listening sockets; close
         the supervisor's control plane, any open control connections,
         and every sibling's sockets — cloexec does not help across
         [fork], and a crashed sibling's endpoint must not stay half
         alive inside us. *)
      let keep fd = fd = w.front_fd || fd = w.endpoint_fd in
      let close fd =
        if not (keep fd) then try Unix.close fd with Unix.Unix_error _ -> ()
      in
      close handle.control_fd;
      List.iter close extra_fds;
      List.iter close handle.front_fds;
      Array.iter
        (fun w' -> if w'.id <> w.id then close w'.endpoint_fd)
        handle.workers;
      let code =
        try
          Server.serve_fds
            {
              handle.cfg.server with
              Server.addr = w.endpoint;
              worker_id = w.id;
            }
            [ w.front_fd; w.endpoint_fd ];
          0
        with e ->
          Log.err (fun m ->
              m "worker %d died: %s" w.id (Printexc.to_string e));
          1
      in
      Stdlib.exit code
  | pid ->
      w.pid <- pid;
      Log.info (fun m ->
          m "worker %d: pid %d serving %a" w.id pid P.pp_addr w.endpoint)

(* ------------------------------------------------------------------ *)
(* Supervision                                                        *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; dec : P.dechunker }

type sup = {
  handle : handle;
  stats : stats;
  mutable conns : conn list;
  mutable stopping : bool;
}

let close_conn sup c =
  sup.conns <- List.filter (fun c' -> c'.fd != c.fd) sup.conns;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let conn_fds sup = List.map (fun c -> c.fd) sup.conns

(* Restart policy: a worker that crashed more than [restart_limit]
   times inside [restart_window_s] stays down ([fw_alive = false] in
   the roster) — a deterministic crash loop must not melt the machine.
   Restarts are warm: the artifact store (shared dir) and the
   supervisor-held listening sockets survive the corpse. *)
let restart_allowed cfg w ~now =
  w.restart_times <-
    List.filter (fun t -> now -. t <= cfg.restart_window_s) w.restart_times;
  List.length w.restart_times < cfg.restart_limit

let reap_and_restart sup =
  let handle = sup.handle in
  Array.iter
    (fun w ->
      if w.alive && w.pid > 0 then
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ -> ()
        | _, status ->
            let now = Clock.now () in
            Log.warn (fun m ->
                m "worker %d (pid %d) exited %s" w.id w.pid
                  (match status with
                  | Unix.WEXITED c -> Printf.sprintf "with code %d" c
                  | Unix.WSIGNALED s -> Printf.sprintf "on signal %d" s
                  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s));
            w.pid <- 0;
            if sup.stopping then ()
            else if restart_allowed handle.cfg w ~now then (
              w.restart_times <- now :: w.restart_times;
              w.restarts <- w.restarts + 1;
              sup.stats.crash_restarts <- sup.stats.crash_restarts + 1;
              fork_worker ~extra_fds:(conn_fds sup) handle sup.stats w)
            else (
              w.alive <- false;
              Log.err (fun m ->
                  m "worker %d: restart budget exhausted (%d in %gs), leaving down"
                    w.id handle.cfg.restart_limit handle.cfg.restart_window_s))
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> w.pid <- 0)
    handle.workers

let live_pids (handle : handle) =
  Array.to_list handle.workers
  |> List.filter_map (fun w -> if w.pid > 0 then Some w else None)

(* Fleet-wide graceful drain: forward SIGTERM so every worker runs its
   own drain (stop admitting, serve what's queued, answer, exit), wait
   out the worker grace period plus slack, then SIGKILL stragglers so
   the supervisor itself always terminates. *)
let drain sup =
  let handle = sup.handle in
  sup.stopping <- true;
  let victims = live_pids handle in
  Log.info (fun m ->
      m "draining fleet: SIGTERM to %d worker(s)" (List.length victims));
  List.iter
    (fun w ->
      try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ())
    victims;
  let deadline = Clock.now () +. handle.cfg.server.Server.grace_s +. 2. in
  let rec wait () =
    let remaining = live_pids handle in
    if remaining = [] then ()
    else if Clock.now () > deadline then (
      List.iter
        (fun w ->
          Log.warn (fun m -> m "worker %d: grace expired, SIGKILL" w.id);
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] w.pid)
           with Unix.Unix_error _ -> ());
          w.pid <- 0)
        remaining)
    else (
      reap_and_restart sup;
      if live_pids handle <> [] then Unix.sleepf 0.02;
      wait ())
  in
  wait ()

let fleet_metrics (handle : handle) =
  let live =
    Array.to_list handle.workers
    |> List.filter_map (fun w ->
           if not w.alive then None
           else
             match
               Client.call ~policy:worker_policy ~seed:w.id w.endpoint
                 P.Metrics
             with
             | Ok (P.Metrics_result m) -> Some m
             | Ok _ | Error _ -> None)
  in
  aggregate live

let handle_control_request sup req =
  match req with
  | P.Ping -> Some P.Pong
  | P.Fleet -> Some (P.Fleet_result (roster sup.handle))
  | P.Metrics -> (
      match fleet_metrics sup.handle with
      | Some m -> Some (P.Metrics_result m)
      | None -> Some (P.Error "fleet: no worker answered metrics"))
  | P.Shutdown ->
      sup.stopping <- true;
      Some P.Shutting_down
  | _ ->
      Some
        (P.Error
           "fleet control socket: only ping / fleet / metrics / shutdown")

let pump_conn sup buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn sup c
  | 0 -> close_conn sup c
  | n ->
      P.feed c.dec buf 0 n;
      let rec frames () =
        match P.next_frame c.dec with
        | `More -> ()
        | `Corrupt msg ->
            Log.warn (fun m -> m "control connection: %s" msg);
            close_conn sup c
        | `Frame payload ->
            (match P.decode_request payload with
            | Error msg ->
                (try
                   P.write_frame c.fd (P.encode_response (P.Error msg))
                 with _ -> close_conn sup c)
            | Ok req -> (
                match handle_control_request sup req with
                | None -> ()
                | Some resp -> (
                    try P.write_frame c.fd (P.encode_response resp)
                    with _ -> close_conn sup c)));
            if List.memq c sup.conns then frames ()
      in
      frames ()

let term_flag = ref false

let supervise (handle : handle) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  term_flag := false;
  let prev_term =
    try
      Some
        (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term_flag := true)))
    with Invalid_argument _ -> None
  in
  let sup =
    {
      handle;
      stats = { forks = 0; crash_restarts = 0 };
      conns = [];
      stopping = false;
    }
  in
  let buf = Bytes.create 65536 in
  Log.info (fun m ->
      m "fleet: %d worker(s) on %a (%s front, control %a)"
        handle.cfg.workers P.pp_addr handle.front_addr
        (if handle.cfg.reuseport then "SO_REUSEPORT" else "inherited-socket")
        P.pp_addr handle.control_addr);
  Fun.protect
    ~finally:(fun () ->
      (match prev_term with
      | Some b -> (
          try Sys.set_signal Sys.sigterm b with Invalid_argument _ -> ())
      | None -> ());
      List.iter (fun c -> close_conn sup c) sup.conns;
      close_handle handle;
      Log.info (fun m ->
          m "fleet stopped (%d fork(s), %d crash restart(s))" sup.stats.forks
            sup.stats.crash_restarts))
    (fun () ->
      Array.iter
        (fun w -> fork_worker ~extra_fds:[] handle sup.stats w)
        handle.workers;
      while not sup.stopping do
        if !term_flag then sup.stopping <- true
        else begin
          reap_and_restart sup;
          let reads = handle.control_fd :: conn_fds sup in
          (match Unix.select reads [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | r, _, _ ->
              if List.mem handle.control_fd r then
                (let rec accept_all () =
                   match Unix.accept ~cloexec:true handle.control_fd with
                   | exception
                       Unix.Unix_error
                         ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                     ->
                       ()
                   | fd, _ ->
                       Unix.set_nonblock fd;
                       sup.conns <-
                         { fd; dec = P.create_dechunker () } :: sup.conns;
                       accept_all ()
                 in
                 accept_all ());
              List.iter
                (fun c -> if List.mem c.fd r then pump_conn sup buf c)
                sup.conns)
        end
      done;
      drain sup)

let run cfg = supervise (bind cfg)
