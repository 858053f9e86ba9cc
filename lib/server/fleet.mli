(** Multi-worker serving fleet: one supervisor, [K] forked workers.

    The supervisor binds the TCP front socket {e once} and forks [K]
    workers that inherit it — the kernel load-balances [accept] across
    the sleeping workers, so the fleet serves the same address a
    standalone daemon would ([--reuseport] swaps the shared socket for
    [K] [SO_REUSEPORT] sockets, one per worker, letting the kernel hash
    connections instead of waking accept queues).  Each worker is the
    {e whole} existing single-process {!Server} event loop — its own
    {!Circuit_cache}, batcher, deadlines and load shedding — plus a
    private spec-affinity endpoint the {!Client.Pool} router targets,
    all backed by one shared artifact store directory so a circuit
    compiled by any worker (or by [tcmm compile]) warms every other.

    Fleets are TCP-only: a worker endpoint must survive its process
    (the supervisor keeps the listening socket open across restarts),
    which a Unix-socket path unlinked at child exit cannot.

    {2 Supervision}

    The supervisor reaps crashed workers ([waitpid]/[WNOHANG]) and
    restarts them warm from the store — rate-limited to
    [restart_limit] restarts per [restart_window_s] so a deterministic
    crash loop downs the worker ([fw_alive = false] in the roster)
    instead of melting the machine.  SIGTERM (or a [Shutdown] control
    request) is propagated as a fleet-wide graceful drain: every worker
    runs its own quiescence drain, stragglers are SIGKILLed after the
    grace period, and the supervisor exits only once every child is
    reaped.

    {2 Control plane}

    A separate control socket answers {!Protocol} frames: [Fleet]
    returns the roster (worker ids, pids, endpoints, restart counts),
    [Metrics] fans out to every live worker and returns the
    {!aggregate} (summed counters, merged histograms, [worker_id = 0]),
    which is how `tcmm fleet-status` renders fleet-wide counters and
    how the chaos harness checks the accounting identity
    [accepted = run_requests + deadline_expired + eval_failures]
    {e summed over workers}. *)

type config = {
  server : Server.config;
      (** per-worker configuration; [server.addr] is the TCP front
          address the fleet serves (port 0 picks an ephemeral port) *)
  workers : int;  (** fleet size [K >= 1] *)
  reuseport : bool;
      (** [K] [SO_REUSEPORT] front sockets (one per worker) instead of
          one shared inherited socket *)
  control : Protocol.addr option;
      (** control-plane address; [None] binds an ephemeral TCP port on
          the front host (recover it from {!handle}'s [control_addr]) *)
  restart_limit : int;  (** crash restarts allowed per window *)
  restart_window_s : float;
}

val default_config : Server.config -> config
(** 2 workers, shared inherited socket, ephemeral control port, 5
    restarts per 30 s window. *)

type handle
(** Bound but not yet supervising: all sockets exist, no child does. *)

val bind : config -> handle
(** Bind the front socket(s), the control socket, and one spec-affinity
    endpoint per worker — every port is concrete after [bind], so a
    harness can bind in the parent, hand addresses to clients, and
    {!supervise} in a forked child with no startup race (the
    bind-then-fork pattern of {!Server.bind}).  Raises
    [Invalid_argument] on [workers < 1] or a Unix-socket front address,
    [Unix.Unix_error] when binding fails. *)

val front_addr : handle -> Protocol.addr
val control_addr : handle -> Protocol.addr

val endpoints : handle -> Protocol.addr list
(** Worker spec-affinity endpoints in worker order — the
    {!Client.Pool} construction list. *)

val roster : handle -> Protocol.fleet_worker list
(** Current roster snapshot (pids are 0 before {!supervise} forks). *)

val close_handle : handle -> unit
(** Close every supervisor-held socket — what the {e parent} calls
    after forking a child that runs {!supervise}. *)

val supervise : handle -> unit
(** Fork the workers and run the supervision loop until a drain
    completes (SIGTERM or a control-plane [Shutdown]).  Installs
    SIGTERM/SIGPIPE handlers for the duration; closes the handle on
    exit. *)

val run : config -> unit
(** [supervise (bind cfg)] — what `tcmm serve --workers K` calls. *)

val aggregate : Protocol.metrics list -> Protocol.metrics option
(** Fleet-wide rollup: counters summed, latency histograms merged
    bucket-wise (matching bounds) and occupancy padded to the widest
    worker, [uptime_seconds]/[max_lanes] maxed, [worker_id] forced to 0
    (the supervisor-side aggregate).  [None] on the empty list.  The
    PR 5 accounting identity is preserved by summation: if every worker
    satisfies [accepted = run_requests + deadline_expired +
    eval_failures] at quiescence, so does the aggregate. *)
