(** The `tcmm serve` daemon: a single-process event loop serving
    compiled threshold circuits over Unix or TCP sockets.

    Requests arrive as {!Protocol} frames.  [compile] / [stats] answer
    synchronously from the spec-keyed {!Circuit_cache}; [run] requests
    are encoded to input vectors immediately but answered through the
    coalescing {!Batcher} — concurrent (or pipelined) runs against the
    same circuit are evaluated together by
    {!Tcmm_threshold.Packed.run_batch}, up to 62 bit-packed lanes per
    traversal, which is where serving throughput beats
    one-request-per-run (the E18 bench quantifies it).

    Dispatch policy: a batch launches when it fills ([max_lanes]
    lanes), when its flush deadline expires ([flush_ms > 0]), or — in
    the default adaptive mode ([flush_ms = 0]) — as soon as the event
    loop finds no more input to read, so an idle single client never
    waits on a timer while a pipelined burst still coalesces.

    {2 Robustness}

    Overload and failure are answered, never dropped:
    - {b Load shedding}: with [max_pending > 0], a run request arriving
      at a full queue is refused with [Overloaded] in constant time.
    - {b Deadlines}: with [deadline_ms > 0], each admitted run is armed
      on a {!Timer_wheel}; a job still queued past its deadline is
      answered [Deadline_exceeded] and reaped from the batcher.
    - {b Slow clients}: a peer that stops draining its replies past
      [max_backlog] buffered bytes is disconnected (counted in
      metrics), so one stalled reader cannot hold the daemon's memory.
    - {b Supervised evaluation}: an exception escaping a batched
      evaluation fails that batch's lanes with [Error] replies; the
      daemon keeps serving.
    - {b Graceful drain}: a [Shutdown] request or SIGTERM stops
      admitting connections but keeps serving what existing
      connections already sent, then exits once quiescent (queue
      empty, replies flushed, no read activity) or after [grace_s].
      Final metrics satisfy
      [accepted = completed + deadline_expired + eval_failures]. *)

type config = {
  addr : Protocol.addr;
  cache_capacity : int;  (** circuit-cache entries kept resident *)
  flush_ms : float;  (** batch flush deadline; [0.] = adaptive (see above) *)
  max_lanes : int;  (** lanes per batch, clamped to [1 .. 62] *)
  profile_build : bool;
      (** log the per-miss construct / lower phase breakdown at [App]
          level (always available at [Info]) *)
  profile_eval : bool;
      (** accumulate a per-circuit {!Tcmm_threshold.Packed.eval_profile}
          across dispatches and log each circuit's per-level summary at
          [App] level when the daemon drains *)
  max_pending : int;
      (** queued-run cap before shedding with [Overloaded]; [0] =
          unbounded (default) *)
  deadline_ms : float;
      (** per-request deadline from admission to dispatch; [0.] = none
          (default) *)
  grace_s : float;  (** drain grace period after [Shutdown] / SIGTERM *)
  max_backlog : int;
      (** per-connection write-buffer cap in bytes before the peer is
          dropped as a slow client *)
  store : string option;
      (** artifact directory for the persistent circuit tier
          ({!Tcmm_store.Store}): cache misses read through it before
          building and fresh builds are persisted behind; [None]
          (default) disables the tier.  An unopenable directory logs an
          error and serves without the store. *)
  worker_id : int;
      (** fleet identity stamped into the metrics snapshot; [0]
          (default) = standalone, {!Fleet} workers are numbered from
          1.  Purely informational for a standalone daemon. *)
  max_sessions : int;
      (** resident streaming-session cap; opening a
          session past it evicts the least-recently-updated one
          (counted in [metrics.sessions_evicted]).  Each session pins a
          full wire-value image plus per-gate cached sums, hence the
          cap.  Clamped to at least 1. *)
}

val default_config : Protocol.addr -> config
(** capacity 8, adaptive flush, 62 lanes, profiling off, no pending cap, no deadline, 5 s grace, 64 MiB
    backlog cap, no artifact store, worker id 0, 16 sessions. *)

val bind : config -> Unix.file_descr * Protocol.addr
(** Create, bind and listen the server socket without serving.  The
    returned address is the {e actual} bound address: binding
    [Tcp (host, 0)] resolves the kernel-assigned ephemeral port, which
    is how tests and harnesses avoid fixed-port collisions — bind in
    the parent, pass the address to the client, serve the fd in the
    child.  An existing Unix socket file at the address is replaced.
    Raises [Unix.Unix_error] when binding fails. *)

val serve_fd : config -> Unix.file_descr -> unit
(** Serve an already-bound listening socket (from {!bind}) until
    drained; [config.addr] should be the address {!bind} returned (it
    is logged and, for Unix sockets, unlinked on exit).  Installs a
    SIGTERM handler for the duration (restored on exit). *)

val serve_fds : config -> Unix.file_descr list -> unit
(** Like {!serve_fd} but accepting on several listening sockets at
    once — a fleet worker serves both the supervisor's shared front
    socket (inherited across [fork], kernel-balanced accepts) and its
    own spec-affinity endpoint.  All sockets close on exit.  Raises
    [Invalid_argument] on an empty list. *)

val serve : config -> unit
(** [bind] then [serve_fd]. *)
