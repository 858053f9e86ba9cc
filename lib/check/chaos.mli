(** Chaos and soak harness for the serving stack.

    Drives real forked [Tcmm_server.Server] processes over loopback TCP
    while injecting transport faults {e below} the client library —
    truncated frames, single-bit payload corruption, mid-frame stalls,
    connection resets, swapped pipelined frames — plus process-level
    faults: a mid-soak [SIGKILL]-and-restart and a [SIGTERM] drain with
    an in-flight burst.  Three segments run in sequence:

    + {b Fault soak}: [requests] matmul requests, each independently
      faulted with probability [fault_rate]; one kill-and-restart at the
      midpoint; finishes with a quiescent metrics-accounting check and a
      SIGTERM drain whose exit is watchdog-enforced.
    + {b Overload}: a single-write pipelined burst against
      [max_pending = 8]; sheds must interleave with completions, every
      completed product must multiset-match a request, and every shed
      request must complete on sequential re-issue.
    + {b Deadline}: lone requests against [flush_ms >> deadline_ms] must
      expire with {!Tcmm_server.Protocol.Deadline_exceeded}; a
      batch-filling burst must dispatch and complete bit-exactly.

    With [workers > 1], {!run} instead soaks a forked
    {!Tcmm_server.Fleet} supervisor: requests route through the
    spec-affinity {!Tcmm_server.Client.Pool} over the fleet's worker
    endpoints while random workers are SIGKILLed at [fault_rate]
    (including one mid-pipelined-burst), and the run ends with the
    fleet-wide accounting checks — summed worker metrics and the
    control-plane aggregate both satisfying
    [accepted = run_requests + deadline_expired + eval_failures] — and
    a supervisor SIGTERM drain.

    The harness asserts, for every request it ever sends: the reply is
    either bit-identical to {!Tcmm.Matmul_circuit.run} on the decoded
    request, or a {e typed} failure — never a hang (every read is
    deadline-bounded) and never a silent loss (client-side conservation
    [sent = completed + typed failures] is checked at the end).

    Everything is driven by one seeded {!Tcmm_util.Prng} stream, so a
    failing run is reproducible from its seed. *)

type outcome = {
  seed : int;
  requests : int;  (** logical requests issued across all segments *)
  completed : int;  (** answered with a result *)
  verified : int;  (** completed responses checked bit-identical to the oracle *)
  typed_failures : int;  (** requests resolved by a typed client failure *)
  watchdog_timeouts : int;  (** reads cut off by the client watchdog *)
  faults_injected : int;
  per_fault : (string * int) list;  (** injection count per fault kind *)
  shed_observed : int;  (** [Overloaded] replies in the overload segment *)
  expired_observed : int;  (** [Deadline_exceeded] replies in the deadline segment *)
  retried_ok : int;  (** requests completed only after bounded retry *)
  drained_ok : bool;  (** SIGTERM drain answered the whole in-flight burst *)
  accounting_ok : bool;  (** server metrics account for every admitted request *)
  store_saves : int;  (** artifacts the store segment's first life persisted *)
  store_loads : int;  (** warm loads after the store segment's SIGKILL restart *)
  store_zero_rebuilds : bool;
      (** the restarted server served every miss from the store — zero
          builds in its second life *)
  fleet_workers : int;  (** fleet size of the fleet segment; 0 = not run *)
  fleet_kills : int;  (** fleet workers SIGKILLed mid-soak *)
  fleet_restarts : int;
      (** supervisor crash-restarts in the final roster; in a clean run
          [1 <= fleet_restarts <= fleet_kills] whenever a kill landed *)
  violations : string list;  (** empty iff the soak found no robustness bug *)
}

val run :
  ?seed:int ->
  ?requests:int ->
  ?fault_rate:float ->
  ?workers:int ->
  unit ->
  outcome
(** [run ()] executes the single-daemon segments (defaults: [seed = 1],
    [requests = 200], [fault_rate = 0.25], [workers = 1]); [workers > 1]
    runs the fleet segment instead, with [fault_rate] reinterpreted as
    the per-request worker-SIGKILL probability.  Never raises on a
    server misbehaviour — those become [violations]. *)

val ok : outcome -> bool
(** [ok o] iff [o.violations = []]. *)

val print_report : outcome -> unit
(** Aligned table of counters, then any violations, then a final
    [OK]/[FAILED] line. *)

val to_json : outcome -> string
(** Single JSON object mirroring {!outcome}, for CI artifacts. *)
