(** Engine selection glue for circuit drivers.

    The drivers in [lib/core] route every evaluation through {!run}, so
    callers pick the evaluator with a [?engine] argument
    ({!Simulator.Packed} by default) without the driver re-compiling the
    packed form on every call.  All engines return bit-identical
    {!Simulator.result}s.

    Compiled forms are memoized in a keyed LRU ({!Tcmm_util.Lru}) keyed
    by physical circuit identity, so one cache may serve many circuits:
    alternating between two circuits through the same cache compiles
    each exactly once.  The drivers all use the process-wide {!shared}
    cache; {!create_cache} builds a private one (the serving daemon's
    worker and the tests do this to isolate their counters). *)

type cache
(** A keyed LRU of {!Packed.t} compiled forms, keyed by circuit
    ([==] identity), with hit/miss/eviction counters. *)

val create_cache : ?capacity:int -> unit -> cache
(** [capacity] defaults to 16 compiled circuits.  Raises
    [Invalid_argument] when [capacity < 1]. *)

val shared : unit -> cache
(** The process-wide cache (capacity 32) used by the [lib/core]
    drivers. *)

val packed : cache -> Circuit.t -> Packed.t
(** The compiled form of the circuit, compiling it on first use and
    promoting it to most-recently-used on every call. *)

val stats : cache -> Tcmm_util.Lru.stats
(** Hit/miss/eviction counters — the serving daemon's metrics and the
    alternation regression tests read these. *)

val run :
  ?engine:Simulator.engine -> cache -> Circuit.t -> bool array -> Simulator.result
(** Evaluate one input vector with the chosen engine (default
    {!Simulator.Packed}).  Neither engine checks for overflow: the
    packed form proves when it compiles that no sum can wrap, and
    refuses a circuit past that bound (see {!Packed}).  For checked
    reference evaluation call {!Simulator.run} with [~check:true]. *)

val run_batch : cache -> Circuit.t -> bool array array -> Packed.batch_result
(** Batched evaluation (always the packed engine — the reference
    interpreter has no batched mode). *)
