(** Serving instrumentation: counters, the per-request latency
    histogram, and the batch-occupancy histogram.

    One value lives in the server; every dispatch and reply feeds it,
    and the [Metrics] request serializes a {!Protocol.metrics} snapshot
    of it. *)

type t

val create : ?worker_id:int -> max_lanes:int -> unit -> t
(** [max_lanes] sizes the occupancy histogram; [worker_id] (default 0 =
    standalone) stamps every snapshot with the fleet identity. *)

val latency_bounds : float array
(** The latency histogram's bucket upper bounds, in milliseconds. *)

val connection_opened : t -> unit
val connection_closed : t -> unit
val request : t -> unit
val error : t -> unit
val observe_build : t -> seconds:float -> unit

val observe_coverage : t -> kernel_gates:int -> fallback_gates:int -> unit
(** The kernel coverage of one circuit made resident by a cache miss,
    built or loaded from the artifact store ({!Circuit_cache.entry}'s
    [coverage] field); totals feed the [metrics] response's coverage
    fraction. *)

val observe_batch : t -> lanes:int -> firings:int -> seconds:float -> unit
(** One coalesced dispatch: lanes it carried, summed firings of those
    lanes, evaluation wall-clock. *)

val observe_latency : t -> seconds:float -> unit
(** One run request's enqueue-to-reply latency. *)

(** {2 Robustness accounting}

    Every run request the daemon admits is eventually counted exactly
    once as completed ([observe_batch] lanes), [deadline_expired], or
    [eval_failure]; refused requests count as [shed].  The chaos soak
    asserts this identity over the final snapshot. *)

(** {2 Streaming sessions}

    Accounting for the stateful dirty-cone sessions: the
    gauge [sessions_active] tracks opens minus closes minus LRU
    evictions, and [session_update] accumulates the incremental work
    ratio's numerator ([dirty_gates] re-examined) and denominator
    ([gates] a from-scratch sweep would have visited). *)

val session_opened : t -> unit
val session_closed : t -> unit
val session_evicted : t -> unit
val session_update : t -> dirty_gates:int -> gates:int -> unit

val accepted : t -> unit
val shed : t -> unit
val deadline_expired : t -> unit
val eval_failure : t -> unit
val slow_client_drop : t -> unit

val snapshot :
  t ->
  uptime_seconds:float ->
  cache:Tcmm_util.Lru.stats ->
  store:int * int * int ->
  Protocol.metrics
(** [store] is the artifact store's [(loads, saves, invalid)] counter
    triple ([(0, 0, 0)] when no store is attached) — sampled at
    snapshot time from {!Tcmm_store.Store.counters} rather than
    mirrored into [t]. *)
