(** A small keyed LRU cache with hit/miss/eviction counters.

    Backs the serving daemon's [Circuit_cache], which keys whole built
    drivers by request spec.  Keys compare structurally.  Capacities
    are small (tens of entries), so the store is a
    most-recently-used-first association list — O(capacity) per lookup,
    which is noise next to the cost of compiling a circuit. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;  (** lookups that found nothing (counted by {!find} / {!find_or_add}) *)
  evictions : int;  (** entries dropped because the cache was full *)
  size : int;
  capacity : int;
}

val create : capacity:int -> unit -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used; counts a hit or a miss. *)

val find_or_add : ('k, 'v) t -> 'k -> create:(unit -> 'v) -> 'v
(** {!find}, or insert [create ()] (evicting the least-recently-used
    entry when full).  If [create] raises, nothing is inserted. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace without touching the hit/miss counters (a
    replacement is not an eviction; a capacity drop is). *)

val mem : ('k, 'v) t -> 'k -> bool
(** No counter or recency effect. *)

val stats : ('k, 'v) t -> stats
val clear : ('k, 'v) t -> unit
(** Drops all entries (not counted as evictions); counters survive. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Most-recently-used first. *)
