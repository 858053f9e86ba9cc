(** Spec-keyed LRU of compiled circuits for the serving daemon.

    Building a circuit (driver build + packed compilation) is the
    expensive part of serving — seconds for the N=16 flagship circuits —
    so the daemon keeps whole built drivers resident, keyed by the
    request {!Protocol.spec} ((kind, algorithm, schedule, d, n,
    entry_bits, signed, tau)).  Backed by {!Tcmm_util.Lru}, so hit /
    miss / eviction counters come for free and feed the [metrics]
    response.

    Misses build through the template-stamping [Direct] path: repeated
    block shapes are hash-consed and stamped by offset arithmetic, and
    the arena lowers straight to the packed CSR form with kernel
    dispatch, without expanding a per-gate {!Tcmm_threshold.Circuit.t}
    (the driver's [circuit] accessor does that, if ever needed). *)

type compiled =
  | Matmul of Tcmm.Matmul_circuit.built
  | Trace of Tcmm.Trace_circuit.built
      (** serves both [Trace] and [Triangles] specs (the latter with the
          threshold scaled to [6 * tau]) *)
  | Stored of Tcmm_store.Artifact.io
      (** loaded from an artifact: no driver value, just the packed
          circuit plus the I/O descriptor the artifact header carried *)

type source =
  | Fresh  (** entered the cache by building *)
  | Warm  (** entered the cache from the artifact store *)

type entry = {
  spec : Protocol.spec;
  compiled : compiled;
  packed : Tcmm_threshold.Packed.t;
  coverage : Tcmm_threshold.Packed.coverage;
      (** kernel vs generic-fallback gate/segment counts of [packed]
          (all-fallback only for an artifact written without kernels) *)
  stats : Tcmm_threshold.Stats.t;
      (** structural stats — computed for fresh builds, recovered from
          the artifact header for warm loads *)
  source : source;
  build_seconds : float;
      (** cost of making the entry resident on {!Tcmm_util.Clock}:
          build + pack for [Fresh] entries, artifact load for [Warm]
          ones *)
  construct_seconds : float;  (** driver build (stamping); 0 for [Warm] *)
  lower_seconds : float;  (** packed lowering, or the artifact load *)
}

val io : entry -> Tcmm_store.Artifact.io
(** How to feed and read the entry's circuit: its input layouts and
    output representation.  Fresh and store-loaded entries answer
    alike — the artifact header persists exactly this — so the server
    encodes requests and decodes replies through it alone. *)

type outcome =
  | Cached  (** LRU hit *)
  | Built  (** miss, compiled from scratch *)
  | Loaded  (** miss, recovered from the artifact store *)

type t

val create : ?store:Tcmm_store.Store.t -> capacity:int -> unit -> t
(** [store] adds a persistent tier under the LRU: misses read through
    it before building and write fresh builds behind
    ({!Tcmm_store.Store}).  Raises [Invalid_argument] when
    [capacity < 1]. *)

val store : t -> Tcmm_store.Store.t option

val key : Protocol.spec -> string
(** The canonical cache key (also the {!Batcher} coalescing key).
    Matmul and conv specs key as one "matmul" entry with tau printed as
    0: their circuit ignores tau, so specs that differ only in it share
    an entry and a stored artifact. *)

val find_or_build :
  t -> Protocol.spec -> (entry * outcome, string) result
(** The entry for a spec: an LRU hit, an artifact-store load, or a
    fresh build (persisted write-behind when a store is attached), in
    that order of preference.  [Error] on an invalid spec (unknown
    algorithm or schedule, bad dimensions, out-of-range parameters, or
    [kronpow = true], which names the removed Kronecker-power pass) —
    building never raises, and a corrupt artifact is quarantined and
    rebuilt, never surfaced.  Out-of-range and [kronpow] specs are
    refused before either lookup, so they are never answered from a
    resident or stored entry under the same {!key}. *)

val stats : t -> Tcmm_util.Lru.stats
