(** High-performance levelized evaluation of threshold circuits.

    {!Simulator.run} interprets one {!Gate.t} at a time, chasing a heap
    pointer per gate and re-reading shared input arrays once per gate.
    This module compiles a {!Circuit.t} into a flat CSR-style form and
    exploits two structural properties of the paper's constructions:

    - {b Levelization}: the builder tracks per-wire depths, so gates
      split into depth levels whose members are mutually independent.
      The evaluator walks level by level — the schedule a
      level-synchronous parallel machine (or a spiking chip) would use —
      which lets the batched evaluator below sweep a whole level per
      traversal.
    - {b Shared sums}: {!Builder.add_shared_gates} emits layers of gates
      that differ only in their threshold (Lemma 3.1's [2^k]-gate
      layers) and physically share one input/weight array.  Consecutive
      gates sharing arrays collapse into a {i segment} whose weighted
      sum is computed {b once}; with thresholds sorted ascending, the
      firing gates of a segment are a binary-searched prefix.  On the
      N=16 Strassen matmul circuit this turns 1.8G logical edge
      traversals into 7.3M pooled ones.

    All evaluators return {i bit-identical} [outputs], [firings] and
    [level_firings] to {!Simulator.run} (the property-test suite checks
    this exactly) — only the wire evaluation order differs, which is
    unobservable in the result.

    {b Arithmetic bound.}  None of them checks for overflow, because
    none can occur: every constructor ({!of_circuit}, {!of_arena},
    {!load}) proves that each segment's positive and negative weight
    mass (the sum of [|weight|] over its edges of that sign) fits a
    native int, and refuses the circuit otherwise.  Every sum an
    evaluator forms, partial sums included, is the weighted sum of a
    subset of one segment's edges, so it lies within those masses.
    The paper's circuits take [O(log N)]-bit entries and pass with room
    to spare; the widest served spec (signed 28-bit matmul entries)
    peaks at 61 bits. *)

type t
(** A compiled circuit. *)

val of_circuit : Circuit.t -> t
(** Compile.  Costs one pass over the gates plus one over the (deduped)
    edges; memory is proportional to the {i unique} edge storage, not
    the logical edge count.  Raises [Invalid_argument] on a circuit
    with more than [2^31] wires (wire ids are stored in 32 bits) or
    with a segment whose positive or negative weight mass exceeds
    [max_int] (see the arithmetic bound above). *)

val circuit : t -> Circuit.t
(** The per-gate view.  For {!of_circuit}-compiled values this is the
    original circuit; for {!of_arena}-compiled values it is materialized
    lazily on first call (Simulator / Validate / Export consumers only —
    the packed evaluators never force it). *)

val num_gates : t -> int

val num_levels : t -> int
(** Circuit depth: gates of depth [l+1] form level [l]. *)

val num_segments : t -> int
(** Number of shared-sum segments (= gate count when nothing is shared). *)

val pool_edges : t -> int
(** Size of the deduped edge pool — the per-vector edge work, as opposed
    to [Stats.edges] which counts logical edges. *)

val of_arena : ?kernels:bool -> Builder.arena -> t
(** Lower a [Builder Direct]-mode arena straight to the packed form,
    skipping the per-gate [Circuit.t] walk of {!of_circuit}: template
    instances replay their precomputed lowering plans by offset
    arithmetic, so the cost is proportional to the {i pooled} edge
    count, not the logical one.  The result is identical to
    [of_circuit] applied to the materialized circuit.  Raises
    [Invalid_argument], like {!of_circuit}, past [2^31] wires or past
    the weight-mass bound.

    [kernels] (default [true]) dispatches each template segment to its
    specialized batch evaluator ({!Kernel.compile}); [~kernels:false]
    forces the generic CSR loop everywhere — the generic arm of the
    kernel differential tests and benches.  Kernels change evaluation
    {i speed} only — outputs, firings and per-wire values stay
    bit-identical, which the differential suites check exhaustively. *)

(** Kernel coverage of a compiled circuit: how many gates (and
    segments) evaluate through a specialized kernel vs the generic
    fallback.  {!of_circuit}-compiled values are all-fallback. *)
type coverage = {
  kernel_gates : int;
  fallback_gates : int;
  kernel_segments : int;
  generic_segments : int;
}

val coverage : t -> coverage

val run : t -> bool array -> Simulator.result
(** [run t inputs] evaluates one input vector by the scalar level walk:
    one byte per wire, and each segment's sum taken one weight group at
    a time (a branch-free count of the group's set wires, then one
    multiply by its weight).  The result is bit-identical to
    [Simulator.run (circuit t) inputs] in every field. *)

(** {1 Incremental evaluation}

    Streaming workloads (a client holding a graph and sending edge
    flips) change a handful of input bits between evaluations.  A
    session keeps the full wire state of its last evaluation plus, per
    segment, the cached weighted sum, the firing cut, and the threshold
    bracket the sum must leave for the cut to move.  {!update}, one C
    call once the delta is validated, delta-adjusts the sums of every
    reading segment through the transposed (wire → reading edges) CSR
    index — a loop that keeps many state-line misses in flight — but
    queues only the segments whose sum crossed its bracket; the sweep
    then re-decides those level by level, propagating changed gate
    wires downward until no level queues anything further.  A segment's
    whole state is one 32-byte line.  Delta-adjusted sums stay within
    the segment's weight masses, like every other sum (see the
    arithmetic bound above).  Results are bit-identical to a
    from-scratch {!run} in [outputs], [firings] and [level_firings] —
    the differential fuzzer checks this on every intermediate state of
    random flip sequences. *)

type session
(** Mutable incremental-evaluation state over one compiled circuit.  A
    session must not be shared by concurrent updates.  Creating the
    first session on a [t] builds (and memoizes on [t]) the transposed
    fanout index — O(pool edges) once. *)

val session : t -> bool array -> session
(** [session t inputs] evaluates [inputs] from scratch and captures the
    state.  Raises [Invalid_argument] on a wrongly-sized input
    vector. *)

val update : session -> (int * bool) array -> Simulator.result
(** [update s delta] sets input wire [i] to [v] for each [(i, v)] of
    [delta] (entries equal to the current value are no-ops; duplicates
    apply in order) and propagates through the dirty cone.  The
    returned [values] buffer {b aliases} the session state — valid only
    until the next [update]; [outputs], [firings] and [level_firings]
    are fresh.  Raises [Invalid_argument] if an index is not an input
    wire; the whole delta is validated first, so a rejected one leaves
    the session unchanged. *)

val session_result : session -> Simulator.result
(** The current state as a result, without applying a delta (same
    aliasing as {!update}). *)

val session_inputs : session -> bool array
(** Copy of the session's current input bits. *)

(** Cumulative counters since session creation: how much of the circuit
    the updates actually re-decided — [su_dirty_gates] vs
    [su_updates * su_gates] is the dirty-gate ratio the server reports. *)
type session_stats = {
  su_updates : int;
  su_flips : int;  (** input bits that actually changed *)
  su_dirty_segments : int;
  su_dirty_gates : int;
  su_segments : int;  (** segments in the circuit *)
  su_gates : int;  (** gates in the circuit *)
}

val session_stats : session -> session_stats

(** {1 Batched evaluation}

    [run_batch] evaluates a whole batch of input vectors in {b one}
    traversal of the circuit metadata, however large the batch.  Lanes
    are bit-packed 62 to a machine word and wire values stored
    wire-major, so each edge costs one metadata read for {i all} lanes
    and the words of an edge are swept contiguously; template segments
    additionally dispatch to their specialized kernels (see
    {!of_arena}).  On the paper's circuits only ~8% of wires carry a 1,
    which is where the per-vector speedup over {!run} comes from.  This
    is the natural entry point for {!Energy.measure}, validation sweeps
    and randomized agreement testing.

    A batch of {b one} lane (a lone served request) skips the kernels,
    which would carry 61 empty lanes, and takes {!run}'s scalar level
    walk instead; results are bit-identical either way. *)

type batch_result

(** Accumulated per-level wall time (ns) plus batch/lane counters;
    pass one to {!run_batch} to fill it ([--profile-eval]). *)
type eval_profile = {
  mutable ep_batches : int;
  mutable ep_lanes : int;
  ep_level_ns : float array;  (** length [num_levels] *)
}

val make_profile : t -> eval_profile

(** Reusable wire-value buffers for repeated batched runs: lane words
    for kernel batches and a byte-per-wire buffer for one-lane batches,
    each grown on demand and kept.  A fresh word buffer for the N=16
    matmul circuit is ~13 MB, and allocating plus zeroing one per call
    costs several milliseconds before any gate is evaluated; a
    workspace amortizes that to one fill of the part the circuit uses.
    Opt-in because it aliases: {!batch_value} on a result whose run
    used [ws] reads the workspace's buffer (the byte buffer for a
    one-lane batch) and is only valid until the next [run_batch] with
    the same workspace, whatever its lane count ([batch_outputs] /
    [batch_firings] / [batch_level_firings] are copied out eagerly and
    stay valid).  A workspace must not be shared by concurrent
    [run_batch] calls. *)
type workspace

val workspace : unit -> workspace

val run_batch :
  ?profile:eval_profile ->
  ?ws:workspace ->
  t ->
  bool array array ->
  batch_result
(** [run_batch t inputs] evaluates every vector of [inputs] (one lane
    each).  Two or more lanes go through the 62-lane kernels; a single
    lane goes through {!run}'s scalar level walk, writing into the
    workspace's byte buffer.  [profile] means the same on both routes:
    it counts one batch and its lanes and adds each level's wall time.
    Raises [Invalid_argument] on an empty batch or a wrongly-sized
    input vector. *)

val lanes : batch_result -> int
val batch_outputs : batch_result -> lane:int -> bool array
val batch_firings : batch_result -> lane:int -> int
val batch_level_firings : batch_result -> lane:int -> int array

val batch_value : batch_result -> lane:int -> Wire.t -> bool
(** Read one wire of one lane (the batch analogue of {!Simulator.value}). *)

(** {1 Persistence}

    Flat-section view of a packed circuit for the artifact store
    ([lib/store]).  This module stays free of file I/O: {!save}
    projects the already-flat internals (the big vectors are shared,
    not copied), and {!load} rebuilds a [t] from sections recovered by
    the store, re-validating every structural invariant the unsafe
    evaluators rely on.  Integrity against bit-level corruption is the
    store's job (checksums); {!load}'s validation is what makes a
    checksum-clean but adversarially-shaped section set safe to
    evaluate. *)

type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type i32vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type sections = {
  sec_num_inputs : int;
  sec_num_gates : int;
  sec_levels : int;
  sec_pool_wires : i32vec;
      (** edge input wires, grouped by weight; an edge's weight is its
          group's [sec_grp_weight] *)
  sec_g_threshold : ivec;  (** per packed gate, ascending per segment *)
  sec_g_wire : i32vec;  (** per packed gate: output wire *)
  sec_seg_off : int array;  (** per segment: first pool slot *)
  sec_seg_fan : int array;  (** per segment: fan-in *)
  sec_seg_gates : int array;  (** packed-gate ranges, [nsegs + 1] *)
  sec_seg_grp : int array;  (** weight-group ranges, [nsegs + 1] *)
  sec_grp_off : int array;  (** per group: pool range, [ngroups + 1] *)
  sec_grp_weight : int array;  (** per group: the shared weight *)
  sec_level_segs : int array;  (** segment ranges per level, [levels + 1] *)
  sec_outputs : int array;
  sec_kern_table : int array;
      (** {!Kernel.encode_specs} of the distinct per-segment dispatch
          decisions, in first-use order *)
  sec_kern_index : int array;
      (** per segment: the position of its spec in [sec_kern_table];
          [[||]] when the circuit has no kernel dispatch *)
}

val save : t -> sections
(** O(num_segments) — the kernel table is built by deduplicating the
    segments' specs, everything else is shared with [t]. *)

val load : ?recompile:bool -> sections -> (t, string) result
(** Validate and adopt sections (the vectors are shared, so they must
    not be mutated afterwards).  [recompile] (default
    [false]) ignores them and rebuilds every segment's kernel from the
    CSR pools — the artifact store's path when the persisted dispatch
    tags predate the current {!Kernel.format_rev}.  Otherwise each
    distinct spec of [sec_kern_table] is decoded once and shared by the
    segments whose [sec_kern_index] names it; an {e empty} index is
    reproduced faithfully as all-generic dispatch (the original was
    packed without kernels).  [Error] describes the first violated
    invariant — among them a wire count past [2^31], a wire id out of
    range, a segment past the weight-mass bound, an index entry the
    table does not hold, or a table that does not decode; on [Ok t],
    every evaluator entry point is memory-safe and wrap-free even if
    the sections were corrupt in ways a checksum would miss.  The
    weight masses are recomputed from the sections (O(groups)), not
    read from a stored figure that could be forged along with them.
    {!circuit} raises on a loaded [t] — the explicit gate list is not
    persisted. *)

val structural_equal : t -> t -> bool
(** Field-for-field equality of the packed representation (pools,
    tables, kernel dispatch, coverage) — the round-trip identity the
    store's tests assert.  Ignores the lazy circuit view. *)
