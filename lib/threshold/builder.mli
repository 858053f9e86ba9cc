(** Incremental construction of threshold circuits.

    All circuit constructors in this repository (the arithmetic circuits of
    Section 3 and the trace / matrix-product circuits of Section 4) are
    written against this builder.  It runs in one of two modes:

    - {b Direct}: gates are kept as an {!arena} — an ordered log of raw
      gate runs and template instances.  {!Packed.of_arena} lowers it
      straight to the packed CSR form, and {!finalize} expands it into
      the per-gate {!Circuit.t} that the reference {!Simulator} and
      {!Validate} read.
    - {b Count_only}: gates are only tallied (count, edges, per-wire depth,
      fan-in, weight range).  This gives {i exact} structural statistics for
      circuits far too large to hold in memory — the paper's scaling claims
      are about gate counts, so the count-only sweeps are the primary
      experimental instrument.

    Constructor code is identical under both modes; only [finalize] and
    [arena] are restricted to [Direct].

    {b Templates.} The paper's constructions stamp a handful of block
    shapes (Lemma 3.1 shared-threshold layers, Lemma 3.3 product blocks,
    sum-tree recombination nodes) thousands of times.  Constructors wrap
    such blocks in {!templated}: the first occurrence of a structural key
    records the block into a relocatable {!Template.t}, every later
    occurrence is reproduced by offset arithmetic — same wires, same
    depths, same stats, same gates — without re-running the constructor. *)

type mode = Count_only | Direct

type t

val create : ?mode:mode -> ?templates:bool -> unit -> t
(** [create ()] starts an empty builder in [Direct] mode with
    template stamping enabled ([templates] defaults to [true]). *)

val mode : t -> mode

val add_input : t -> Wire.t
(** Appends one input wire (depth 0).  Inputs must be created before any
    gate; raises [Invalid_argument] otherwise (keeps the input block dense
    at the bottom of the wire id space). *)

val add_inputs : t -> int -> Wire.t array
(** [add_inputs b n] appends [n] input wires. *)

val add_gate : t -> inputs:Wire.t array -> weights:int array -> threshold:int -> Wire.t
(** Appends a gate reading existing wires; returns its output wire.
    Raises [Invalid_argument] on a dangling wire id or mismatched
    weight array. *)

val add_gate_terms : t -> terms:(Wire.t * int) list -> threshold:int -> Wire.t
(** Convenience form of {!add_gate} taking [(wire, weight)] pairs. *)

val add_shared_gates :
  t -> inputs:Wire.t array -> weights:int array -> thresholds:int array -> Wire.t array
(** One gate per threshold, all reading the same (physically shared)
    input/weight arrays.  Counts are identical to calling {!add_gate}
    repeatedly; the point is performance: input validation, depth and
    weight scans happen once for the whole layer instead of per gate.
    Lemma 3.1's first layer — [2^k] gates that differ only in their
    threshold — is built through this. *)

val const : t -> bool -> Wire.t
(** [const b v] is a wire carrying constant [v], built as a fan-in-0 gate
    with threshold 0 (true) or 1 (false).  Each call creates a gate;
    constructors avoid constants where a value is statically known. *)

val output : t -> Wire.t -> unit
(** Marks a wire as a circuit output (in call order). *)

val depth_of : t -> Wire.t -> int
val num_wires : t -> int
val num_inputs : t -> int
val num_gates : t -> int

val stats : t -> Stats.t
(** Exact structural statistics of the circuit built so far (all modes). *)

val finalize : t -> Circuit.t
(** The circuit built so far, gate by gate: raw gates as added, each
    template instance expanded from its template, the gates of one
    shared segment sharing one input array.  O(logical edges) — the
    packed evaluators never need it.  Memoized until the builder
    grows.  Raises [Invalid_argument] in [Count_only] mode. *)

(** {2 Template stamping} *)

val templating : t -> bool
(** [true] when a call to {!templated} may hit the template cache — i.e.
    templates are enabled and no recording is in flight.  Call sites use
    this to skip building the structural key on the legacy path. *)

val templated :
  t ->
  tag:int ->
  data:int array ->
  inputs:Wire.t array ->
  build:(unit -> Wire.t array * int array array) ->
  Wire.t array * int array array
(** [templated b ~tag ~data ~inputs ~build] builds one block through the
    template cache.  [(tag, data)] is the structural key: it must
    determine the emitted gates {i exactly} (including the
    wire-duplication pattern of [inputs] — see {!Template.pattern}),
    with wire identities abstracted to positions in [inputs].  [build]
    runs the real constructor and returns the block's result wires plus
    an opaque metadata payload; on a cache hit both are reproduced from
    the template without calling [build].  With templates disabled (or
    during a recording) this is exactly [build ()]. *)

type template_stats = { templates : int; instances : int; stamped_gates : int }

val template_stats : t -> template_stats
(** Distinct templates recorded, instances built through {!templated}
    (recordings included), and total gates those instances produced. *)

(** {2 Direct-mode arena} *)

(** One construction-order step: a run of raw (non-templated) gates with
    consecutive wire ids, or one template instance. *)
type item =
  | A_raw of { gate0 : int; gv0 : int; mutable count : int }
      (** [count] gates: wire ids [gate0..], stored at [a_raw.(gv0..)]. *)
  | A_inst of { tpl : Template.t; wire0 : int; slots : int array }
      (** Instance of [tpl] whose first gate drives wire [wire0], formal
          slots bound to [slots]. *)

type arena = {
  a_num_inputs : int;
  a_num_wires : int;
  a_num_gates : int;
  a_levels : int;
  a_depths : int array;  (* per wire *)
  a_items : item array;
  a_raw : Gate.t array;
  a_outputs : int array;
}

val arena : t -> arena
(** The arena built so far.  Raises [Invalid_argument] unless the
    builder is in [Direct] mode. *)
