(** Template-specialized SWAR evaluation kernels.

    The paper's constructions stamp a handful of block shapes thousands
    of times (39 templates cover 7,459 instances at N=16), so the
    packed evaluator knows each segment's fan-in, weights and
    thresholds {i statically} — once per template, not once per gate.
    This module compiles that static knowledge into a per-segment
    kernel the batched evaluator dispatches on, replacing the general
    hash-slot accumulation loop with straight-line word arithmetic over
    all 62 bit-packed lanes at once:

    - {b Truth-table kernels} ([Tt]): segments with fan-in at most
      {!tt_max_fan} enumerate every input combination at compile time
      and bake the firing set of each gate into a bitmask.  Evaluation
      is a shared minterm product tree (2{^fan+1} word operations for
      all 62 lanes) plus one OR per live minterm — no per-lane loop, no
      accumulator zeroing.
    - {b Popcount kernels} ([Pop]): wider segments whose edges all
      carry one weight reduce to a per-lane set-bit count.  The count
      is built by the same carry-save ladder the generic path uses, and
      each gate's threshold is divided through the weight at compile
      time, turning the comparison into a bit-sliced MSB-first
      count-vs-constant compare ({!cmp_ge} / {!cmp_le}) — again no
      per-lane loop.
    - {b Carry-save kernels} ([Csa]): wide segments with several weight
      groups (the binary-weighted rows of the paper's shared layers)
      are evaluated fully bit-sliced.  Each group's per-lane count is
      built by a branchless Harley-Seal compressor ladder of
      compile-time-fixed depth — the generic path's data-dependent
      carry ripple mispredicts on nearly every edge, where the ladder
      spends ~5 word operations per edge with no branches at all —
      then shift-added into a bit-sliced {i master} accumulator, one
      ripple add per set bit of the group's |weight|.  Negative groups
      fold complemented inputs (counting zeros), and each threshold is
      re-biased at compile time to match, so the master stays
      nonnegative and thresholding is a bit-sliced compare plus one
      per-live-lane extraction — per-lane accumulators are never
      touched.  Every compressor conserves the summed count and the
      master is bounded by the baked span, so all outputs stay
      bit-identical to the generic path.
    - [Generic] falls back to the CSR accumulation loop (raw gate runs,
      narrow leftovers, and everything lowered with
      [Packed.of_arena ~kernels:false], {!Packed.of_circuit} included).

    Baked thresholds are safe because every kernel family reproduces
    the generic path's arithmetic exactly: {!Packed} only admits
    circuits whose segment sums provably fit a native int, so
    truth-table sums are exact subset sums whatever the enumeration
    order, and popcount kernels are only compiled when
    [|weight| * fan] cannot wrap, which makes the compile-time division
    exact. *)

(** {1 Lane packing}

    Lanes are packed into the low {!word_lanes} bits of a native int.
    The de Bruijn-style tables map an isolated bit to its lane without
    divisions; they are shared with {!Packed}. *)

val word_lanes : int
(** 62: keeps every lane word nonnegative. *)

val ctz_mul : int
(** [(b * ctz_mul) lsr 56] is a distinct 7-bit slot for every
    [b = 1 lsl e], [e] in [0..61] (checked at init). *)

val ctz_slots : int
(** 128. *)

val ctz_table : int array
(** Slot -> lane index. *)

val lane_slot : int array
(** Lane index -> slot (inverse of {!ctz_table}). *)

(** {1 Kernel specifications} *)

val tt_max_fan : int
(** Largest fan-in compiled to a truth-table kernel (5: at most 32
    minterms, so a gate's firing set fits one immediate). *)

type cmp = Ge | Le

type spec =
  | Generic  (** fall back to the CSR accumulation loop *)
  | Tt of {
      k_fan : int;
      k_tt : int array;
          (** per gate (thresholds ascending): bit [c] is set iff the
              gate fires on edge-combination [c]; masks are nested
              ([k_tt.(j)] contains [k_tt.(j+1)]) *)
    }
  | Pop of {
      k_bits : int;  (** counter width: enough for counts [0..fan] and every bound *)
      k_cmp : cmp;  (** [Ge] for positive weight, [Le] for negative *)
      k_c : int array;
          (** per gate: the count bound ([-1] / [fan + 1] encode
              never-fires after clamping) *)
    }
  | Csa of {
      k_widths : int array;
          (** per weight group (maximal runs of equal weight in pool
              order): counter width [bits_for len] — the fixed ripple
              depth of the branchless fold *)
      k_mbits : int;
          (** master accumulator width: [bits_for span] where
              [span = sum of |weight| * group length], at most
              {!word_lanes} (wider segments fall back to [Generic]) *)
      k_bth : int array;
          (** per gate (ascending): threshold minus the compile-time
              bias [sum of negative weight * group length], clamped
              into [0 .. span + 1] ([0] = always fires,
              [span + 1] = never) *)
    }

val compile : fan:int -> weights:int array -> thresholds:int array -> spec
(** Compile one segment: [weights] in pool (weight-grouped) order,
    [thresholds] ascending — exactly the arrays a {!Template.pseg}
    carries.  Total per distinct template, replayed per instance. *)

(** {1 Word-level evaluation} *)

val eval_tt :
  mt:int array ->
  fan:int ->
  tt:int array ->
  count:int ->
  full:int ->
  ew:int array ->
  out:int array ->
  unit
(** [eval_tt ~mt ~fan ~tt ~count ~full ~ew ~out] evaluates one
    truth-table segment for one lane word: [ew.(0..fan-1)] are the edge
    input words (bit [l] = lane [l]'s value of that edge's wire),
    [full] the active-lane mask, [mt] a scratch array of at least
    [2^fan] words.  Writes gate [j]'s firing word to [out.(j)] for
    [j < count]. *)

val cmp_ge : int array -> base:int -> bits:int -> c:int -> full:int -> int
(** Mask of lanes whose bit-sliced count ([cnt.(base + j)] holds bit
    [j] of every lane's count) is [>= c].  MSB-first sweep, [bits]
    words deep; [c <= 0] returns [full], [c >= 2^bits] returns [0]. *)

val cmp_le : int array -> base:int -> bits:int -> c:int -> full:int -> int
(** Same, for [<= c]: [c < 0] returns [0], [c >= 2^bits] returns
    [full]. *)

(** {1 Persistence}

    Flat int-array codec for spec arrays, so the artifact store can
    persist a circuit's distinct dispatch decisions — one table per
    artifact, which each segment indexes — alongside the CSR pools, and
    a warm load skips {!compile} entirely. *)

val format_rev : int
(** Revision of the encoding {i and} of the compile heuristics.  Bump
    whenever either changes; artifacts record the revision they were
    written under, and loaders must recompile from the CSR pools (not
    decode) on a mismatch. *)

val encode_specs : spec array -> int array
(** Concatenated tagged encoding of every spec, in order. *)

val decode_specs : int array -> count:int -> spec array option
(** Decode exactly [count] specs, [None] if the stream is malformed,
    truncated, or has trailing words.  Inverse of {!encode_specs} for
    streams written at the current {!format_rev}. *)
