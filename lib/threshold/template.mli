(** Relocatable circuit-block templates (see {!Builder.templated}).

    A template is one captured block shape with wire {i offsets} instead
    of wire ids: a ref [r >= 0] names gate [r] inside the block (wire
    [wire0 + r] once stamped at base [wire0]), a ref [r < 0] names
    formal input slot [-r - 1].  Templates are hash-consed on an exact
    structural key and reused across every instance of the shape —
    the recursion tree [T_A] of Figure 2 has [r^level] structurally
    identical nodes per level, so each shape is captured once and
    stamped thousands of times. *)

type key = { tag : int; data : int array }

val hash_int_array : int array -> int
(** Folds over {i every} element (polymorphic hash samples only a
    prefix, and keys here are long weight vectors). *)

module Ktbl : Hashtbl.S with type key = key
module Dtbl : Hashtbl.S with type key = int array

val pattern : Wire.t array -> int array
(** Wire-duplication pattern: position [i] maps to the first position
    holding the same wire.  Call sites fold this into the key because
    constructors that merge duplicate wires emit different gates for
    different aliasing structures. *)

(** Absolute per-gate depths (plus the gates-by-depth histogram slice)
    for one vector of slot depths; computed once and blitted per
    stamp. *)
type plan = {
  p_depths : int array;
  p_hist_lo : int;  (** depth value counted by [p_hist.(0)] *)
  p_hist : int array;
  p_max_depth : int;
}

(** Per-segment lowering plan: the weight grouping, edge permutation and
    threshold sort of one segment, precomputed once per template (or
    raw-gate run) and replayed by [Packed.of_arena] per instance. *)
type pseg = {
  q_gate0 : int;  (** first gate — template index (absolute wire for raw runs) *)
  q_count : int;
  q_fan : int;
  q_refs : int array;  (** encoded refs in pool (weight-grouped) order *)
  q_weights : int array;
  q_grp_start : int array;  (** per group: start offset within the segment *)
  q_grp_weight : int array;
  q_th : int array;  (** thresholds, ascending *)
  q_th_gate : int array;  (** gate (same index space as [q_gate0]) per slot *)
  q_kernel : Kernel.spec;
      (** specialized evaluator compiled from the segment's static
          shape ({!Kernel.compile}); [Generic] for raw-gate runs *)
}

type t = {
  n_slots : int;
  n_gates : int;
  seg_start : int array;  (** length [n_segs + 1]; gate index boundaries *)
  seg_off : int array;  (** length [n_segs + 1]; offsets into [s_refs] *)
  s_refs : int array;
      (** per-segment leader refs in original input order; the template's
          footprint is the block's {i physical} edge count, not the
          logical one *)
  s_weights : int array array;  (** per segment, shared by its gates *)
  g_threshold : int array;
  edges : int;  (** logical: sum over segments of [count * fan] *)
  max_fan_in : int;
  max_abs_weight : int;
  outs : int array;  (** encoded refs of the block's result wires *)
  meta : int array array;  (** call-site payload, returned verbatim on stamp *)
  plans : plan Dtbl.t;
  mutable lower : pseg array option;
}

val n_gates : t -> int

val capture :
  wire0:int ->
  inputs:Wire.t array ->
  gates:Gate.t array ->
  outs:Wire.t array ->
  meta:int array array ->
  t
(** Compile a freshly recorded region (gates with absolute wire ids,
    first gate wire [wire0]) into a template.  Raises [Invalid_argument]
    if the region reads or returns a wire that is neither internal nor
    listed in [inputs]. *)

val plan : t -> slot_depths:int array -> plan
(** Depth plan for instances whose formals sit at [slot_depths];
    memoized per template. *)

val lower_plan : t -> pseg array
(** Lowering plans for the template's segments; memoized. *)

val raw_psegs :
  Gate.t array -> gv0:int -> count:int -> wire_of:(int -> int) -> pseg array
(** Lowering plans for a run of raw gates [gates.(gv0 ..)] ([count] of
    them); [wire_of i] is the absolute output wire of the run's [i]-th
    gate.  Refs are absolute wire ids (lowered against base wire 0). *)
