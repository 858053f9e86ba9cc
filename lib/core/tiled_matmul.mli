(** Tiled (blocked) matrix products: rectangular shapes and bounded
    fan-in.

    Section 5 of the paper notes two practical deviations from the
    [N x N] square setting: convolution products are rectangular
    ([P x Q] by [Q x K] with small [Q] and [K]), and real architectures
    bound the fan-in, which can be respected by "breaking the matrix
    multiplication into independent pieces ... run in parallel, so they
    have the same depth".

    This module implements that splitting: the operands are partitioned
    into [block x block] tiles ([block = T^L] for the given schedule),
    each tile product is an independent Theorem 4.9 circuit, and each
    output entry sums its [inner/block] tile contributions with one more
    depth-2 layer.  Fan-in now scales with the {e block} size (plus the
    final sums), not with the full operand — and rectangular operands
    only pay for the tiles they actually cover instead of being embedded
    in a square [N x N] circuit. *)

open Tcmm_threshold
open Tcmm_arith

type built = {
  builder : Builder.t;
  layout_a : Encode.t;  (** [rows x inner] *)
  layout_b : Encode.t;  (** [inner x cols] *)
  c_grid : Repr.signed_bits array array;  (** [rows x cols] *)
  block : int;
  packed : Packed.t Lazy.t;
      (** {!Packed.of_arena} of [builder], compiled on the first packed
          {!run} *)
}

val round_up : int -> block:int -> int
(** Smallest multiple of [block] that is [>=] the argument. *)

val build :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  ?share_top:bool ->
  algo:Tcmm_fastmm.Bilinear.t ->
  schedule:Level_schedule.t ->
  entry_bits:int ->
  rows:int ->
  inner:int ->
  cols:int ->
  unit ->
  built
(** [rows], [inner], [cols] must be positive multiples of the schedule's
    block size [T^L] (use {!round_up} and zero-padding via
    {!Tcmm_convnet.Im2col.embed}-style placement, or just pass padded
    shapes — zero entries are free in the simulation and harmless in the
    counts).  [mode] defaults to [Builder.Direct]. *)

val circuit : built -> Circuit.t
(** The per-gate circuit ({!Builder.finalize}).  Raises
    [Invalid_argument] in [Count_only] mode. *)

val run :
  ?engine:Simulator.engine ->
  built ->
  a:Tcmm_fastmm.Matrix.t ->
  b:Tcmm_fastmm.Matrix.t ->
  Tcmm_fastmm.Matrix.t
(** Simulate and decode the [rows x cols] product (raises
    [Invalid_argument] in [Count_only] mode).  [engine] defaults to the
    packed evaluator, compiled once per [built] value; [Reference]
    interprets {!circuit}. *)

val stats : built -> Stats.t
