(** The subcubic matrix-product circuit (Theorems 4.8 and 4.9).

    Computes all bits of [C = A * B] for [n x n] integer matrices:

    + sum trees [T_A] and [T_B] compute the [r^L] leaf scalars of each
      operand (depth [2 * steps], in parallel);
    + Lemma 3.3 multiplies corresponding leaves (depth 1);
    + the bottom-up tree [T_AB] recombines products into [C]
      (depth [2 * steps]).

    Total depth [4 * steps + 1], matching Theorem 4.9's [4d + 1] when the
    schedule is Theorem 4.5's with parameter [d]. *)

open Tcmm_threshold
open Tcmm_arith

type built = {
  builder : Builder.t;
  mutable packed : Packed.t option;  (** memoized {!pack} result *)
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;  (** binary entries of [C] *)
  schedule : Level_schedule.t;
}

val build :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  ?share_top:bool ->
  algo:Tcmm_fastmm.Bilinear.t ->
  schedule:Level_schedule.t ->
  entry_bits:int ->
  n:int ->
  unit ->
  built
(** All wires of every [C] entry are marked as circuit outputs.
    [templates] (default [true]) stamps repeated block shapes through
    the {!Builder.templated} cache instead of re-deriving their gates;
    the resulting circuit is gate-for-gate identical.  [mode] defaults
    to [Builder.Direct]: no per-gate [Circuit.t] is expanded unless
    {!circuit} asks for it — the arena lowers straight to the packed
    form on first {!pack}/{!run}. *)

val circuit : built -> Circuit.t
(** The per-gate circuit ({!Builder.finalize}, memoized by the
    builder): what the reference {!Simulator}, {!Validate} and the
    mutation sweep read.  Raises [Invalid_argument] in [Count_only]
    mode. *)

val pack : built -> Packed.t
(** The compiled evaluator form, memoized on [built]: the
    {!Packed.of_arena} lowering with kernel dispatch.  Raises
    [Invalid_argument] in [Count_only] mode.  For the generic arm, call
    [Packed.of_arena ~kernels:false (Builder.arena built.builder)]. *)

val encode_inputs : built -> a:Tcmm_fastmm.Matrix.t -> b:Tcmm_fastmm.Matrix.t -> bool array

val decode : built -> (Tcmm_threshold.Wire.t -> bool) -> Tcmm_fastmm.Matrix.t
(** Decode [C] from any wire reader — {!Simulator.value} of a result, or
    [Packed.batch_value br ~lane] of one lane of a batch.  The serving
    daemon uses this to decode each lane of a coalesced batch. *)

val run :
  ?engine:Simulator.engine ->
  built ->
  a:Tcmm_fastmm.Matrix.t ->
  b:Tcmm_fastmm.Matrix.t ->
  Tcmm_fastmm.Matrix.t
(** Simulate and decode [C] (raises [Invalid_argument] in
    [Count_only] mode).  [engine] defaults to the packed evaluator
    ({!Tcmm_threshold.Packed}) on {!pack}'s memoized form; [Reference]
    interprets {!circuit}. *)

val run_batch :
  built -> (Tcmm_fastmm.Matrix.t * Tcmm_fastmm.Matrix.t) array -> Tcmm_fastmm.Matrix.t array
(** Evaluate many [(a, b)] pairs in one batched circuit traversal
    ({!Tcmm_threshold.Packed.run_batch}) — much faster per product than
    repeated {!run}. *)

val stats : built -> Stats.t
