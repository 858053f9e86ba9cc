(** The subcubic trace circuit (Theorems 4.4 and 4.5).

    Decides [trace(A^3) >= tau] for an [n x n] integer matrix [A]:

    + three sum trees compute, for every leaf [k], the A-side scalar, the
      B-side scalar (also over [A], since [C = A * A]) and the weighted
      entry-sum [q_k = sum_{i,j} w_k^(ij) A_ji] of eq. (4)
      (depth [2 * steps] each, in parallel);
    + Lemma 3.3 multiplies the three scalars of each leaf (depth 1);
    + one output gate compares [sum_k p_k q_k = trace(A^3)] against [tau]
      (depth 1).

    Total depth [2 * steps + 2]; with Theorem 4.5's schedule ([steps <= d])
    this meets the paper's [2d + 5] bound with room to spare (the paper's
    constant is looser because it does not fold the product layer's
    representation directly into the output gate's weights the way
    Lemma 3.3 allows). *)

open Tcmm_threshold
open Tcmm_arith

type built = {
  builder : Builder.t;
  mutable packed : Packed.t option;  (** memoized {!pack} result *)
  output : Wire.t;  (** fires iff [trace(A^3) >= tau] *)
  trace_repr : Repr.signed;  (** representation of [trace(A^3)] itself *)
  layout : Encode.t;
  schedule : Level_schedule.t;
  tau : int;
}

val build :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  ?share_top:bool ->
  algo:Tcmm_fastmm.Bilinear.t ->
  schedule:Level_schedule.t ->
  entry_bits:int ->
  tau:int ->
  n:int ->
  unit ->
  built
(** [signed_inputs] defaults to [false] (adjacency-style nonnegative
    entries).  [share_top] (default [false]) enables the Lemma 3.2
    shared-first-layer optimization in every addition (same function,
    fewer gates — the E11 ablation quantifies it).  [templates] (default
    [true]) stamps repeated block shapes through the
    {!Builder.templated} cache — gate-for-gate identical circuits, much
    faster construction.  [mode] defaults to [Builder.Direct].  [n]
    must equal [T^L] for the schedule's final level [L]. *)

val circuit : built -> Circuit.t
(** The per-gate circuit ({!Builder.finalize}, memoized by the
    builder) for the reference {!Simulator}, {!Validate} and the
    mutation sweep.  Raises [Invalid_argument] in [Count_only] mode. *)

val pack : built -> Packed.t
(** The compiled evaluator form, memoized on [built]: the
    {!Packed.of_arena} lowering with kernel dispatch.  Raises
    [Invalid_argument] in [Count_only] mode. *)

val build_staged :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  algo:Tcmm_fastmm.Bilinear.t ->
  stages:int ->
  entry_bits:int ->
  tau:int ->
  n:int ->
  unit ->
  built
(** The Theorem 4.1 variant: leaf sums computed by [stages]-round staged
    adders instead of level selection (depth [2 * stages + 2], gates
    [O~(d * N^(omega + 1/d))] for [stages = d]).  Exists so the ablation
    experiments can measure how much Lemma 4.3's schedule improves on
    it; {!build} is the construction to use.  The [built.schedule] field
    holds the direct schedule. *)

val encode_input : built -> Tcmm_fastmm.Matrix.t -> bool array
(** Input vector encoding [A]. *)

val run : ?engine:Simulator.engine -> built -> Tcmm_fastmm.Matrix.t -> bool
(** Simulate on [A] (raises [Invalid_argument] in [Count_only] mode).
    [engine] defaults to the packed evaluator on {!pack}'s memoized
    form; [Reference] interprets {!circuit}. *)

val run_batch : built -> Tcmm_fastmm.Matrix.t array -> bool array
(** Decide [trace(A^3) >= tau] for many matrices in one batched circuit
    traversal ({!Tcmm_threshold.Packed.run_batch}). *)

val build_with_value :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  ?share_top:bool ->
  algo:Tcmm_fastmm.Bilinear.t ->
  schedule:Level_schedule.t ->
  entry_bits:int ->
  tau:int ->
  n:int ->
  unit ->
  built * Tcmm_arith.Binary.normalized
(** Like {!build} but additionally emits canonical binary outputs for
    [trace(A^3)] itself (sign bit + magnitude bits, marked as circuit
    outputs).  One evaluation then yields the exact trace — e.g. the
    exact triangle count of a graph as [trace/6] — instead of a single
    threshold answer.  Adds depth (a Lemma 3.2 layer plus the
    {!Tcmm_arith.Binary.normalize} stages) on top of the threshold
    output, which is still present. *)

val trace_value : ?engine:Simulator.engine -> built -> Tcmm_fastmm.Matrix.t -> int
(** Simulate and evaluate {!field-trace_repr} — the exact [trace(A^3)]
    as the circuit internally represents it (test oracle access). *)

val reference : Tcmm_fastmm.Matrix.t -> int
(** [trace(A^3)] by plain integer arithmetic. *)

val stats : built -> Stats.t
