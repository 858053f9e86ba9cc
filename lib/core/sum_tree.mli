(** The top-down sum-tree compiler (Figure 2, Lemma 4.2).

    Given a bilinear algorithm with coefficient rows [coeffs] ([r x T^2]),
    the tree [T] over an [N x N] input matrix has, at level [h], [r^h]
    nodes; the node reached by multiplication-index path [(i_1 .. i_h)]
    holds the [(N/T^h) x (N/T^h)] matrix

    [sum over block paths (j_1 .. j_h) of
       (prod_l coeffs.(i_l).(j_l)) * (input block at (j_1 .. j_h))].

    With [coeffs = u] this is the paper's [T_A]; with [coeffs = v], [T_B];
    with the transposed [w] over the transposed input it yields the trace
    circuit's third linear form (eq. 4).

    The compiler materializes exactly the levels a {!Level_schedule.t}
    selects: each selected level is computed from the previous one by
    depth-2 weighted sums (Lemma 3.2), so the leaves — the [N^(log_T r)]
    scalars the fast algorithm multiplies — are reached in depth
    [2 * steps]. *)

open Tcmm_threshold
open Tcmm_arith

type input = Repr.signed_bits array array
(** [input.(i).(j)] is the entry in row [i], column [j]. *)

val a_coeffs : Tcmm_fastmm.Bilinear.t -> int array array
val b_coeffs : Tcmm_fastmm.Bilinear.t -> int array array

val w_transposed_coeffs : Tcmm_fastmm.Bilinear.t -> int array array
(** [r x T^2] matrix with entry [(i, j) = w.(j).(i)] — the coefficient of
    product [M_i] in the expression for block [j] of [C].  Feeding this to
    the sum tree over the {e transposed} input computes, for each leaf
    [k], the weighted sum [sum_{i,j} w_k^(ij) A_ji] of eq. (4). *)

val leaf_count : Tcmm_fastmm.Bilinear.t -> l:int -> int
(** [r^l] — the number of scalar products. *)

val compute_leaves :
  ?share_top:bool ->
  Builder.t ->
  algo:Tcmm_fastmm.Bilinear.t ->
  coeffs:int array array ->
  schedule:Level_schedule.t ->
  input ->
  Repr.signed_bits array
(** [compute_leaves b ~algo ~coeffs ~schedule input] emits the circuit
    computing all [r^L] leaf scalars and returns them indexed by leaf id
    (path [(i_1 .. i_L)] read as a base-[r] numeral, root digit first).
    Requires [input] to be square of size [T^L] where [L] is the
    schedule's last level; raises [Invalid_argument] otherwise.

    Every step is emitted flat: each child entry is one weighted sum
    over its parent's blocks, so the circuit is exactly the one the
    certifier and the {!Gate_count}/{!Gate_count_matmul} DPs describe. *)

val compute_leaves_staged :
  Builder.t ->
  algo:Tcmm_fastmm.Bilinear.t ->
  coeffs:int array array ->
  stages:int ->
  l:int ->
  input ->
  Repr.signed_bits array
(** The Theorem 4.1 route: no intermediate levels at all — every leaf's
    weighted sum over input entries is expanded directly and added with a
    [stages]-round {!Tcmm_arith.Staged_sum} (depth [2 * stages]).  Used by
    the ablation experiments to show that Lemma 4.3's level selection
    beats generic staged addition, as Section 4.2 argues. *)

val reference_leaves :
  algo:Tcmm_fastmm.Bilinear.t ->
  coeffs:int array array ->
  Tcmm_fastmm.Matrix.t ->
  int array
(** Pure-integer reference computation of the same [r^L] leaf scalars
    (full recursion, no circuits) — the test oracle for
    {!compute_leaves}.  Pass the same [coeffs] (and, for the W side, the
    transposed matrix). *)
