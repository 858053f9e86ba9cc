(** The cubic-size baselines the paper sets out to beat (Section 1).

    - {!triangle_threshold}: the paper's introductory depth-2 circuit for
      "does [G] have at least [tau] triangles?" — one AND gate per vertex
      triple and one output gate, [(N choose 3) + 1] gates total.
    - {!trace_threshold}: the same idea for general integer matrices:
      [trace(A^3) = sum_{i,j,k} A_ij A_jk A_ki] via Lemma 3.3 products
      feeding one comparison gate, [Theta(N^3)] gates at depth 2.
    - {!matmul}: definitional matrix product — entry products (depth 1)
      and one Lemma 3.2 sum per output entry (depth 2), [Theta(N^3)]
      gates at depth 3. *)

open Tcmm_threshold
open Tcmm_arith

type triangle_built = {
  builder : Builder.t;
  output : Wire.t;
  n : int;
  tau : int;
  packed : Packed.t Lazy.t;  (** {!Packed.of_arena} of [builder], on first use *)
}

val triangle_threshold : ?mode:Builder.mode -> n:int -> tau:int -> unit -> triangle_built
(** Inputs: [x_ij] for [i < j] in lexicographic order ([N*(N-1)/2]
    wires).  [mode] defaults to [Builder.Direct], as for every driver
    here. *)

val triangle_circuit : triangle_built -> Circuit.t
(** The per-gate circuit ({!Builder.finalize}); likewise
    {!trace_circuit} and {!matmul_circuit}.  Raise [Invalid_argument]
    in [Count_only] mode. *)

val triangle_encode : triangle_built -> Tcmm_fastmm.Matrix.t -> bool array
(** Encodes a symmetric 0/1 adjacency matrix with zero diagonal; raises
    [Invalid_argument] otherwise. *)

val triangle_run :
  ?engine:Simulator.engine -> triangle_built -> Tcmm_fastmm.Matrix.t -> bool

type trace_built = {
  builder : Builder.t;
  output : Wire.t;
  trace_repr : Repr.signed;
  layout : Encode.t;
  tau : int;
  packed : Packed.t Lazy.t;  (** {!Packed.of_arena} of [builder], on first use *)
}

val trace_threshold :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  entry_bits:int ->
  tau:int ->
  n:int ->
  unit ->
  trace_built

val trace_circuit : trace_built -> Circuit.t

val trace_run :
  ?engine:Simulator.engine -> trace_built -> Tcmm_fastmm.Matrix.t -> bool

val trace_value :
  ?engine:Simulator.engine -> trace_built -> Tcmm_fastmm.Matrix.t -> int

type matmul_built = {
  builder : Builder.t;
  layout_a : Encode.t;
  layout_b : Encode.t;
  c_grid : Repr.signed_bits array array;
  packed : Packed.t Lazy.t;  (** {!Packed.of_arena} of [builder], on first use *)
}

val matmul :
  ?mode:Builder.mode ->
  ?templates:bool ->
  ?signed_inputs:bool ->
  entry_bits:int ->
  n:int ->
  unit ->
  matmul_built

val matmul_circuit : matmul_built -> Circuit.t

val matmul_run :
  ?engine:Simulator.engine ->
  matmul_built ->
  a:Tcmm_fastmm.Matrix.t ->
  b:Tcmm_fastmm.Matrix.t ->
  Tcmm_fastmm.Matrix.t

(** {1 Closed-form statistics}

    The naive circuits are regular enough that their exact gate/edge
    counts follow from arithmetic; the benches use these for baselines at
    sizes where even a count-only build would be wasteful.  Each is
    checked against count-only builds in the test suite. *)

val triangle_counts : n:int -> int * int
(** [(gates, edges)] of {!triangle_threshold}: [(n choose 3) + 1] gates. *)

val trace_counts : ?signed_inputs:bool -> entry_bits:int -> n:int -> unit -> int * int
(** [(gates, edges)] of {!trace_threshold}. *)

val matmul_counts : ?signed_inputs:bool -> entry_bits:int -> n:int -> unit -> int * int
(** [(gates, edges)] of {!matmul}. *)
