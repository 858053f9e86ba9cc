(** A fuzz workload: everything needed to rebuild one differential test
    deterministically — the circuit configuration plus the PRNG seed the
    input matrices are drawn from.

    Cases serialize to a one-value-per-line text format (version-tagged
    like {!Tcmm_threshold.Export}'s netlists) so shrunk counterexamples
    can live in [test/support/corpus/] and be replayed forever:
    {v
    tcmm-case 1
    kind trace
    algo strassen
    schedule uniform-2
    d 2
    n 4
    entry_bits 1
    signed false
    tau 1
    seed 42
    v} *)

type kind = Trace | Matmul | Conv

type t = {
  kind : kind;
  algo : string;  (** bundled algorithm name ({!Tcmm_fastmm.Instances}) *)
  schedule : string;  (** {!Tcmm.Level_schedule.resolve} vocabulary *)
  d : int;  (** Theorem 4.5 depth parameter *)
  n : int;
  entry_bits : int;
  signed : bool;
  tau : int;  (** trace threshold; ignored for [Matmul] *)
  seed : int;  (** input matrices are [Prng] draws from this seed *)
  flips : (int * int) list list;
      (** incremental leg: edge-flip batches applied in order to the
          case's {!graph}, each batch one {!Tcmm_threshold.Packed.update}
          delta.  [[]] (the default, and what a missing [flips] line in
          the text format means) is a plain one-shot case.  Only
          meaningful for unsigned 1-bit [Trace] cases — the adjacency
          encoding {!Tcmm_graph.Stream} speaks. *)
}

val kind_name : kind -> string
(** ["trace"], ["matmul"], or ["conv"] — the serialized form. *)

val pp : Format.formatter -> t -> unit

val build_key : t -> string
(** Cache key covering every field that affects the compiled circuit
    (everything but [seed]) — the oracle memoizes builds on this. *)

val algo_of_name : string -> Tcmm_fastmm.Bilinear.t
(** {!Tcmm_fastmm.Instances.find}, raising [Invalid_argument] on an
    unknown name. *)

val resolve_schedule : t -> Tcmm.Level_schedule.t

val matrix : t -> index:int -> Tcmm_fastmm.Matrix.t
(** The [index]-th input matrix of the case ([index] 0 is [A], 1 is [B]),
    drawn deterministically from [seed] with entries in
    [[-(2^entry_bits - 1), 2^entry_bits - 1]] (signed) or
    [[0, 2^entry_bits - 1]]. *)

val conv_job : t -> Tcmm_convnet.Im2col.spec * Tcmm_convnet.Image.t * Tcmm_convnet.Image.t array
(** The conv leg's im2col workload, deterministic in [seed]: a
    single-channel image and two 2x2 kernels sized so the patch and
    kernel matrices fit the case's [n x n] circuit.  Raises
    [Invalid_argument] when [n < 4]. *)

val graph : t -> Tcmm_graph.Graph.t
(** The incremental leg's base graph: an Erdős–Rényi draw on [n]
    vertices, deterministic in [seed] (independent of the {!matrix}
    stream).  Its adjacency matrix is what a [flips]-carrying case
    evaluates the trace circuit on before any flip is applied. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** A missing [flips] line decodes as [flips = []], so every corpus
    file written before the incremental leg still parses.  A line whose
    key is not one of the fields above is an [Error] naming the key: a
    misspelt optional field (or the removed [kronpow] line) must not
    replay silently as a different case. *)

val equal : t -> t -> bool
