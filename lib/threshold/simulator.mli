(** Exact evaluation of a threshold circuit.

    The simulator walks the gates in topological order, so one pass over
    the gate array (linear in the edge count) computes every wire.  It also
    records the number of gates that fire, which is the energy measure of
    Uchizawa, Douglas and Maass cited in the paper's open problems
    (Section 6).

    This module is the {i reference} semantics: one gate at a time, in
    gate-id order.  {!Packed} compiles a circuit into a flat levelized
    form and evaluates it much faster (one vector at a time, or whole
    batches of input vectors at once) with bit-identical results; the
    circuit drivers in [lib/core] accept an {!engine} argument to choose
    between the two. *)

type engine = Reference | Packed
(** Which evaluator a driver should use: the gate-at-a-time reference
    interpreter above, or the {!Packed} levelized engine.  Both produce
    identical [outputs], [firings] and [level_firings]. *)

type result = {
  values : Bytes.t;  (** one byte per wire: 0 or 1 *)
  outputs : bool array;  (** values of the circuit's designated outputs *)
  firings : int;  (** number of gates whose output is 1 *)
  level_firings : int array;
      (** firing count per depth level: entry [d] counts firing gates of
          depth [d + 1]; sums to [firings] *)
}

val run : ?check:bool -> Circuit.t -> bool array -> result
(** [run c inputs] evaluates [c] on [inputs].
    [check] (default [false]) enables overflow-checked accumulation,
    raising [Tcmm_util.Checked.Overflow] on a sum that wraps.  This is
    the one checked evaluator: it takes any [Circuit.t], while
    {!Packed} refuses a circuit whose sums could wrap.  Raises
    [Invalid_argument] if [inputs] length differs from
    [c.num_inputs]. *)

val value : result -> Wire.t -> bool
(** [value r w] reads one wire from a result. *)

val read_outputs : Circuit.t -> bool array -> bool array
(** Convenience: [run] then return just the output values. *)
