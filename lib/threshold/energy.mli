(** Firing-count energy model.

    The paper's open problems (Section 6) cite the energy model of
    Uchizawa, Douglas and Maass: a gate costs one unit iff it fires.
    This module measures that cost empirically over input distributions,
    which is the per-experiment quantity E9 reports. *)

type summary = {
  samples : int;
  mean_firings : float;
  min_firings : int;
  max_firings : int;
  gates : int;  (** circuit size, for computing the firing fraction *)
  mean_level_firings : float array;
      (** mean firings per depth level (entry [d] = gates of depth
          [d + 1]); sums to [mean_firings] *)
}

val measure : ?engine:Simulator.engine -> Circuit.t -> bool array list -> summary
(** [measure c inputs] simulates [c] on each input vector and aggregates
    firing counts.  With the default {!Simulator.Packed} engine the
    inputs are evaluated in batched traversals
    ({!Packed.run_batch}, the dominant cost of energy sweeps);
    [Simulator.Reference] falls back to one {!Simulator.run} per input.
    Raises [Invalid_argument] on an empty list. *)

val random_inputs :
  Tcmm_util.Prng.t -> num_inputs:int -> samples:int -> bool array list
(** Uniform random boolean input vectors. *)

val firing_fraction : summary -> float
(** Mean fraction of gates that fire per evaluation. *)

val pp : Format.formatter -> summary -> unit
