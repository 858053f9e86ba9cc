(** The differential oracle: one {!Case.t} in, agreement or a
    counterexample out.

    For each case the oracle builds the circuit once (builds are memoized
    on {!Case.build_key} across calls, so a fuzz run pays for each
    configuration once) and demands {e bit-identical} results from every
    evaluation path in the repository:

    - plain integer arithmetic ({!Tcmm.Trace_circuit.reference} /
      {!Tcmm_fastmm.Matrix.mul}) — the ground truth;
    - the gate-at-a-time reference interpreter ({!Tcmm_threshold.Simulator},
      through the drivers' [Reference] engine, which runs it unchecked:
      a case passes only if its circuit also packs, and packing proves
      that no sum can wrap);
    - the packed levelized engine ({!Tcmm_threshold.Packed.run});
    - {!Tcmm_threshold.Packed.run_batch} with several lanes (the case's
      matrix plus further deterministic draws);
    - for matmul cases, the same lanes through a [Builder.Direct] build
      whose packed form dispatches the template-specialized kernels
      ({!Tcmm_threshold.Kernel}), pitted against the all-generic batch —
      a kernel miscompile shows up as a lane disagreement and is shrunk
      and saved to the corpus like any other divergence;
    - the packed circuit recovered through an artifact-store save and
      load, on the same lanes and on the case's own input evaluated
      alone (a one-lane [run_batch] through a reused workspace: the
      route a lone served request takes), against the integer
      reference.

    A [Conv] case runs the {e conv} leg instead: the case's im2col
    workload ({!Case.conv_job}) must score identically under direct
    convolution, the integer im2col product, and the circuit-evaluated
    embedded product.

    A case carrying [flips] batches instead runs the {e incremental}
    leg ({!check_incremental}): the batches replay through one
    {!Tcmm_threshold.Packed.session} and every intermediate state must
    be bit-identical — [values], [outputs], [firings], [level_firings]
    — to a from-scratch evaluation of the same inputs. *)

val check : Case.t -> (unit, string) result
(** [Ok ()] when every path agrees; [Error msg] names the first
    disagreeing pair.  Raised exceptions from building (unsatisfiable
    schedules, overflow) are caught and reported as [Error].
    Dispatches to {!check_incremental} when [flips <> []]. *)

val check_incremental : Case.t -> (unit, string) result
(** The incremental-session leg on a [flips]-carrying case: evaluate
    {!Case.graph}'s adjacency from scratch, then apply each flip batch
    via {!Tcmm_graph.Stream.delta} + {!Tcmm_threshold.Packed.update},
    comparing every state (base included) against a from-scratch
    {!Tcmm_threshold.Packed.run} and the integer trace reference.
    [Error] on a non-trace / signed / multi-bit case.  Exceptions
    propagate (callers go through {!check}, which catches them). *)

val trace_built : Case.t -> Tcmm.Trace_circuit.built
(** The memoized build behind a [Trace] case (for mutation sweeps that
    need the circuit and its input encoder).  Raises [Invalid_argument]
    on a [Matmul] case. *)

val trace_packed : Case.t -> Tcmm_threshold.Packed.t
(** The packed form of {!trace_built}, memoized on the same key (the
    incremental leg's sessions share its transposed fanout index). *)

val matmul_built : Case.t -> Tcmm.Matmul_circuit.built
(** Likewise for [Matmul] (and [Conv] — the im2col product runs through
    the same circuit) cases.  Raises [Invalid_argument] on a [Trace]
    case. *)

val clear_cache : unit -> unit
(** Drop the memoized builds (tests use this to bound memory). *)
