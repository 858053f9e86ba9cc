(** The differential fuzzing driver.

    Workloads are drawn from a QCheck2 generator (seeded, so runs are
    reproducible) biased toward small configurations and adversarial
    extremes (signed entries, tau at the exact trace value, the naive
    algorithm's degenerate gamma = 0 schedules).  Failing cases are
    greedily shrunk — each shrink step simplifies one field and is kept
    only while the oracle still fails — and the minimal case is what
    gets persisted to the regression corpus. *)

type failure = {
  case : Case.t;  (** the shrunk (minimal) failing case *)
  original : Case.t;  (** the case as generated *)
  message : string;  (** the oracle's complaint on [case] *)
}

type outcome = { tested : int; failures : failure list }

val gen : Case.t QCheck2.Gen.t

val gen_incremental : Case.t QCheck2.Gen.t
(** Flip-carrying cases for the incremental leg: unsigned 1-bit trace
    circuits with 1-5 edge-flip batches, biased toward
    flip-then-unflip no-op deltas and toward [tau] pinned at the
    post-flip trace value (the boundary a stale cached sum would cross
    wrongly). *)

val shrink : Case.t -> Case.t * string
(** Greedy minimization of a failing case; returns the smallest still
    failing case and its oracle message.  The input case must fail.
    Flip-carrying cases additionally shrink their flip sequence
    (dropping batches, then flips within a batch). *)

val run : ?seed:int -> ?algo:string -> cases:int -> unit -> outcome
(** Fuzz the in-process paths ({!Oracle.check}).  Stops early after 5
    failures.  [algo] pins every generated case to that algorithm,
    remapping [n] onto its power ladder (the `tcmm check --algo`
    slice). *)

val run_incremental : ?seed:int -> ?algo:string -> cases:int -> unit -> outcome
(** Like {!run} but drawing from {!gen_incremental}: every case replays
    its flip batches through one {!Tcmm_threshold.Packed.session},
    demanding bit-identity with from-scratch evaluation at every
    intermediate state ({!Oracle.check_incremental}). *)

val check_server : Tcmm_server.Client.t -> Case.t -> (unit, string) result
(** One differential trial against a live server: the request's result
    must match plain integer arithmetic computed locally. *)

val check_server_incremental :
  Tcmm_server.Client.t -> Case.t -> (unit, string) result
(** One incremental trial through a live server's stateful session
    ([Open_session] / [Update]): the session's output bit
    and firing count after every flip batch must match a local
    from-scratch packed evaluation.  The session is closed on exit. *)

val run_server :
  ?seed:int -> ?algo:string -> cases:int -> Tcmm_server.Client.t -> outcome
(** Fuzz a live server connection (no shrinking across the socket — the
    generated case is reported as-is). *)

val run_server_incremental :
  ?seed:int -> ?algo:string -> cases:int -> Tcmm_server.Client.t -> outcome
(** {!check_server_incremental} over {!gen_incremental} draws ([n]
    clamped to 4 like {!run_server}). *)
