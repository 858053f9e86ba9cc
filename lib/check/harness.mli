(** The `tcmm check` battery: certify + fuzz + mutation sweep.

    One call runs the whole correctness harness and returns an aggregate
    report the CLI renders as {!Tcmm_util.Tablefmt} tables, the E19
    experiment records as JSON, and CI gates on ({!all_ok} demands every
    certificate clean, zero fuzz failures, a protocol sweep with no
    survivors, and a mutant kill rate of at least {!kill_threshold}). *)

type report = {
  certificates : Certify.t list;
  fuzz : Fuzz.outcome;
  incremental : Fuzz.outcome;
      (** the dirty-cone session leg ({!Fuzz.run_incremental}) *)
  server_fuzz : Fuzz.outcome option;  (** [None] when the server was skipped *)
  server_incremental : Fuzz.outcome option;
      (** stateful-session leg against the forked server; [None] when
          the server was skipped *)
  mutation : Mutate.sweep;
  protocol : Mutate.protocol_sweep;
  seed : int;
}

val kill_threshold : float
(** 0.95 — the minimum acceptable mutant kill rate. *)

val certify_battery :
  ?materialize_cap:int -> ?algo:string -> unit -> Certify.t list
(** Certificates for the bundled bilinear instances (Strassen, naive,
    and Laderman), all four standard schedules and both circuit kinds
    across each algorithm's power ladder (N in {4, 8, 16}, or {3, 9}
    for base-3 Laderman; matmul capped at the sizes a count-only build
    handles quickly).  [algo] restricts the battery to one algorithm. *)

val mutation_battery : ?seed:int -> mutants:int -> unit -> Mutate.sweep
(** The mutation sweep over a set of small materialized subjects
    (trace and matmul, Strassen and naive), [mutants] split across
    them, judged against 32 encoded random workloads each. *)

val with_loopback_server : (Tcmm_server.Client.t -> 'a) -> 'a
(** Fork a server on a private Unix socket, connect, run, then shut the
    server down and reap the child (also on exceptions). *)

val run :
  ?seed:int ->
  ?cases:int ->
  ?incremental_cases:int ->
  ?mutants:int ->
  ?include_server:bool ->
  ?corpus_dir:string ->
  ?algo:string ->
  unit ->
  report
(** Defaults: seed 1, 50 fuzz cases, 120 mutants, no server leg;
    [incremental_cases] defaults to [cases].  When [corpus_dir] is
    given, corpus cases are replayed first (failures count toward the
    leg they exercise — flip-carrying cases toward [incremental]) and
    new shrunk counterexamples are saved there.  [algo] pins every
    certificate and fuzz case to one algorithm (the CI per-algorithm
    slice); the mutation battery and corpus replay are unaffected. *)

val all_ok : report -> bool
val print_report : report -> unit
val to_json : report -> string
