(** Spec-keyed artifact directory: the persistent tier behind the
    server's circuit cache and the [tcmm compile] / [tcmm artifacts]
    subcommands.

    One {!Artifact} file per compiled circuit, named by a
    percent-encoded spec key plus [".tcmm"].  All writes are {b temp
    file + atomic rename} (the temp name embeds the pid), so two
    daemons sharing a directory race cleanly: a reader sees either the
    old complete file or the new complete file, never a torn one, and
    the last writer wins with identical content.  Any artifact that
    fails validation on load — bad magic, checksum mismatch, stale
    format version, spec-key mismatch, truncation — is logged and
    {b quarantined} by renaming it to [<name>.corrupt], and the caller
    falls back to a fresh build; a poisoned file can never crash the
    daemon or change an answer, and never gets read twice. *)

type t

type counters = {
  loads : int;  (** artifacts successfully loaded *)
  saves : int;  (** artifacts written *)
  invalid : int;  (** artifacts that failed validation and were quarantined *)
}

val create : dir:string -> unit -> (t, string) result
(** Open (and [mkdir -p]) an artifact directory. *)

val dir : t -> string
val counters : t -> counters

val path_of_key : t -> string -> string
(** Where an artifact for this spec key lives (percent-encoded). *)

val find : t -> key:string -> Artifact.t option
(** Read-through lookup.  [None] when absent {i or} invalid — invalid
    files are quarantined and counted, so the caller just rebuilds. *)

val save :
  t ->
  meta:Artifact.meta ->
  Tcmm_threshold.Packed.t ->
  (int, string) result
(** Write-behind: persist a freshly built circuit (keyed by
    [meta.m_key]) via temp file + atomic rename.  Returns the artifact
    size in bytes. *)

val list : t -> (string * (Artifact.header * int, string) result) list
(** Every [.tcmm] file (by filename, sorted) with its decoded header
    and size, or the reason it could not be read.  Does not verify
    payloads or quarantine. *)

val gc : t -> removed:(string -> unit) -> int
(** Delete quarantined [.corrupt] files, orphaned temp files, and
    artifacts whose header is unreadable or whose format version is
    stale (they would never load again).  Calls [removed] per deleted
    file; returns the number of bytes freed. *)
