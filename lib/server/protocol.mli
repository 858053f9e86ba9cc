(** The `tcmm serve` wire protocol.

    Version-tagged, length-prefixed binary frames over a Unix or TCP
    socket.  A frame is a 4-byte big-endian payload length followed by
    the payload; a payload is one version byte, one tag byte, and the
    tag's fields (64-bit little-endian integers, IEEE-754 floats by
    bits, length-prefixed strings, count-prefixed arrays).  Both sides
    reject frames longer than {!max_frame_len}, so a corrupt length
    prefix cannot trigger an unbounded allocation.

    Requests name circuits by a {!spec} — the cache key of the serving
    daemon — and carry exact integer matrices as payloads.  The encoders
    and decoders round-trip every value bit-exactly (floats travel as
    their bit patterns), which the property-test suite checks on
    arbitrary requests and responses. *)

module Matrix = Tcmm_fastmm.Matrix
module Image = Tcmm_convnet.Image

val version : int
(** Protocol version carried in every outgoing payload (currently 8).
    The decoders accept this version only and refuse any other with an
    [Error] naming both.  Client, server and fleet workers ship in one
    binary, so peers never differ; compiled artifacts carry their own
    format version ({!Tcmm_store.Artifact.format_version}). *)

val max_frame_len : int
(** Hard upper bound on a payload's length (16 MiB). *)

(** {1 Circuit specs} *)

type kind =
  | Matmul  (** [C = A * B] (Theorem 4.9) *)
  | Trace  (** [trace(A^3) >= tau] (Theorem 4.5) *)
  | Triangles
      (** triangle threshold query: [trace(A^3) >= 6 * tau] on an
          adjacency matrix (Section 5) *)
  | Conv
      (** im2col convolution served through a matmul circuit of
          dimension [n] (Section 6 application) *)

type spec = {
  kind : kind;
  algo : string;  (** bundled algorithm name, e.g. ["strassen"] *)
  schedule : string;  (** {!Tcmm.Level_schedule.resolve} vocabulary *)
  d : int;  (** Theorem 4.5 depth parameter (["thm45"] schedules) *)
  n : int;  (** matrix dimension *)
  entry_bits : int;
  signed : bool;
  tau : int;  (** threshold for [Trace] / [Triangles]; ignored for [Matmul] *)
  kronpow : bool;
      (** must be [false]; refused.  A wire field only: it selected a
          Kronecker-power pass that has been removed, and
          {!Circuit_cache.find_or_build} answers [true] with an error.
          Kept so frames stay byte-identical at this version. *)
}

type conv_job = {
  cj_q : int;  (** square kernel side *)
  cj_stride : int;
  cj_image : Image.t;
  cj_kernels : Image.t array;  (** one score map per kernel *)
}

(** {1 Requests and responses} *)

type request =
  | Compile of spec  (** build (or find cached) without running *)
  | Run_matmul of spec * Matrix.t * Matrix.t
  | Run_trace of spec * Matrix.t
  | Run_triangles of spec * Matrix.t
  | Stats of spec  (** exact circuit statistics *)
  | Metrics  (** serving metrics snapshot *)
  | Ping
  | Shutdown  (** graceful stop: flush batches, answer, exit *)
  | Fleet
      (** fleet roster: a supervisor answers with every worker's
          endpoint and restart count, a standalone daemon (or a worker)
          with just itself *)
  | Open_session of spec * Matrix.t
      (** open a stateful streaming session on a [Trace] / [Triangles]
          circuit: evaluate the initial matrix from scratch and keep
          the {!Tcmm_threshold.Packed.session} resident for incremental
          updates *)
  | Update of int * (int * bool) array
      (** [(sid, delta)]: apply an input-bit delta — [(wire, value)]
          pairs, e.g. from {!Tcmm_graph.Stream.delta} — to an open
          session and re-evaluate only the dirty cone *)
  | Close_session of int  (** release a session's state *)
  | Run_conv of spec * conv_job
      (** serve an im2col convolution through the spec's matmul
          circuit: the daemon embeds the patch and kernel matrices into
          [n x n], multiplies through the cached circuit, and folds the
          product back into per-kernel score maps *)

type compiled = {
  cached : bool;  (** was already resident in the circuit cache *)
  loaded : bool;
      (** the entry was recovered from the artifact store instead of
          built *)
  build_seconds : float;  (** 0 when [cached] *)
  stats : Tcmm_threshold.Stats.t;
}

type cache_stats = Tcmm_util.Lru.stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

type histogram = {
  bounds : float array;  (** bucket upper bounds (inclusive), milliseconds *)
  counts : int array;  (** length [Array.length bounds + 1]; last = overflow *)
  sum : float;  (** sum of observations, milliseconds *)
  count : int;
}

type metrics = {
  uptime_seconds : float;
  connections_accepted : int;
  connections_active : int;
  requests_total : int;
  run_requests : int;
  errors : int;  (** requests answered with [Error] *)
  batches : int;  (** coalesced dispatches through [Packed.run_batch] *)
  lanes : int;  (** total run requests dispatched via batches *)
  max_lanes : int;  (** configured occupancy cap (<= 62) *)
  occupancy : int array;
      (** length [max_lanes]; [occupancy.(k-1)] = batches that carried
          [k] lanes *)
  latency_ms : histogram;  (** per-request latency, enqueue to reply *)
  firings_total : int;  (** summed gate firings over all served lanes *)
  eval_seconds : float;  (** time inside batched circuit evaluation *)
  build_seconds : float;  (** time building + packing circuits *)
  cache : cache_stats;  (** the daemon's spec-keyed circuit cache *)
  accepted : int;
      (** run requests admitted to the batcher.  Once the queue is
          empty, [accepted = run_requests + deadline_expired +
          eval_failures] — every admitted request is accounted for. *)
  shed : int;  (** run requests refused with [Overloaded] at the admission gate *)
  deadline_expired : int;  (** admitted requests answered [Deadline_exceeded] *)
  eval_failures : int;  (** admitted requests answered [Error] because evaluation raised *)
  slow_client_drops : int;
      (** connections closed because the peer stopped draining its
          write buffer past the backlog cap *)
  kernel_gates : int;
      (** gates evaluating through a template-specialized kernel, summed
          over every circuit a cache miss made resident — fresh builds
          and warm loads from the artifact store alike *)
  fallback_gates : int;
      (** gates of those same circuits on the generic CSR fallback; the
          kernel coverage fraction is
          [kernel_gates / (kernel_gates + fallback_gates)] *)
  store_loads : int;  (** circuits recovered warm from the artifact store *)
  store_saves : int;  (** artifacts written behind fresh builds *)
  store_invalid : int;
      (** artifacts that failed validation and were quarantined *)
  worker_id : int;
      (** which fleet worker produced this snapshot.  0 = a standalone
          daemon or a supervisor-side fleet aggregate; workers are
          numbered from 1. *)
  sessions_opened : int;  (** streaming sessions ever opened *)
  sessions_active : int;  (** sessions currently resident *)
  sessions_evicted : int;
      (** sessions dropped by the LRU cap before being closed *)
  session_updates : int;  (** [Update] requests applied *)
  session_dirty_gates : int;
      (** gates re-examined by dirty-cone updates, summed; the
          incremental work ratio is
          [session_dirty_gates / session_gates] *)
  session_gates : int;
      (** gates a from-scratch re-evaluation of the same updates would
          have swept (updates x circuit gate count) *)
}

type fleet_worker = {
  fw_id : int;  (** 1-based worker number, stable across restarts *)
  fw_pid : int;
  fw_addr : string;
      (** the worker's own endpoint in {!parse_addr} form — the
          spec-affinity router's shard targets *)
  fw_restarts : int;  (** crash restarts the supervisor performed *)
  fw_alive : bool;  (** false once the restart budget is exhausted *)
}

type session_opened = {
  so_sid : int;  (** server-assigned session id, unique per daemon *)
  so_fires : bool;  (** the circuit's output on the initial input *)
  so_firings : int;
}

type update_result = {
  ur_fires : bool;
  ur_firings : int;
  ur_dirty_gates : int;
      (** gates re-examined by this update's dirty cone *)
  ur_gates : int;
      (** total circuit gates — [ur_dirty_gates / ur_gates] is the
          update's incremental work ratio *)
}

type response =
  | Compiled of compiled
  | Matmul_result of Matrix.t * int  (** result matrix, gate firings *)
  | Trace_result of bool * int  (** [trace(A^3) >= tau], gate firings *)
  | Triangles_result of bool * int  (** at least [tau] triangles?, firings *)
  | Stats_result of Tcmm_threshold.Stats.t
  | Metrics_result of metrics
  | Pong
  | Shutting_down
  | Error of string
  | Overloaded
      (** load shed: the batcher queue is at capacity; retry later *)
  | Deadline_exceeded
      (** the request's deadline passed before its batch dispatched *)
  | Fleet_result of fleet_worker list
      (** answer to {!Fleet}: the supervisor's roster, or a singleton
          for a standalone daemon *)
  | Session_opened of session_opened  (** answer to [Open_session] *)
  | Update_result of update_result  (** answer to [Update] *)
  | Session_closed  (** answer to [Close_session] *)
  | Conv_result of int array array array * int
      (** answer to [Run_conv]: [scores.(k).(y).(x)] per kernel, plus
          gate firings.  Bit-identical to {!Tcmm_convnet.Conv.direct}. *)

(** {1 Binary encoding} *)

val encode_request : request -> string
(** Payload only (no length prefix); starts with the version byte. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val frame : string -> string
(** Prepend the 4-byte big-endian length.  Raises [Invalid_argument] on
    a payload longer than {!max_frame_len}. *)

(** {1 Incremental frame extraction}

    The serving daemon reads sockets in arbitrary chunks; a dechunker
    buffers bytes and yields complete payloads. *)

type dechunker

val create_dechunker : unit -> dechunker

val feed : dechunker -> bytes -> int -> int -> unit
(** [feed d src pos len] appends [len] bytes of [src] at [pos]. *)

val next_frame : dechunker -> [ `Frame of string | `More | `Corrupt of string ]
(** [`Frame payload] pops one complete payload; [`More] means the buffer
    holds only a partial frame; [`Corrupt] means the stream carries an
    invalid length prefix (zero or beyond {!max_frame_len}) and must be
    dropped. *)

val buffered : dechunker -> int
(** Bytes currently buffered (partial-frame backlog). *)

(** {1 Blocking frame I/O (client side)} *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame and write the whole payload (loops over short writes). *)

val read_frame : Unix.file_descr -> (string, string) result
(** Read exactly one frame.  [Error] on EOF or a corrupt length. *)

val read_frame_within :
  Unix.file_descr ->
  deadline:float ->
  now:(unit -> float) ->
  (string, [ `Timeout | `Closed of string ]) result
(** Like {!read_frame}, but every blocking read is guarded by a
    [select] against [deadline] (an absolute instant on the caller's
    [now] clock — the client passes {!Tcmm_util.Clock.now}).  A peer
    that stalls mid-frame surfaces as [`Timeout] instead of hanging
    forever; [`Closed] covers EOF and corrupt lengths. *)

(** {1 Addresses} *)

type addr = Unix_socket of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** ["HOST:PORT"] parses to [Tcp]; anything else is a Unix socket
    path. *)

val pp_addr : Format.formatter -> addr -> unit

val addr_string : addr -> string
(** Canonical ["HOST:PORT"] / socket-path form — round-trips through
    {!parse_addr} (the tagged {!pp_addr} form does not).  The fleet
    roster carries worker endpoints in this form, and the shard
    router's rendezvous hash is computed over it. *)

val sockaddr_of_addr : addr -> Unix.sockaddr

(** {1 Equality and printing (tests, CLI)} *)

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool
val pp_metrics : Format.formatter -> metrics -> unit
