(** Blocking client for the serving daemon.

    One connection, synchronous request/response by default; {!send} /
    {!recv} expose the pipelined half-duplex form the coalescing bench
    uses (write a burst of requests, then read the burst of replies —
    the server buffers responses, so this cannot deadlock). *)

type t

val connect : Protocol.addr -> t
(** Raises [Unix.Unix_error] when the server is not reachable. *)

val close : t -> unit

val with_connection : Protocol.addr -> (t -> 'a) -> 'a
(** Connect, run, close (also on exceptions). *)

val send : t -> Protocol.request -> unit
(** Write one framed request (blocking). *)

val recv : t -> (Protocol.response, string) result
(** Read one framed response (blocking).  [Error] on EOF, a connection
    reset by the peer, or a corrupt frame. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** [send] then [recv]. *)

val shutdown : Protocol.addr -> (unit, string) result
(** Connect, send [Shutdown], await [Shutting_down]. *)

(** {1 Streaming sessions (protocol v6)}

    Typed wrappers over one connection.  Session requests are stateful,
    so none of them participate in {!call}'s retry machinery: an
    ambiguous transport failure surfaces as [Error] instead of being
    re-sent (a duplicate [Open_session] would leak a server-side
    session; a duplicate [Update] would double-count metrics). *)

val open_session :
  t ->
  Protocol.spec ->
  Protocol.Matrix.t ->
  (Protocol.session_opened, string) result
(** Open a dirty-cone session on a [Trace] / [Triangles] circuit,
    evaluated from scratch on the given matrix. *)

val update :
  t ->
  sid:int ->
  (int * bool) array ->
  (Protocol.update_result, string) result
(** Apply an input-bit delta (e.g. {!Tcmm_graph.Stream.delta}'s output)
    to an open session; only the dirty cone re-evaluates. *)

val close_session : t -> sid:int -> (unit, string) result

(** {1 Deadlines and bounded retry} *)

type failure =
  | Timeout  (** no complete reply frame before the attempt's deadline *)
  | Overloaded  (** server shed the request at its admission gate *)
  | Deadline_exceeded  (** server expired the request before dispatch *)
  | Transport of string  (** connect / send / read / decode failure *)
  | Remote of string
      (** server answered [Error] — deterministic rejection, never
          retried *)

val pp_failure : Format.formatter -> failure -> unit

type policy = {
  attempts : int;  (** total attempts (first try included); >= 1 *)
  timeout_ms : float;  (** per-attempt reply deadline *)
  base_delay_ms : float;  (** backoff base; attempt [k] waits up to
                              [base * 2^k] *)
  max_delay_ms : float;  (** backoff cap *)
}

val default_policy : policy
(** 3 attempts, 5 s timeout, 25 ms base, 1 s cap. *)

val call :
  ?policy:policy ->
  ?seed:int ->
  Protocol.addr ->
  Protocol.request ->
  (Protocol.response, failure) result
(** One logical request with per-attempt deadlines and bounded,
    full-jitter exponential backoff, each attempt on a fresh
    connection.  Retrying after an ambiguous failure (the server may or
    may not have evaluated the request) is sound {e only} because every
    non-[Shutdown] request is idempotent: a pure, spec-keyed
    computation whose duplicate evaluation returns the same bits and
    mutates nothing.  [Shutdown] is therefore never retried, and
    [Remote] (a deterministic rejection) never retries either.  [seed]
    feeds the jitter PRNG — deterministic for tests. *)

(** {1 Spec-affinity shard router}

    Client-side routing over a fleet of worker endpoints.  Requests
    hash their circuit-spec key to a preferred worker (rendezvous /
    highest-random-weight hashing over FNV-1a64 of [key ++ endpoint]),
    so repeated requests for the same circuit land on the worker whose
    {!Circuit_cache} already holds it hot.  Rendezvous hashing gives
    the three properties the property suite checks: the shard is a
    deterministic function of (key, endpoint set) independent of list
    order; the failover ranking is a permutation of the endpoints; and
    removing one endpoint remaps {e only} the keys it owned. *)

module Pool : sig
  type t

  val create : Protocol.addr list -> t
  (** Raises [Invalid_argument] on an empty list.  Duplicate endpoints
      are kept (they score identically and tie-break stably). *)

  val endpoints : t -> Protocol.addr list
  val size : t -> int

  val key_of_spec : Protocol.spec -> string
  (** The canonical routing key: {!Circuit_cache.key} — the same string
      the server keys its circuit cache by, so affinity lines up with
      cache residency exactly. *)

  val rank : t -> key:string -> Protocol.addr list
  (** All endpoints in descending rendezvous-score order: head is the
      preferred shard, the tail the failover sequence. *)

  val shard : t -> key:string -> Protocol.addr
  (** [List.hd (rank t ~key)]. *)

  val call :
    ?policy:policy ->
    ?seed:int ->
    t ->
    key:string ->
    Protocol.request ->
    (Protocol.response, failure) result
  (** {!Client.call} against the preferred shard, failing over down the
      {!rank} order when an endpoint exhausts its retry budget with a
      retryable failure.  Non-idempotent requests and deterministic
      [Remote] rejections never fail over, mirroring {!Client.call}'s
      retry rules. *)
end
