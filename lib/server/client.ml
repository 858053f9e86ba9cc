type t = { fd : Unix.file_descr }

let connect addr =
  let domain =
    match addr with
    | Protocol.Unix_socket _ -> Unix.PF_UNIX
    | Protocol.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Protocol.Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Protocol.Unix_socket _ -> ());
  (try Unix.connect fd (Protocol.sockaddr_of_addr addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection addr f =
  let t = connect addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let send t req = Protocol.write_frame t.fd (Protocol.encode_request req)

let recv t =
  match Protocol.read_frame t.fd with
  | Error _ as e -> e
  | Ok payload -> Protocol.decode_response payload

let request t req =
  send t req;
  recv t

let shutdown addr =
  with_connection addr (fun t ->
      match request t Protocol.Shutdown with
      | Ok Protocol.Shutting_down -> Ok ()
      | Ok (Protocol.Error msg) -> Error msg
      | Ok _ -> Error "unexpected response to shutdown"
      | Error _ as e -> e)

(* ------------------------------------------------------------------ *)
(* Streaming sessions                                                 *)
(* ------------------------------------------------------------------ *)

(* Typed wrappers on one connection.  No retry machinery: session
   requests are stateful ([idempotent] below says no), so ambiguous
   failures surface to the caller instead of being re-sent. *)

let open_session t spec m =
  match request t (Protocol.Open_session (spec, m)) with
  | Ok (Protocol.Session_opened s) -> Ok s
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> Error "unexpected response to open_session"
  | Error _ as e -> e

let update t ~sid delta =
  match request t (Protocol.Update (sid, delta)) with
  | Ok (Protocol.Update_result u) -> Ok u
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> Error "unexpected response to update"
  | Error _ as e -> e

let close_session t ~sid =
  match request t (Protocol.Close_session sid) with
  | Ok Protocol.Session_closed -> Ok ()
  | Ok (Protocol.Error msg) -> Error msg
  | Ok _ -> Error "unexpected response to close_session"
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Deadlines and bounded retry                                        *)
(* ------------------------------------------------------------------ *)

type failure =
  | Timeout
  | Overloaded
  | Deadline_exceeded
  | Transport of string
  | Remote of string

let pp_failure ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Overloaded -> Format.pp_print_string ppf "overloaded"
  | Deadline_exceeded -> Format.pp_print_string ppf "deadline exceeded"
  | Transport msg -> Format.fprintf ppf "transport: %s" msg
  | Remote msg -> Format.fprintf ppf "remote: %s" msg

type policy = {
  attempts : int;
  timeout_ms : float;
  base_delay_ms : float;
  max_delay_ms : float;
}

let default_policy =
  { attempts = 3; timeout_ms = 5000.; base_delay_ms = 25.; max_delay_ms = 1000. }

(* Retrying is only sound because the protocol's non-[Shutdown]
   requests are idempotent: a request is a pure function of its spec
   and payload (circuit building is deterministic and cached by spec;
   evaluation has no server-side state a duplicate could corrupt), so
   re-sending after an ambiguous failure — the reply may or may not
   have been computed — at worst evaluates twice and returns the same
   bits.  [Shutdown] is excluded: its effect is external, and so are
   the session requests: a duplicate [Open_session] leaks a second
   session (and can LRU-evict a live one), a duplicate [Update] or
   [Close_session] mutates state whose first copy may already have
   been applied. *)
let idempotent = function
  | Protocol.Shutdown | Protocol.Open_session _ | Protocol.Update _
  | Protocol.Close_session _ ->
      false
  | Protocol.Compile _ | Protocol.Run_matmul _ | Protocol.Run_trace _
  | Protocol.Run_triangles _ | Protocol.Run_conv _ | Protocol.Stats _
  | Protocol.Metrics | Protocol.Ping | Protocol.Fleet ->
      true

(* One attempt on a fresh connection, reply read bounded by an absolute
   deadline so a stalled or killed server surfaces as [Timeout], never
   a hang. *)
let attempt addr req ~deadline =
  match connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Transport (Unix.error_message e))
  | t ->
      Fun.protect
        ~finally:(fun () -> close t)
        (fun () ->
          match send t req with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Transport (Unix.error_message e))
          | () -> (
              match
                Protocol.read_frame_within t.fd ~deadline
                  ~now:Tcmm_util.Clock.now
              with
              | Error `Timeout -> Error Timeout
              | Error (`Closed msg) -> Error (Transport msg)
              | Ok payload -> (
                  match Protocol.decode_response payload with
                  | Error msg -> Error (Transport msg)
                  | Ok Protocol.Overloaded -> Error Overloaded
                  | Ok Protocol.Deadline_exceeded -> Error Deadline_exceeded
                  | Ok (Protocol.Error msg) -> Error (Remote msg)
                  | Ok resp -> Ok resp)))

(* [Remote] is the server deterministically rejecting the request (bad
   spec, shape mismatch) — retrying cannot change the answer. *)
let retryable = function
  | Timeout | Overloaded | Deadline_exceeded | Transport _ -> true
  | Remote _ -> false

let call ?(policy = default_policy) ?(seed = 0x5eed) addr req =
  if policy.attempts < 1 then invalid_arg "Client.call: attempts < 1";
  let rng = Tcmm_util.Prng.create ~seed in
  let rec go k =
    let deadline = Tcmm_util.Clock.now () +. (policy.timeout_ms /. 1000.) in
    match attempt addr req ~deadline with
    | Ok _ as ok -> ok
    | Error f when retryable f && idempotent req && k + 1 < policy.attempts ->
        (* Full jitter: sleep a uniform fraction of the exponential
           backoff so synchronized retry storms decorrelate. *)
        let cap =
          Float.min policy.max_delay_ms
            (policy.base_delay_ms *. Float.of_int (1 lsl Stdlib.min k 20))
        in
        let delay_s = Tcmm_util.Prng.float rng *. cap /. 1000. in
        if delay_s > 0. then Unix.sleepf delay_s;
        go (k + 1)
    | Error _ as e -> e
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Spec-affinity shard router                                         *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type pool = { endpoints : Protocol.addr array }
  type t = pool

  let create endpoints =
    if endpoints = [] then invalid_arg "Client.Pool.create: no endpoints";
    { endpoints = Array.of_list endpoints }

  let endpoints t = Array.to_list t.endpoints
  let size t = Array.length t.endpoints
  let key_of_spec = Circuit_cache.key

  (* FNV-1a over 64 bits.  The offset basis does not fit OCaml's 63-bit
     native int, so the hash lives in Int64 and comparisons are
     unsigned. *)
  let fnv1a64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    !h

  let score ~key addr = fnv1a64 (key ^ "\x00" ^ Protocol.addr_string addr)

  (* Rendezvous (highest-random-weight) ranking.  Every (key, endpoint)
     pair is scored independently, so the relative order of surviving
     endpoints never changes when one is removed: a key moves only if
     its top-ranked endpoint vanished, every other key keeps its shard
     (bounded disruption), and the failover order is by construction a
     permutation of the endpoints.  Ties (astronomically unlikely with
     distinct endpoints) break on the canonical address string so the
     ranking stays a deterministic total order. *)
  let rank t ~key =
    let scored = Array.map (fun a -> (score ~key a, a)) t.endpoints in
    Array.sort
      (fun (sa, aa) (sb, ab) ->
        match Int64.unsigned_compare sb sa with
        | 0 -> compare (Protocol.addr_string aa) (Protocol.addr_string ab)
        | c -> c)
      scored;
    Array.to_list (Array.map snd scored)

  let shard t ~key =
    match rank t ~key with [] -> assert false | addr :: _ -> addr

  (* Failover walks the rank order, spending the full bounded-retry
     [call] budget on each endpoint before moving on.  The same
     idempotence argument as [call] applies — and caps the walk: a
     non-idempotent request or a deterministic [Remote] rejection never
     fails over. *)
  let call ?policy ?seed t ~key req =
    let rec go = function
      | [] -> assert false
      | [ addr ] -> call ?policy ?seed addr req
      | addr :: rest -> (
          match call ?policy ?seed addr req with
          | Ok _ as ok -> ok
          | Error f when retryable f && idempotent req -> go rest
          | Error _ as e -> e)
    in
    go (rank t ~key)
end
