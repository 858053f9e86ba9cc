(* Fleet serving: supervisor + K forked workers, spec-affinity routing.

   The process-level tests fork a real Fleet supervisor (which forks
   its workers) over loopback TCP using the bind-then-fork pattern:
   every port is concrete before the child exists.  The router
   properties are pure QCheck2. *)

module P = Tcmm_server.Protocol
module Server = Tcmm_server.Server
module Fleet = Tcmm_server.Fleet
module Client = Tcmm_server.Client
module Pool = Tcmm_server.Client.Pool
module T = Tcmm
module F = Tcmm_fastmm
module Prng = Tcmm_util.Prng
module S = Tcmm_test_support.Support
open QCheck2

(* ------------------------------------------------------------------ *)
(* Workload: one tiny circuit under several cache keys                 *)
(* ------------------------------------------------------------------ *)

(* [tau] is part of the spec key but ignored by matmul evaluation, so
   these four specs give the router four distinct keys to spread across
   workers while a single in-process oracle verifies every reply. *)
let spec tau =
  {
    P.kind = P.Matmul;
    algo = "strassen";
    schedule = "thm45";
    d = 2;
    n = 4;
    entry_bits = 2;
    signed = true;
    tau;
    kronpow = false;
  }

let specs = List.init 4 (fun t -> spec t)

let oracle_built =
  lazy
    (let algo = F.Instances.strassen in
     let schedule = T.Level_schedule.resolve ~algo ~name:"thm45" ~d:2 ~n:4 in
     T.Matmul_circuit.build ~algo ~schedule ~signed_inputs:true ~entry_bits:2
       ~n:4 ())

let oracle ~a ~b = T.Matmul_circuit.run (Lazy.force oracle_built) ~a ~b

let random_pair rng =
  ( F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3,
    F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 )

(* ------------------------------------------------------------------ *)
(* Harness                                                            *)
(* ------------------------------------------------------------------ *)

let grace_s = 8.

(* Bind the whole fleet in the parent, supervise in a forked child:
   front, control, and every worker endpoint are known (and listening)
   before any client runs, so there is no startup race to retry
   around. *)
let with_fleet ?(workers = 3) f =
  let cfg =
    {
      (Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      cache_capacity = 4;
      grace_s;
    }
  in
  let fcfg =
    {
      (Fleet.default_config cfg) with
      workers;
      restart_limit = 100;
      restart_window_s = 3600.;
    }
  in
  let handle = Fleet.bind fcfg in
  let front = Fleet.front_addr handle in
  let control = Fleet.control_addr handle in
  let endpoints = Fleet.endpoints handle in
  match Unix.fork () with
  | 0 ->
      (try Fleet.supervise handle with _ -> ());
      Unix._exit 0
  | pid ->
      Fleet.close_handle handle;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          let deadline = Unix.gettimeofday () +. grace_s +. 7. in
          let rec reap () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
            | 0, _ ->
                if Unix.gettimeofday () > deadline then begin
                  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                  try ignore (Unix.waitpid [] pid)
                  with Unix.Unix_error _ -> ()
                end
                else begin
                  Unix.sleepf 0.05;
                  reap ()
                end
            | _ -> ()
          in
          reap ())
        (fun () -> f ~front ~control ~endpoints ~sup_pid:pid)

let fetch_roster control =
  match Client.call control P.Fleet with
  | Ok (P.Fleet_result ws) -> ws
  | Ok _ -> Alcotest.fail "unexpected response to fleet roster request"
  | Error f -> Alcotest.failf "roster request failed: %a" Client.pp_failure f

let worker_metrics addr =
  match Client.call addr P.Metrics with
  | Ok (P.Metrics_result m) -> m
  | Ok _ -> Alcotest.fail "unexpected response to metrics"
  | Error f -> Alcotest.failf "metrics request failed: %a" Client.pp_failure f

let issue_verified pool sp pair =
  let a, b = pair in
  match
    Pool.call pool ~key:(Pool.key_of_spec sp) (P.Run_matmul (sp, a, b))
  with
  | Ok (P.Matmul_result (c, _)) ->
      S.check_bool "pool reply = Matmul_circuit.run" true
        (F.Matrix.equal c (oracle ~a ~b));
      S.check_bool "pool reply = integer reference" true
        (F.Matrix.equal c (F.Matrix.mul a b))
  | Ok _ -> Alcotest.fail "unexpected response to pooled run"
  | Error f -> Alcotest.failf "pooled run failed: %a" Client.pp_failure f

(* ------------------------------------------------------------------ *)
(* Spec affinity: repeated specs land on their rendezvous shard        *)
(* ------------------------------------------------------------------ *)

let test_spec_affinity () =
  with_fleet ~workers:3 (fun ~front:_ ~control ~endpoints ~sup_pid:_ ->
      let pool = Pool.create endpoints in
      let eps = Array.of_list endpoints in
      let index_of addr =
        let rec go i =
          if i >= Array.length eps then
            Alcotest.fail "shard not in the endpoint list"
          else if eps.(i) = addr then i
          else go (i + 1)
        in
        go 0
      in
      let per_spec = 6 in
      let expected = Array.make (Array.length eps) 0 in
      let rng = Prng.create ~seed:3 in
      List.iter
        (fun sp ->
          let shard = Pool.shard pool ~key:(Pool.key_of_spec sp) in
          expected.(index_of shard) <- expected.(index_of shard) + per_spec;
          for _ = 1 to per_spec do
            issue_verified pool sp (random_pair rng)
          done)
        specs;
      (* Nothing was killed, so routing is pure affinity: each worker's
         own run counter must equal exactly the requests of the specs
         that hash to it — proof the repeated specs landed on one
         worker's hot cache rather than spraying. *)
      let ws = fetch_roster control in
      Array.iteri
        (fun i ep ->
          let m = worker_metrics ep in
          S.check_int
            (Printf.sprintf "worker %d run_requests" (i + 1))
            expected.(i) m.P.run_requests;
          let w =
            List.find (fun w -> w.P.fw_addr = P.addr_string ep) ws
          in
          S.check_int
            (Printf.sprintf "worker %d stamps its id" (i + 1))
            w.P.fw_id m.P.worker_id)
        eps)

(* ------------------------------------------------------------------ *)
(* SIGKILL one worker mid-burst                                       *)
(* ------------------------------------------------------------------ *)

let test_kill_one_mid_burst () =
  with_fleet ~workers:3 (fun ~front:_ ~control ~endpoints ~sup_pid:_ ->
      let pool = Pool.create endpoints in
      let sp = spec 0 in
      let key = Pool.key_of_spec sp in
      let shard = Pool.shard pool ~key in
      let rng = Prng.create ~seed:5 in
      (* First pipelined burst straight at the shard: all served, all
         bit-identical. *)
      let cl = Client.connect shard in
      let first = Array.init 15 (fun _ -> random_pair rng) in
      Array.iter (fun (a, b) -> Client.send cl (P.Run_matmul (sp, a, b))) first;
      Array.iter
        (fun (a, b) ->
          match Client.recv cl with
          | Ok (P.Matmul_result (c, _)) ->
              S.check_bool "pre-kill reply bit-identical" true
                (F.Matrix.equal c (oracle ~a ~b))
          | Ok _ -> Alcotest.fail "unexpected response in first burst"
          | Error e -> Alcotest.fail e)
        first;
      (* SIGKILL the shard's worker, then keep driving the now-dead
         connection: every request must resolve — a served reply that
         is bit-identical, or a transport failure that completes on
         re-issue through the failing-over pool.  Nothing may be
         silently dropped. *)
      let w =
        List.find
          (fun w -> w.P.fw_addr = P.addr_string shard)
          (fetch_roster control)
      in
      Unix.kill w.P.fw_pid Sys.sigkill;
      let second = Array.init 15 (fun _ -> random_pair rng) in
      let sent = ref [] in
      let unanswered = ref [] in
      (try
         Array.iter
           (fun pair ->
             let a, b = pair in
             Client.send cl (P.Run_matmul (sp, a, b));
             sent := pair :: !sent)
           second
       with Unix.Unix_error _ | Sys_error _ -> ());
      let not_sent =
        let n_sent = List.length !sent in
        Array.to_list second |> List.filteri (fun i _ -> i >= n_sent)
      in
      let rec collect = function
        | [] -> ()
        | (a, b) :: rest -> (
            match Client.recv cl with
            | Ok (P.Matmul_result (c, _)) ->
                S.check_bool "raced-out reply still bit-identical" true
                  (F.Matrix.equal c (oracle ~a ~b));
                collect rest
            | Ok _ -> Alcotest.fail "unexpected response in second burst"
            | Error _ -> unanswered := List.rev_append rest ((a, b) :: !unanswered))
      in
      collect (List.rev !sent);
      Client.close cl;
      let to_reissue = not_sent @ !unanswered in
      S.check_bool "the kill actually disrupted the burst" true
        (to_reissue <> []);
      (* Failover completes every disrupted request against the
         restarted worker (same endpoint — the supervisor kept the
         listening socket). *)
      List.iter (fun pair -> issue_verified pool sp pair) to_reissue;
      let restarts =
        List.fold_left
          (fun acc w -> acc + w.P.fw_restarts)
          0 (fetch_roster control)
      in
      S.check_bool "supervisor restarted the killed worker" true
        (restarts >= 1))

(* ------------------------------------------------------------------ *)
(* Fleet-wide status and aggregation                                  *)
(* ------------------------------------------------------------------ *)

let test_fleet_status_aggregate () =
  with_fleet ~workers:3 (fun ~front:_ ~control ~endpoints ~sup_pid:_ ->
      let pool = Pool.create endpoints in
      let rng = Prng.create ~seed:9 in
      let total = 10 in
      for i = 0 to total - 1 do
        issue_verified pool (List.nth specs (i mod 4)) (random_pair rng)
      done;
      let ws = fetch_roster control in
      S.check_int "roster size" 3 (List.length ws);
      List.iteri
        (fun i w ->
          S.check_int "worker ids are 1-based and ordered" (i + 1) w.P.fw_id;
          S.check_bool "worker alive" true w.P.fw_alive;
          S.check_bool "worker has a pid" true (w.P.fw_pid > 0);
          S.check_int "no restarts in a clean run" 0 w.P.fw_restarts)
        ws;
      (* The control-plane aggregate sums every worker: all issued runs
         appear once, the accounting identity survives summation, and
         the snapshot is stamped as supervisor-side. *)
      let m = worker_metrics control in
      S.check_int "aggregate run_requests" total m.P.run_requests;
      S.check_int "aggregate worker_id" 0 m.P.worker_id;
      S.check_int "aggregate accounting identity" m.P.accepted
        (m.P.run_requests + m.P.deadline_expired + m.P.eval_failures))

(* ------------------------------------------------------------------ *)
(* SIGTERM drain                                                      *)
(* ------------------------------------------------------------------ *)

let test_sigterm_drain () =
  with_fleet ~workers:3 (fun ~front ~control:_ ~endpoints:_ ~sup_pid ->
      (* Serve something first so workers are warm, then require the
         whole fleet to exit within the grace period (plus scheduling
         slack). *)
      let rng = Prng.create ~seed:13 in
      let a, b = random_pair rng in
      (match Client.call front (P.Run_matmul (spec 0, a, b)) with
      | Ok (P.Matmul_result (c, _)) ->
          S.check_bool "front-socket reply bit-identical" true
            (F.Matrix.equal c (oracle ~a ~b))
      | Ok _ -> Alcotest.fail "unexpected response via front socket"
      | Error f -> Alcotest.failf "front request failed: %a" Client.pp_failure f);
      Unix.kill sup_pid Sys.sigterm;
      let deadline = Unix.gettimeofday () +. grace_s +. 4. in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] sup_pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "fleet did not exit within the grace period"
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
        | _, status ->
            S.check_bool "supervisor exited cleanly" true
              (status = Unix.WEXITED 0)
      in
      wait ())

(* ------------------------------------------------------------------ *)
(* Router properties (pure)                                           *)
(* ------------------------------------------------------------------ *)

let gen_endpoints =
  let open Gen in
  let* k = int_range 2 8 in
  let* base = int_range 1025 60000 in
  let+ step = int_range 1 97 in
  List.init k (fun i -> P.Tcp ("127.0.0.1", base + (i * step)))

let gen_key =
  Gen.(string_size ~gen:printable (int_range 1 40))

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Prng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let sorted_addrs eps =
  List.sort compare (List.map P.addr_string eps)

let router_deterministic =
  S.qcheck_case ~count:300 "shard is deterministic and list-order independent"
    Gen.(triple gen_endpoints gen_key small_int)
    (fun (eps, key, seed) ->
      let p1 = Pool.create eps in
      let p2 = Pool.create (shuffle ~seed eps) in
      Pool.shard p1 ~key = Pool.shard p2 ~key
      && Pool.rank p1 ~key = Pool.rank p2 ~key
      && Pool.shard p1 ~key = Pool.shard p1 ~key)

let router_rank_permutation =
  S.qcheck_case ~count:300 "failover order is a permutation of the endpoints"
    Gen.(pair gen_endpoints gen_key)
    (fun (eps, key) ->
      let rank = Pool.rank (Pool.create eps) ~key in
      sorted_addrs rank = sorted_addrs eps)

let router_bounded_disruption =
  S.qcheck_case ~count:300
    "removing an endpoint only remaps the keys it owned"
    Gen.(triple gen_endpoints (list_size (int_range 1 20) gen_key) small_int)
    (fun (eps, keys, pick) ->
      let removed = List.nth eps (pick mod List.length eps) in
      let survivors = List.filter (fun e -> e <> removed) eps in
      survivors = []
      || let before = Pool.create eps in
         let after = Pool.create survivors in
         List.for_all
           (fun key ->
             let s = Pool.shard before ~key in
             if s <> removed then
               (* unaffected keys keep their shard, bit for bit *)
               Pool.shard after ~key = s
             else
               (* an owned key falls to its old second choice *)
               Pool.shard after ~key
               = List.nth (Pool.rank before ~key) 1)
           keys)

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "tcmm_fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "spec affinity" `Quick test_spec_affinity;
          Alcotest.test_case "SIGKILL one worker mid-burst" `Quick
            test_kill_one_mid_burst;
          Alcotest.test_case "fleet status and aggregation" `Quick
            test_fleet_status_aggregate;
          Alcotest.test_case "SIGTERM drain" `Quick test_sigterm_drain;
        ] );
      ( "router",
        [
          router_deterministic;
          router_rank_permutation;
          router_bounded_disruption;
        ] );
    ]
