(* The deployment under test: a [Tcmm_server.Fleet] of two workers over a
   fresh artifact-store directory, forked from the benchmark process and
   drained through the control plane.

   The benchmark process never spawns a domain (OCaml 5 forbids [fork]
   afterwards), and every scratch file lives under [.perfbench_tmp/] in
   the working directory and is removed when the run ends. *)

module P = Tcmm_server.Protocol
module Client = Tcmm_server.Client
module Fleet = Tcmm_server.Fleet
module Server = Tcmm_server.Server

let workers = 2

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                *)
(* ------------------------------------------------------------------ *)

let tmp_root = ".perfbench_tmp"
let counter = ref 0
let created = ref []  (* scratch directories of this process not yet removed *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir () =
  if not (Sys.file_exists tmp_root) then Unix.mkdir tmp_root 0o700;
  incr counter;
  let d =
    Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf d;
  Unix.mkdir d 0o700;
  created := d :: !created;
  d

let remove_dir d =
  rm_rf d;
  created := List.filter (( <> ) d) !created;
  (* Leave nothing behind: drop the root too once no run uses it. *)
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* /proc readings of the worker processes                             *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf failwith fmt

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> fail "cannot read %s" path

(* CPU time consumed by a process, in seconds (schedstat's run time). *)
let cpu_seconds pid =
  let schedstat = Printf.sprintf "/proc/%d/schedstat" pid in
  match String.split_on_char ' ' (read_file schedstat) with
  | ns :: _ when ns <> "" -> float_of_string ns /. 1e9
  | _ -> fail "cannot parse %s" schedstat

(* Peak resident set (VmHWM) of a process, in MiB. *)
let hwm_mb pid =
  let status = Printf.sprintf "/proc/%d/status" pid in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
        | _ -> None)
      (String.split_on_char '\n' (read_file status))
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> fail "no VmHWM in %s" status

(* ------------------------------------------------------------------ *)
(* Fleet lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  sup_pid : int;
  endpoints : P.addr array;  (** worker spec-affinity endpoints, in order *)
  control : P.addr;
  store_dir : string;
  mutable worker_pids : int list;
}

let control_call t req =
  match Client.call t.control req with
  | Ok r -> r
  | Error f -> fail "control plane: %s" (Format.asprintf "%a" Client.pp_failure f)

let roster t =
  match control_call t P.Fleet with
  | P.Fleet_result ws -> ws
  | _ -> fail "control plane: unexpected reply to Fleet"

let metrics t =
  match control_call t P.Metrics with
  | P.Metrics_result m -> m
  | _ -> fail "control plane: unexpected reply to Metrics"

(* Fleets started and not yet stopped. *)
let live : t list ref = ref []

let start ~flush_ms ~store_dir =
  let server =
    {
      (Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      Server.store = Some store_dir;
      flush_ms;
    }
  in
  let handle = Fleet.bind { (Fleet.default_config server) with Fleet.workers } in
  let endpoints = Array.of_list (Fleet.endpoints handle) in
  let control = Fleet.control_addr handle in
  (* Workers leave through [Stdlib.exit], which flushes inherited
     channel buffers: empty them first. *)
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (* Own process group: the supervisor and its workers can be
         killed together as a last resort. *)
      ignore (Unix.setsid ());
      List.iter
        (fun s -> Sys.set_signal s Sys.Signal_default)
        [ Sys.sigalrm; Sys.sigint; Sys.sigterm ];
      (try Fleet.supervise handle with _ -> ());
      Unix._exit 0
  | sup_pid ->
      Fleet.close_handle handle;
      let t = { sup_pid; endpoints; control; store_dir; worker_pids = [] } in
      live := t :: !live;
      t

let compile ep spec =
  match Client.with_connection ep (fun c -> Client.request c (P.Compile spec)) with
  | Ok (P.Compiled _) -> ()
  | Ok (P.Error msg) -> fail "compile %s: %s" (Workload.key spec) msg
  | Ok _ -> fail "compile %s: unexpected reply" (Workload.key spec)
  | Error msg -> fail "compile %s: %s" (Workload.key spec) msg

(* Start a fleet over [store_dir] and make every spec resident on
   every worker, in endpoint order. *)
let deploy ~flush_ms specs ~store_dir =
  let t = start ~flush_ms ~store_dir in
  Array.iter (fun ep -> List.iter (compile ep) specs) t.endpoints;
  t.worker_pids <- List.map (fun w -> w.P.fw_pid) (roster t);
  t

(* Cold set-up on a fresh, empty store: the first worker builds and
   saves each circuit, the other loads it warm.  Returns the fleet and
   the wall time from [Fleet.bind] to the last resident spec. *)
let setup ~flush_ms specs =
  let t0 = Tcmm_util.Clock.now () in
  let t = deploy ~flush_ms specs ~store_dir:(fresh_dir ()) in
  (t, Tcmm_util.Clock.now () -. t0)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if not (alive pid) then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

let kill t =
  (try Unix.kill (-t.sup_pid) Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit t.sup_pid ~timeout:5.)

(* Drain through a control-plane [Shutdown]; fall back to SIGTERM and
   finally SIGKILL of the whole process group, then remove the store
   directory unless [keep_store].  True when the drain went through the
   control plane. *)
let stop ?(keep_store = false) t =
  live := List.filter (fun t' -> t'.sup_pid <> t.sup_pid) !live;
  let drained =
    (match Client.shutdown t.control with Ok () -> true | Error _ -> false)
    && wait_exit t.sup_pid ~timeout:30.
  in
  if not drained then begin
    (try Unix.kill t.sup_pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit t.sup_pid ~timeout:15.) then kill t
  end;
  if not keep_store then remove_dir t.store_dir;
  drained

let cpu_seconds_total t = List.fold_left (fun acc p -> acc +. cpu_seconds p) 0. t.worker_pids
let hwm_mb_total t = List.fold_left (fun acc p -> acc +. hwm_mb p) 0. t.worker_pids

(* After an error: drain every fleet still up.  [now] (the run overran
   its time limit) kills them instead.  Either way remove this process's
   scratch directories. *)
let stop_all ~now =
  List.iter (fun t -> if now then kill t else ignore (stop t)) !live;
  live := [];
  List.iter remove_dir !created
