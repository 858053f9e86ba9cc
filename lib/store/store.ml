let src = Logs.Src.create "tcmm.store" ~doc:"Compiled-circuit artifact store"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  dir : string;
  mutable n_loads : int;
  mutable n_saves : int;
  mutable n_invalid : int;
}

type counters = { loads : int; saves : int; invalid : int }

let rec mkdir_p path =
  if path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir () =
  match
    mkdir_p dir;
    if not (Sys.is_directory dir) then Error (dir ^ " is not a directory")
    else Ok { dir; n_loads = 0; n_saves = 0; n_invalid = 0 }
  with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

let dir t = t.dir
let counters t = { loads = t.n_loads; saves = t.n_saves; invalid = t.n_invalid }

(* Spec keys contain ['|'], ['='] and anything an algorithm name holds;
   percent-encode everything outside the portable filename set.  The
   encoding is injective, so distinct keys never collide on disk. *)
let sanitize key =
  let b = Buffer.create (String.length key + 8) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    key;
  Buffer.contents b

let path_of_key t key = Filename.concat t.dir (sanitize key ^ ".tcmm")

let quarantine t path reason =
  t.n_invalid <- t.n_invalid + 1;
  let dest = path ^ ".corrupt" in
  (try Unix.rename path dest
   with e ->
     Log.warn (fun m ->
         m "could not quarantine %s: %s" path (Printexc.to_string e)));
  Log.warn (fun m -> m "quarantined %s: %s" path reason)

let find t ~key =
  let path = path_of_key t key in
  if not (Sys.file_exists path) then None
  else
    match Artifact.read ~key ~path () with
    | Ok a ->
        t.n_loads <- t.n_loads + 1;
        if a.Artifact.a_kern_recompiled then
          Log.info (fun m ->
              m "loaded %s (%d bytes), kernels recompiled (artifact rev %d, current %d)"
                path a.Artifact.a_bytes a.Artifact.a_header.Artifact.h_kernel_rev
                Tcmm_threshold.Kernel.format_rev)
        else Log.info (fun m -> m "loaded %s (%d bytes)" path a.Artifact.a_bytes);
        Some a
    | Error reason ->
        quarantine t path reason;
        None

let save t ~meta packed =
  let path = path_of_key t meta.Artifact.m_key in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match Artifact.write ~path:tmp meta packed with
  | Ok bytes -> (
      match Unix.rename tmp path with
      | () ->
          t.n_saves <- t.n_saves + 1;
          Log.info (fun m -> m "saved %s (%d bytes)" path bytes);
          Ok bytes
      | exception e ->
          (try Unix.unlink tmp with _ -> ());
          let m = Printexc.to_string e in
          Log.err (fun f -> f "could not publish %s: %s" path m);
          Error m)
  | Error m ->
      (try Unix.unlink tmp with _ -> ());
      Log.err (fun f -> f "could not write %s: %s" tmp m);
      Error m

let artifact_files t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tcmm")
  |> List.sort compare

let list t =
  List.map
    (fun f -> (f, Artifact.read_header ~path:(Filename.concat t.dir f)))
    (artifact_files t)

let is_temp f =
  match String.rindex_opt f '.' with
  | Some _ ->
      (* <base>.tmp.<pid> *)
      let rec has_tmp i =
        match String.index_from_opt f i '.' with
        | None -> false
        | Some j ->
            String.length f - j > 4 && String.sub f j 5 = ".tmp." || has_tmp (j + 1)
      in
      has_tmp 0
  | None -> false

let gc t ~removed =
  let freed = ref 0 in
  Array.iter
    (fun f ->
      let path = Filename.concat t.dir f in
      let dead =
        if Filename.check_suffix f ".corrupt" || is_temp f then true
        else if Filename.check_suffix f ".tcmm" then
          match Artifact.read_header ~path with Ok _ -> false | Error _ -> true
        else false
      in
      if dead then begin
        let bytes = try (Unix.stat path).Unix.st_size with _ -> 0 in
        match Unix.unlink path with
        | () ->
            freed := !freed + bytes;
            removed f
        | exception e ->
            Log.warn (fun m -> m "gc could not remove %s: %s" path (Printexc.to_string e))
      end)
    (Sys.readdir t.dir);
  !freed
