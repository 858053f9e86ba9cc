(* Shared helpers for the alcotest suites. *)

open Tcmm_threshold

(* Build a circuit with [num_inputs] inputs using [f], simulate it on
   [input], and return [f]'s handle together with a wire reader. *)
let run_on ~num_inputs f input =
  let b = Builder.create () in
  let ins = Builder.add_inputs b num_inputs in
  let handle = f b ins in
  let c = Builder.finalize b in
  let r = Simulator.run ~check:true c input in
  (handle, fun w -> Simulator.value r w)

(* Enumerate all 2^n boolean vectors of length n (n <= 20). *)
let all_inputs n =
  if n > 20 then invalid_arg "Support.all_inputs: too many inputs";
  List.init (1 lsl n) (fun mask ->
      Array.init n (fun i -> (mask lsr i) land 1 = 1))

(* Interpret a boolean vector as the little-endian binary number it sets. *)
let int_of_bools bs =
  Array.to_list bs
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let bools_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

(* Alcotest checkers. *)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qcheck_case ?(count = 200) name gen prop =
  QCheck2.Test.make ~count ~name gen prop |> fun t ->
  let t = QCheck_alcotest.to_alcotest t in
  t

(* A fresh directory under the system temp dir, removed with everything
   below it once [f] returns or raises. *)
let with_temp_dir f =
  let dir = Filename.temp_file "tcmm_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec remove d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then remove p
          else try Sys.remove p with Sys_error _ -> ())
        (Sys.readdir d);
      try Sys.rmdir d with Sys_error _ -> ()
    end
  in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () -> f dir
