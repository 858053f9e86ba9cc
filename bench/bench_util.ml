(* Shared helpers for the benchmark harness. *)

module Tb = Tcmm_util.Tablefmt

(* Wall-clock measurement through bechamel: returns (name, ns/run) for
   each test, via OLS against the run counter. *)
let measure_ns tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"bench" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      (name, estimate) :: acc)
    results []
  |> List.sort compare

let ns_cell ns =
  if Float.is_nan ns then Tb.Str "n/a"
  else if ns >= 1e9 then Tb.Str (Printf.sprintf "%.2f s" (ns /. 1e9))
  else if ns >= 1e6 then Tb.Str (Printf.sprintf "%.2f ms" (ns /. 1e6))
  else if ns >= 1e3 then Tb.Str (Printf.sprintf "%.2f us" (ns /. 1e3))
  else Tb.Str (Printf.sprintf "%.0f ns" ns)

let header title =
  Printf.printf "\n######## %s ########\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_simulator.json)                    *)
(* ------------------------------------------------------------------ *)

(* Benches record their headline numbers here so the perf trajectory is
   tracked across PRs in version control, not only in stdout tables. *)

type json = Int of int | Float of float | Str of string | Bool of bool

(* Set while a [-smoke] variant runs.  Its records are a CI subset of
   the full experiment's, under the same experiment name, so they go to
   a git-ignored [BENCH_*.smoke.json] beside the committed full-run
   file instead of overwriting it. *)
let smoke = ref false

let json_records : (bool * string * (string * json) list) list ref = ref []

let record ~experiment fields =
  json_records := (!smoke, experiment, fields) :: !json_records

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f then Buffer.add_string buf "null"
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s))
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let write_records path = function
  | [] -> ()
  | records ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "{\n  \"benches\": [\n";
      List.iteri
        (fun i (experiment, fields) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf
            (Printf.sprintf "    { \"experiment\": \"%s\"" (json_escape experiment));
          List.iter
            (fun (k, v) ->
              Buffer.add_string buf (Printf.sprintf ", \"%s\": " (json_escape k));
              json_value buf v)
            fields;
          Buffer.add_string buf " }")
        records;
      Buffer.add_string buf "\n  ]\n}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "\nwrote %s (%d records)\n%!" path (List.length records)

(* Writes the records collected so far whose experiment name satisfies
   [only] (no-op when none match): full-run records to [path], smoke
   records to [path] with [.smoke.json] for its extension. *)
let write_json ?(only = fun _ -> true) path =
  let pick smoke =
    List.rev
      (List.filter_map
         (fun (s, e, fields) -> if s = smoke && only e then Some (e, fields) else None)
         !json_records)
  in
  write_records path (pick false);
  write_records (Filename.remove_extension path ^ ".smoke.json") (pick true)
