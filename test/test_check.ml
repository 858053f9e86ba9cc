(* The tcmm_check harness: case serialization, the regression corpus
   (seeded counterexamples replayed deterministically), the structural
   certifier, the mutation sweep and its kill-rate floor, and a smoke
   run of the differential fuzzer — in-process and against a forked
   loopback server. *)

module S = Tcmm_test_support.Support
module Ck = Tcmm_check
module T = Tcmm
module Th = Tcmm_threshold

(* Under `dune runtest` the cwd is the sandboxed test directory; under
   `dune exec test/test_check.exe` it is the workspace root. *)
let corpus_dir =
  if Sys.file_exists "support/corpus" then "support/corpus"
  else "test/support/corpus"

(* ------------------------------------------------------------------ *)
(* Case serialization                                                 *)
(* ------------------------------------------------------------------ *)

let sample_case =
  {
    Ck.Case.kind = Ck.Case.Trace;
    algo = "strassen";
    schedule = "thm45";
    d = 2;
    n = 4;
    entry_bits = 2;
    signed = true;
    tau = -3;
    seed = 42;
    flips = [];
  }

let test_case_roundtrip () =
  List.iter
    (fun c ->
      match Ck.Case.of_string (Ck.Case.to_string c) with
      | Ok c' -> S.check_bool "round-trips" true (Ck.Case.equal c c')
      | Error e -> Alcotest.fail e)
    [
      sample_case;
      { sample_case with Ck.Case.kind = Ck.Case.Matmul; signed = false; tau = 0 };
      { sample_case with Ck.Case.algo = "naive-2"; schedule = "uniform-2" };
      {
        sample_case with
        Ck.Case.entry_bits = 1;
        signed = false;
        flips = [ [ (0, 1); (0, 1) ]; [ (2, 3) ] ];
      };
      { sample_case with Ck.Case.kind = Ck.Case.Conv; tau = 0 };
    ]

let test_case_format_back_compat () =
  (* Every committed corpus file parses, and below its comment header it
     is exactly [to_string] of what it parses to: the format still reads
     every file it ever wrote, and no file carries a line that the
     parser would not write back. *)
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
  in
  S.check_bool "corpus is seeded" true (List.length files >= 6);
  List.iter
    (fun f ->
      let text =
        In_channel.with_open_bin (Filename.concat corpus_dir f)
          In_channel.input_all
      in
      match Ck.Case.of_string text with
      | Error e -> Alcotest.fail (f ^ ": " ^ e)
      | Ok c ->
          let body =
            String.split_on_char '\n' text
            |> List.filter (fun l -> not (String.starts_with ~prefix:"#" l))
            |> String.concat "\n"
          in
          Alcotest.(check string) (f ^ ": body = to_string") (Ck.Case.to_string c)
            body)
    files

let prop_case_roundtrip =
  S.qcheck_case ~count:100 "generated cases round-trip" Ck.Fuzz.gen (fun c ->
      Ck.Case.of_string (Ck.Case.to_string c) = Ok c)

let prop_incremental_case_roundtrip =
  S.qcheck_case ~count:100 "incremental cases round-trip"
    Ck.Fuzz.gen_incremental (fun c ->
      Ck.Case.of_string (Ck.Case.to_string c) = Ok c)

let test_case_rejects_garbage () =
  List.iter
    (fun text ->
      match Ck.Case.of_string text with
      | Ok _ -> Alcotest.fail ("accepted: " ^ text)
      | Error _ -> ())
    [
      "";
      "tcmm-case 2\nkind trace";
      "tcmm-case 1\nkind pentagram";
      "tcmm-case 1\nkind trace\nalgo strassen";
      (* missing fields *)
      "tcmm-case 1\nkind trace\nd two";
      (* unknown keys: the removed kronpow line, a misspelt flips *)
      Ck.Case.to_string sample_case ^ "kronpow true\n";
      Ck.Case.to_string sample_case ^ "flip 0-1\n";
    ]

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                  *)
(* ------------------------------------------------------------------ *)

(* Every case the fuzzer ever shrank (plus the seeded adversarial
   corners) must keep passing the full differential oracle. *)
let test_corpus_replay () =
  let entries = Ck.Corpus.load_dir corpus_dir in
  S.check_bool "corpus is seeded" true (List.length entries >= 6);
  List.iter
    (fun (file, case) ->
      match Ck.Oracle.check case with
      | Ok () -> ()
      | Error e -> Alcotest.fail (file ^ ": " ^ e))
    entries;
  Ck.Oracle.clear_cache ()

let test_corpus_save_idempotent () =
  let dir = "corpus-tmp" in
  let p1 = Ck.Corpus.save ~dir ~message:"first" sample_case in
  let p2 = Ck.Corpus.save ~dir ~message:"second" sample_case in
  S.check_bool "same path for same case" true (p1 = p2);
  (match Ck.Corpus.load_file p1 with
  | Ok c -> S.check_bool "file parses back" true (Ck.Case.equal c sample_case)
  | Error e -> Alcotest.fail e);
  (match Ck.Corpus.load_dir dir with
  | [ (_, c) ] -> S.check_bool "dir holds one case" true (Ck.Case.equal c sample_case)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l)));
  Sys.remove p1;
  Sys.rmdir dir

let test_corpus_absent_dir_empty () =
  S.check_int "absent dir = empty corpus" 0
    (List.length (Ck.Corpus.load_dir "no-such-directory"))

(* ------------------------------------------------------------------ *)
(* Certifier                                                          *)
(* ------------------------------------------------------------------ *)

let spec ?(kind = Ck.Case.Trace) ?(algo = "strassen") ?(n = 4) schedule =
  {
    Ck.Certify.kind;
    algo;
    schedule;
    d = 2;
    n;
    entry_bits = 1;
    signed = false;
    tau = 1;
  }

let test_certify_all_schedules () =
  List.iter
    (fun kind ->
      List.iter
        (fun (algo, n) ->
          List.iter
            (fun schedule ->
              let cert = Ck.Certify.certify (spec ~kind ~algo ~n schedule) in
              if not (Ck.Certify.ok cert) then
                Alcotest.fail
                  (Format.asprintf "%s/%s/%s: %a" algo schedule
                     (Ck.Case.kind_name kind) Ck.Certify.pp cert))
            T.Level_schedule.standard_names)
        (* n follows each algorithm's power ladder: base-2 instances at
           4, base-3 Laderman at its smallest size. *)
        [ ("strassen", 4); ("naive-2", 4); ("laderman", 3) ])
    [ Ck.Case.Trace; Ck.Case.Matmul ]

let test_certify_theorem_bound_checked () =
  (* The paper's 2d+5 bound is only claimed (and therefore only checked)
     for Theorem 4.5 schedules. *)
  let has_theorem cert =
    List.exists
      (fun v -> v.Ck.Certify.name = "depth-theorem")
      cert.Ck.Certify.verdicts
  in
  S.check_bool "thm45 checks the bound" true
    (has_theorem (Ck.Certify.certify (spec "thm45")));
  S.check_bool "direct does not" false
    (has_theorem (Ck.Certify.certify (spec "direct")))

let test_certify_count_only () =
  (* Forcing a count-only build must keep every structural check exact
     while skipping the two that need a gate array. *)
  let cert = Ck.Certify.certify ~materialize_cap:0 (spec "thm45") in
  S.check_bool "count-only" false cert.Ck.Certify.materialized;
  S.check_bool "still certifies" true (Ck.Certify.ok cert);
  let skipped name =
    List.exists
      (fun v ->
        v.Ck.Certify.name = name && v.Ck.Certify.detail = "skipped (count-only build)")
      cert.Ck.Certify.verdicts
  in
  S.check_bool "walk skipped" true (skipped "walk");
  S.check_bool "validate skipped" true (skipped "validate")

let test_certify_json () =
  let j = Ck.Certify.to_json (Ck.Certify.certify (spec "thm45")) in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length j && (String.sub j i n = sub || go (i + 1)) in
    go 0
  in
  S.check_bool "has ok flag" true (contains "\"ok\":true");
  S.check_bool "has checks" true (contains "\"checks\":[");
  S.check_bool "has gate count" true (contains "\"gates\":")

(* ------------------------------------------------------------------ *)
(* Mutation                                                           *)
(* ------------------------------------------------------------------ *)

let and_circuit () =
  let g = Th.Gate.make ~inputs:[| 0; 1 |] ~weights:[| 1; 1 |] ~threshold:2 in
  Th.Circuit.make ~num_inputs:2 ~gates:[| g |] ~outputs:[| 2 |]

let mutant_with ~threshold original =
  let g = Th.Gate.make ~inputs:[| 0; 1 |] ~weights:[| 1; 1 |] ~threshold in
  {
    Ck.Mutate.op = Ck.Mutate.Perturb_threshold;
    gate = 0;
    detail = "test";
    circuit = Th.Circuit.map_gates original ~f:(fun _ _ -> g);
  }

let test_judge_behavioral_kill () =
  (* AND weakened to OR: caught on the input that distinguishes them. *)
  let original = and_circuit () in
  let inputs = [| [| true; true |]; [| true; false |] |] in
  match Ck.Mutate.judge ~original ~inputs (mutant_with ~threshold:1 original) with
  | Some (Ck.Mutate.Behavioral 1) -> ()
  | Some (Ck.Mutate.Behavioral i) ->
      Alcotest.fail (Printf.sprintf "killed on wrong input %d" i)
  | Some (Ck.Mutate.Structural s) -> Alcotest.fail ("structural: " ^ s)
  | None -> Alcotest.fail "survived"

let test_judge_structural_kill () =
  (* AND pushed to an unsatisfiable threshold: Validate's never-fires
     warning flags it before any workload runs. *)
  let original = and_circuit () in
  match Ck.Mutate.judge ~original ~inputs:[||] (mutant_with ~threshold:3 original) with
  | Some (Ck.Mutate.Structural _) -> ()
  | Some (Ck.Mutate.Behavioral _) -> Alcotest.fail "expected structural kill"
  | None -> Alcotest.fail "survived"

let test_judge_observation_power () =
  (* With only the output bit observed, an inner mutant masked by the
     top gate survives; a stronger observation (the inner wire itself,
     standing in for the oracle's trace-value decode) kills it. *)
  let inner = Th.Gate.make ~inputs:[| 0; 1 |] ~weights:[| 1; 1 |] ~threshold:2 in
  let top = Th.Gate.make ~inputs:[| 2 |] ~weights:[| 1 |] ~threshold:5 in
  let original = Th.Circuit.make ~num_inputs:2 ~gates:[| inner; top |] ~outputs:[| 3 |] in
  let weakened = Th.Gate.make ~inputs:[| 0; 1 |] ~weights:[| 1; 1 |] ~threshold:1 in
  let m =
    {
      Ck.Mutate.op = Ck.Mutate.Perturb_threshold;
      gate = 0;
      detail = "test";
      circuit =
        Th.Circuit.map_gates original ~f:(fun g old -> if g = 0 then weakened else old);
    }
  in
  let inputs = [| [| true; false |] |] in
  S.check_bool "masked at the output" true
    (Ck.Mutate.judge ~original ~inputs m = None);
  let observe r =
    Ck.Mutate.default_observe r
    ^ if Th.Simulator.value r 2 then "|1" else "|0"
  in
  match Ck.Mutate.judge ~observe ~original ~inputs m with
  | Some (Ck.Mutate.Behavioral 0) -> ()
  | _ -> Alcotest.fail "inner-wire observation must kill the mutant"

let test_mutation_battery_kill_rate () =
  let sweep = Ck.Harness.mutation_battery ~seed:3 ~mutants:40 () in
  S.check_bool "sampled mutants" true (sweep.Ck.Mutate.total >= 30);
  let rate = Ck.Mutate.kill_rate sweep in
  S.check_bool
    (Printf.sprintf "kill rate %.3f >= %.2f" rate Ck.Harness.kill_threshold)
    true
    (rate >= Ck.Harness.kill_threshold);
  Ck.Oracle.clear_cache ()

let test_protocol_truncation () =
  let s = Ck.Mutate.protocol_truncation_sweep () in
  S.check_bool "ran cuts" true (s.Ck.Mutate.cuts > 0);
  S.check_int "every truncation detected" s.Ck.Mutate.cuts s.Ck.Mutate.killed

(* ------------------------------------------------------------------ *)
(* Fuzzing                                                            *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let o = Ck.Fuzz.run ~seed:5 ~cases:8 () in
  S.check_int "all cases ran" 8 o.Ck.Fuzz.tested;
  (match o.Ck.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Format.asprintf "%a: %s" Ck.Case.pp f.Ck.Fuzz.case f.Ck.Fuzz.message));
  Ck.Oracle.clear_cache ()

let test_shrink_requires_failure () =
  (* Shrinking is only defined for failing cases; a passing one must be
     rejected loudly instead of "minimizing" to an arbitrary case. *)
  try
    ignore (Ck.Fuzz.shrink sample_case);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

let test_incremental_fuzz_smoke () =
  let o = Ck.Fuzz.run_incremental ~seed:7 ~cases:8 () in
  S.check_int "all cases ran" 8 o.Ck.Fuzz.tested;
  (match o.Ck.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Format.asprintf "%a: %s" Ck.Case.pp f.Ck.Fuzz.case f.Ck.Fuzz.message));
  Ck.Oracle.clear_cache ()

let test_incremental_adversarial_cases () =
  (* The two corners the seeded corpus pins: a flip-then-unflip batch
     whose delta must be a structural no-op, and a flip that lands the
     trace value exactly on tau (a stale cached sum would misreport the
     output on either side of the boundary). *)
  let base =
    {
      sample_case with
      Ck.Case.entry_bits = 1;
      signed = false;
      tau = 1;
      flips = [ [ (0, 1); (0, 1) ]; [ (1, 2) ]; [ (0, 1); (0, 1) ] ];
    }
  in
  (match Ck.Oracle.check base with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("no-op delta: " ^ e));
  let final =
    Tcmm_graph.Graph.flip_edges (Ck.Case.graph base)
      (List.concat base.Ck.Case.flips)
  in
  let boundary =
    {
      base with
      Ck.Case.tau =
        T.Trace_circuit.reference (Tcmm_graph.Graph.adjacency final);
    }
  in
  (match Ck.Oracle.check boundary with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("threshold boundary: " ^ e));
  Ck.Oracle.clear_cache ()

(* The conv oracle leg: direct convolution vs the im2col product vs the
   circuit-evaluated product, across algorithms (including base-3
   Laderman at n = 9). *)
let test_conv_oracle () =
  List.iter
    (fun c ->
      match Ck.Oracle.check c with
      | Ok () -> ()
      | Error e ->
          Alcotest.fail (Format.asprintf "%a: %s" Ck.Case.pp c e))
    [
      { sample_case with Ck.Case.kind = Ck.Case.Conv; tau = 0 };
      {
        sample_case with
        Ck.Case.kind = Ck.Case.Conv;
        algo = "laderman";
        n = 9;
        entry_bits = 1;
        signed = false;
        tau = 0;
      };
    ];
  Ck.Oracle.clear_cache ()

let test_server_fuzz_smoke () =
  let o, oi =
    Ck.Harness.with_loopback_server (fun cl ->
        ( Ck.Fuzz.run_server ~seed:5 ~cases:3 cl,
          Ck.Fuzz.run_server_incremental ~seed:5 ~cases:3 cl ))
  in
  S.check_int "all cases ran" 3 o.Ck.Fuzz.tested;
  S.check_int "all incremental cases ran" 3 oi.Ck.Fuzz.tested;
  match o.Ck.Fuzz.failures @ oi.Ck.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Format.asprintf "%a: %s" Ck.Case.pp f.Ck.Fuzz.case f.Ck.Fuzz.message)

(* The in-process oracle, then a forked loopback server, in one
   process: nothing the oracle runs may leave the process unable to
   fork. *)
let test_serve_after_oracle () =
  let trace = sample_case in
  let matmul =
    { sample_case with Ck.Case.kind = Ck.Case.Matmul; signed = false; tau = 0 }
  in
  List.iter
    (fun c ->
      match Ck.Oracle.check c with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Format.asprintf "%a: %s" Ck.Case.pp c msg))
    [ trace; matmul ];
  match
    Ck.Harness.with_loopback_server (fun cl -> Ck.Fuzz.check_server cl matmul)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("served request: " ^ msg)

let () =
  Alcotest.run "tcmm_check"
    [
      ( "server",
        [ Alcotest.test_case "loopback fuzz smoke" `Slow test_server_fuzz_smoke ] );
      ( "case",
        [
          Alcotest.test_case "round-trip" `Quick test_case_roundtrip;
          Alcotest.test_case "format back-compat" `Quick
            test_case_format_back_compat;
          Alcotest.test_case "rejects garbage" `Quick test_case_rejects_garbage;
          prop_case_roundtrip;
          prop_incremental_case_roundtrip;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "seeded corpus replays clean" `Slow test_corpus_replay;
          Alcotest.test_case "save idempotent" `Quick test_corpus_save_idempotent;
          Alcotest.test_case "absent dir" `Quick test_corpus_absent_dir_empty;
        ] );
      ( "certify",
        [
          Alcotest.test_case "all schedules, both kinds" `Slow test_certify_all_schedules;
          Alcotest.test_case "theorem bound gating" `Quick test_certify_theorem_bound_checked;
          Alcotest.test_case "count-only mode" `Quick test_certify_count_only;
          Alcotest.test_case "json" `Quick test_certify_json;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "behavioral kill" `Quick test_judge_behavioral_kill;
          Alcotest.test_case "structural kill" `Quick test_judge_structural_kill;
          Alcotest.test_case "observation power" `Quick test_judge_observation_power;
          Alcotest.test_case "battery kill rate" `Slow test_mutation_battery_kill_rate;
          Alcotest.test_case "protocol truncation" `Quick test_protocol_truncation;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "in-process smoke" `Slow test_fuzz_smoke;
          Alcotest.test_case "incremental smoke" `Slow test_incremental_fuzz_smoke;
          Alcotest.test_case "incremental adversarial corners" `Slow
            test_incremental_adversarial_cases;
          Alcotest.test_case "conv oracle legs" `Slow test_conv_oracle;
          Alcotest.test_case "shrink requires failure" `Quick test_shrink_requires_failure;
        ] );
      ( "fork",
        [
          Alcotest.test_case "loopback server after the oracle" `Slow
            test_serve_after_oracle;
        ] );
    ]
