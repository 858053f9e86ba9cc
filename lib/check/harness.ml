module T = Tcmm
module F = Tcmm_fastmm
module Th = Tcmm_threshold
module P = Tcmm_server.Protocol
module Prng = Tcmm_util.Prng
module Tablefmt = Tcmm_util.Tablefmt

type report = {
  certificates : Certify.t list;
  fuzz : Fuzz.outcome;
  incremental : Fuzz.outcome;
  server_fuzz : Fuzz.outcome option;
  server_incremental : Fuzz.outcome option;
  mutation : Mutate.sweep;
  protocol : Mutate.protocol_sweep;
  seed : int;
}

let kill_threshold = 0.95

(* ------------------------------------------------------------------ *)
(* Certification battery                                              *)
(* ------------------------------------------------------------------ *)

(* Certification sizes per algorithm: powers of the algorithm's base
   dimension.  Laderman's base-3 ladder stops at 9 — its n = 27 builds
   are count-only but the DP alone costs minutes there. *)
let certify_sizes = function "laderman" -> [ 3; 9 ] | _ -> [ 4; 8; 16 ]

let certify_battery ?materialize_cap ?algo:only () =
  let algos =
    match only with
    | None -> [ "strassen"; "naive-2"; "laderman" ]
    | Some a -> [ a ]
  in
  let specs = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun algo ->
          List.iter
            (fun schedule ->
              List.iter
                (fun n ->
                  (* Count-only matmul builds at N = 16 are exact but cost
                     minutes; the DP and the N <= 8 builds already cover the
                     matmul accounting, so the N = 16 row is trace-only. *)
                  if not (kind = Case.Matmul && n >= 16) then
                    specs :=
                      {
                        Certify.kind;
                        algo;
                        schedule;
                        d = 2;
                        n;
                        entry_bits = 1;
                        signed = false;
                        tau = 1;
                      }
                      :: !specs)
                (certify_sizes algo))
            T.Level_schedule.standard_names)
        algos)
    [ Case.Trace; Case.Matmul ];
  List.rev_map (fun spec -> Certify.certify ?materialize_cap spec) !specs

(* ------------------------------------------------------------------ *)
(* Mutation battery                                                   *)
(* ------------------------------------------------------------------ *)

let mutation_subjects () =
  let case kind algo schedule n ~entry_bits ~signed tau =
    {
      Case.kind;
      algo;
      schedule;
      d = 2;
      n;
      entry_bits;
      signed;
      tau;
      seed = 0;
      flips = [];
    }
  in
  [
    case Case.Trace "strassen" "direct" 4 ~entry_bits:1 ~signed:false 1;
    case Case.Trace "naive-2" "uniform-2" 4 ~entry_bits:1 ~signed:false 1;
    case Case.Trace "strassen" "uniform-2" 4 ~entry_bits:2 ~signed:true 0;
    case Case.Matmul "strassen" "direct" 2 ~entry_bits:1 ~signed:false 0;
    case Case.Trace "laderman" "direct" 3 ~entry_bits:1 ~signed:false 1;
  ]

(* Workload matrices for judging mutants: random draws plus structured
   patterns random sampling rarely reaches — the extremes (all-zero,
   all-max, scaled identity, all-min when signed) that saturate carry
   chains, one matrix per single nonzero entry (drives each input weight
   in isolation), and a density ramp hitting the intermediate sums
   between the extremes. *)
let subject_matrices (c : Case.t) ~index =
  let hi = (1 lsl c.Case.entry_bits) - 1 in
  let n = c.Case.n in
  let extremes =
    [
      F.Matrix.create ~rows:n ~cols:n;
      F.Matrix.init ~rows:n ~cols:n (fun _ _ -> hi);
      F.Matrix.scale hi (F.Matrix.identity n);
    ]
    @ (if c.Case.signed then [ F.Matrix.init ~rows:n ~cols:n (fun _ _ -> -hi) ]
       else [])
  in
  let singles =
    List.concat_map
      (fun v ->
        List.init (n * n) (fun e ->
            F.Matrix.init ~rows:n ~cols:n (fun i j ->
                if (i * n) + j = e then v else 0)))
      (hi :: (if c.Case.signed then [ -hi ] else []))
  in
  let ramp =
    List.init ((n * n) - 1) (fun k ->
        F.Matrix.init ~rows:n ~cols:n (fun i j ->
            if (i * n) + j <= k then hi else 0))
  in
  extremes @ singles @ ramp
  @ List.init 40 (fun i -> Case.matrix { c with Case.seed = c.Case.seed + i } ~index)

let subject_circuit_and_inputs (c : Case.t) =
  match c.kind with
  | Case.Trace ->
      let built = Oracle.trace_built c in
      let circuit = T.Trace_circuit.circuit built in
      let inputs =
        Array.of_list
          (List.map (T.Trace_circuit.encode_input built) (subject_matrices c ~index:0))
      in
      (* The differential oracle compares the decoded trace value — read
         off internal [trace_repr] wires — across engines, not just the
         single threshold-query output bit.  Judging mutants on the
         output bit alone would under-report the oracle's power: a
         perturbed interior gate that shifts the trace value without
         crossing [tau] is caught by the oracle but masked at the
         output. *)
      let observe r =
        Mutate.default_observe r
        ^ "|"
        ^ string_of_int
            (Tcmm_arith.Repr.eval_signed
               (fun w -> Th.Simulator.value r w)
               built.T.Trace_circuit.trace_repr)
      in
      (circuit, inputs, observe)
  | Case.Matmul | Case.Conv ->
      let built = Oracle.matmul_built c in
      let circuit = T.Matmul_circuit.circuit built in
      let bs = subject_matrices c ~index:1 in
      let inputs =
        Array.of_list
          (List.map2
             (fun a b -> T.Matmul_circuit.encode_inputs built ~a ~b)
             (subject_matrices c ~index:0)
             (List.rev bs))
      in
      (* Matmul outputs carry the full product matrix bit-by-bit, so the
         output observation already matches the oracle. *)
      (circuit, inputs, Mutate.default_observe)

let mutation_battery ?(seed = 3) ~mutants () =
  let subjects = mutation_subjects () in
  let per = max 1 (mutants / List.length subjects) in
  let rng = Prng.create ~seed in
  Mutate.merge
    (List.map
       (fun c ->
         let circuit, inputs, observe = subject_circuit_and_inputs c in
         Mutate.sweep ~observe ~rng:(Prng.split rng) ~count:per ~inputs circuit)
       subjects)

(* ------------------------------------------------------------------ *)
(* Forked loopback server                                             *)
(* ------------------------------------------------------------------ *)

(* Port 0 binds a kernel-assigned ephemeral port in the parent before
   forking, so concurrent harness runs never collide on an address and
   the client connects into the already-listening backlog with no
   bind-retry loop. *)
let with_loopback_server f =
  let cfg =
    {
      (Tcmm_server.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
      Tcmm_server.Server.cache_capacity = 8;
    }
  in
  let listen_fd, addr = Tcmm_server.Server.bind cfg in
  let cfg = { cfg with Tcmm_server.Server.addr } in
  match Unix.fork () with
  | 0 ->
      (try Tcmm_server.Server.serve_fd cfg listen_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close listen_fd;
      Fun.protect
        ~finally:(fun () ->
          (try ignore (Tcmm_server.Client.shutdown addr) with _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let cl = Tcmm_server.Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Tcmm_server.Client.close cl)
            (fun () -> f cl))

(* ------------------------------------------------------------------ *)
(* Aggregate run                                                      *)
(* ------------------------------------------------------------------ *)

let replay_corpus dir =
  List.filter_map
    (fun (file, case) ->
      match Oracle.check case with
      | Ok () -> None
      | Error message ->
          Some { Fuzz.case; original = case; message = file ^ ": " ^ message })
    (Corpus.load_dir dir)

let run ?(seed = 1) ?(cases = 50) ?incremental_cases ?(mutants = 120)
    ?(include_server = false) ?corpus_dir ?algo () =
  let incremental_cases = Option.value incremental_cases ~default:cases in
  let server_legs =
    if include_server then
      Some
        (with_loopback_server (fun cl ->
             let plain =
               Fuzz.run_server ~seed ?algo ~cases:(max 10 (cases / 5)) cl
             in
             let incr =
               Fuzz.run_server_incremental ~seed:(seed + 4) ?algo
                 ~cases:(max 10 (incremental_cases / 5))
                 cl
             in
             (plain, incr)))
    else None
  in
  let server_fuzz = Option.map fst server_legs in
  let server_incremental = Option.map snd server_legs in
  let corpus_failures =
    match corpus_dir with None -> [] | Some dir -> replay_corpus dir
  in
  (* Replayed corpus cases count toward the leg they exercise. *)
  let corpus_incr, corpus_plain =
    List.partition
      (fun (f : Fuzz.failure) -> f.Fuzz.case.Case.flips <> [])
      corpus_failures
  in
  let certificates = certify_battery ?algo () in
  let fuzz = Fuzz.run ~seed ?algo ~cases () in
  let incremental =
    Fuzz.run_incremental ~seed:(seed + 1) ?algo ~cases:incremental_cases ()
  in
  (match corpus_dir with
  | Some dir ->
      List.iter
        (fun (f : Fuzz.failure) ->
          ignore (Corpus.save ~dir ~message:f.Fuzz.message f.Fuzz.case))
        (fuzz.Fuzz.failures @ incremental.Fuzz.failures)
  | None -> ());
  let merge extra (o : Fuzz.outcome) =
    {
      Fuzz.tested = o.Fuzz.tested + List.length extra;
      failures = extra @ o.Fuzz.failures;
    }
  in
  let fuzz = merge corpus_plain fuzz in
  let incremental = merge corpus_incr incremental in
  let mutation = mutation_battery ~seed:(seed + 2) ~mutants () in
  let protocol = Mutate.protocol_truncation_sweep ~seed:(seed + 3) () in
  {
    certificates;
    fuzz;
    incremental;
    server_fuzz;
    server_incremental;
    mutation;
    protocol;
    seed;
  }

let all_ok r =
  let clean = function
    | None -> true
    | Some (o : Fuzz.outcome) -> o.Fuzz.failures = []
  in
  List.for_all Certify.ok r.certificates
  && r.fuzz.Fuzz.failures = []
  && r.incremental.Fuzz.failures = []
  && clean r.server_fuzz
  && clean r.server_incremental
  && Mutate.kill_rate r.mutation >= kill_threshold
  && r.protocol.Mutate.killed = r.protocol.Mutate.cuts

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let print_report r =
  let open Tablefmt in
  print ~title:"Certificates"
    ~header:[ "kind"; "algo"; "schedule"; "n"; "gates"; "edges"; "depth"; "built"; "verdict" ]
    ~rows:
      (List.map
         (fun (c : Certify.t) ->
           [
             Str (Case.kind_name c.Certify.spec.Certify.kind);
             Str c.Certify.spec.Certify.algo;
             Str c.Certify.spec.Certify.schedule;
             Int c.Certify.spec.Certify.n;
             Int c.Certify.stats.Th.Stats.gates;
             Int c.Certify.stats.Th.Stats.edges;
             Int c.Certify.stats.Th.Stats.depth;
             Str (if c.Certify.materialized then "full" else "count");
             Str (if Certify.ok c then "ok" else "VIOLATED");
           ])
         r.certificates);
  List.iter
    (fun (c : Certify.t) ->
      if not (Certify.ok c) then Format.printf "  %a@." Certify.pp c)
    r.certificates;
  let fuzz_row label (o : Fuzz.outcome) =
    [
      Str label;
      Int o.Fuzz.tested;
      Int (List.length o.Fuzz.failures);
      Str
        (match o.Fuzz.failures with
        | [] -> ""
        | f :: _ -> Format.asprintf "%a" Case.pp f.Fuzz.case);
    ]
  in
  let opt_row label = function
    | None -> []
    | Some o -> [ fuzz_row label o ]
  in
  print ~title:"Differential fuzzing"
    ~header:[ "target"; "cases"; "failures"; "first counterexample" ]
    ~rows:
      ([ fuzz_row "in-process" r.fuzz; fuzz_row "incremental" r.incremental ]
      @ opt_row "server" r.server_fuzz
      @ opt_row "server-incremental" r.server_incremental);
  let opt_failures = function
    | None -> []
    | Some (o : Fuzz.outcome) -> o.Fuzz.failures
  in
  List.iter
    (fun (f : Fuzz.failure) ->
      Format.printf "  FAIL %a: %s@." Case.pp f.Fuzz.case f.Fuzz.message)
    (r.fuzz.Fuzz.failures @ r.incremental.Fuzz.failures
    @ opt_failures r.server_fuzz
    @ opt_failures r.server_incremental);
  print ~title:"Mutation sweep"
    ~header:[ "operator"; "killed"; "total"; "rate" ]
    ~rows:
      (List.map
         (fun (op, k, t) ->
           [ Str op; Int k; Int t; Ratio (float_of_int k /. float_of_int (max 1 t)) ])
         r.mutation.Mutate.per_op
      @ [
          [
            Str "total";
            Int (r.mutation.Mutate.structural + r.mutation.Mutate.behavioral);
            Int r.mutation.Mutate.total;
            Ratio (Mutate.kill_rate r.mutation);
          ];
          [
            Str "protocol-truncation";
            Int r.protocol.Mutate.killed;
            Int r.protocol.Mutate.cuts;
            Ratio
              (float_of_int r.protocol.Mutate.killed
              /. float_of_int (max 1 r.protocol.Mutate.cuts));
          ];
        ]);
  List.iter
    (fun (op, gate) -> Format.printf "  survivor: %s at gate %d@." op gate)
    r.mutation.Mutate.survived;
  Format.printf "overall: %s@." (if all_ok r then "OK" else "FAILED")

let to_json r =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"certificates\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Certify.to_json c))
    r.certificates;
  Buffer.add_string b "],";
  let fuzz_json (o : Fuzz.outcome) =
    Printf.sprintf "{\"tested\":%d,\"failures\":%d}" o.Fuzz.tested
      (List.length o.Fuzz.failures)
  in
  Buffer.add_string b (Printf.sprintf "\"fuzz\":%s," (fuzz_json r.fuzz));
  Buffer.add_string b
    (Printf.sprintf "\"incremental\":%s," (fuzz_json r.incremental));
  (match r.server_fuzz with
  | Some o -> Buffer.add_string b (Printf.sprintf "\"server_fuzz\":%s," (fuzz_json o))
  | None -> ());
  (match r.server_incremental with
  | Some o ->
      Buffer.add_string b
        (Printf.sprintf "\"server_incremental\":%s," (fuzz_json o))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf
       "\"mutation\":{\"total\":%d,\"structural\":%d,\"behavioral\":%d,\
        \"kill_rate\":%.4f},"
       r.mutation.Mutate.total r.mutation.Mutate.structural
       r.mutation.Mutate.behavioral
       (Mutate.kill_rate r.mutation));
  Buffer.add_string b
    (Printf.sprintf
       "\"protocol\":{\"cuts\":%d,\"killed\":%d},\"seed\":%d,\"ok\":%b}"
       r.protocol.Mutate.cuts r.protocol.Mutate.killed r.seed (all_ok r));
  Buffer.contents b
