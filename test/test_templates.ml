(* Template-stamped construction: stamped circuits must be gate-for-gate
   identical to the legacy (template-free) builder in every mode, on
   every standard schedule, for every circuit family that routes through
   [Builder.templated]. *)

open Tcmm
open Tcmm_fastmm
open Tcmm_threshold
module Prng = Tcmm_util.Prng

let strassen = Instances.strassen

let schedule ~name ~n = Level_schedule.resolve ~algo:strassen ~name ~d:2 ~n

let gate_equal (a : Gate.t) (b : Gate.t) =
  a.Gate.inputs = b.Gate.inputs
  && a.Gate.weights = b.Gate.weights
  && a.Gate.threshold = b.Gate.threshold

let check_circuit_equal label (a : Circuit.t) (b : Circuit.t) =
  Alcotest.(check int) (label ^ ": num_inputs") a.Circuit.num_inputs b.Circuit.num_inputs;
  Alcotest.(check int)
    (label ^ ": num_gates")
    (Array.length a.Circuit.gates)
    (Array.length b.Circuit.gates);
  Alcotest.(check (array int)) (label ^ ": outputs") a.Circuit.outputs b.Circuit.outputs;
  Array.iteri
    (fun g ga ->
      if not (gate_equal ga b.Circuit.gates.(g)) then
        Alcotest.failf "%s: gate %d differs" label g)
    a.Circuit.gates;
  Alcotest.(check (array int)) (label ^ ": depths") a.Circuit.depths b.Circuit.depths

let build_matmul ?mode ~templates ~sched ~n () =
  Matmul_circuit.build ?mode ~templates ~algo:strassen ~schedule:sched
    ~entry_bits:1 ~n ()

(* Tentpole invariant: with templates on, the expanded circuit is
   byte-identical to the legacy builder's, across all four standard
   schedules at N in {4, 8}. *)
let test_matmul_stamped_identical () =
  List.iter
    (fun (algo, sizes) ->
      List.iter
        (fun n ->
          List.iter
            (fun name ->
              let sched = Level_schedule.resolve ~algo ~name ~d:2 ~n in
              let build templates =
                Matmul_circuit.build ~templates ~algo ~schedule:sched
                  ~entry_bits:1 ~n ()
              in
              let legacy = build false and stamped = build true in
              check_circuit_equal
                (Printf.sprintf "matmul %s N=%d %s" algo.Bilinear.name n name)
                (Matmul_circuit.circuit legacy)
                (Matmul_circuit.circuit stamped))
            Level_schedule.standard_names)
        sizes)
    [ (strassen, [ 4; 8 ]); (Instances.laderman, [ 3; 9 ]) ]

let test_trace_stamped_identical () =
  List.iter
    (fun name ->
      let n = 4 in
      let sched = schedule ~name ~n in
      let build templates =
        Trace_circuit.build ~templates ~algo:strassen ~schedule:sched
          ~entry_bits:1 ~tau:(n * n) ~n ()
      in
      let legacy = build false and stamped = build true in
      check_circuit_equal
        (Printf.sprintf "trace N=4 %s" name)
        (Trace_circuit.circuit legacy)
        (Trace_circuit.circuit stamped))
    Level_schedule.standard_names

(* Stats agree between both modes with templates on and off. *)
let test_count_only_stats_equal () =
  List.iter
    (fun n ->
      let sched = schedule ~name:"thm45" ~n in
      let stats mode templates =
        Builder.stats (build_matmul ~mode ~templates ~sched ~n ()).Matmul_circuit.builder
      in
      let reference = stats Builder.Direct false in
      List.iter
        (fun (mode, templates) ->
          Alcotest.(check bool)
            (Printf.sprintf "stats N=%d" n)
            true
            (stats mode templates = reference))
        [
          (Builder.Count_only, false);
          (Builder.Count_only, true);
          (Builder.Direct, true);
        ])
    [ 4; 8 ]

(* Stamped and legacy circuits compute the right answer end-to-end, on
   both engines. *)
let test_stamped_run_agrees () =
  let rng = Prng.create ~seed:7 in
  let n = 4 in
  let sched = schedule ~name:"thm45" ~n in
  let legacy = build_matmul ~templates:false ~sched ~n () in
  let stamped = build_matmul ~templates:true ~sched ~n () in
  for _ = 1 to 5 do
    let a = Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
    let b = Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 in
    let expect = Matrix.mul a b in
    List.iter
      (fun engine ->
        Alcotest.(check bool) "legacy run" true
          (Matrix.equal (Matmul_circuit.run ~engine legacy ~a ~b) expect);
        Alcotest.(check bool) "stamped run" true
          (Matrix.equal (Matmul_circuit.run ~engine stamped ~a ~b) expect))
      [ Simulator.Packed; Simulator.Reference ]
  done

(* The naive and tiled families route through the same template layer;
   their stats must be invariant under templates on/off as well. *)
let test_naive_tiled_stats_equal () =
  let naive templates =
    Builder.stats
      (Naive_circuits.matmul ~templates ~entry_bits:1 ~n:3 ()).Naive_circuits.builder
  in
  Alcotest.(check bool) "naive matmul stats" true (naive true = naive false);
  let trace templates =
    Builder.stats
      (Naive_circuits.trace_threshold ~templates ~entry_bits:1 ~tau:4 ~n:3 ())
        .Naive_circuits.builder
  in
  Alcotest.(check bool) "naive trace stats" true (trace true = trace false);
  let sched = schedule ~name:"thm45" ~n:4 in
  let tiled templates =
    Tiled_matmul.stats
      (Tiled_matmul.build ~templates ~algo:strassen ~schedule:sched ~entry_bits:1
         ~rows:4 ~inner:4 ~cols:8 ())
  in
  Alcotest.(check bool) "tiled stats" true (tiled true = tiled false)

(* Kernel differential: for every standard schedule, both a fast and a
   naive bilinear algorithm, and N in {4, 8}, the kernelized batch
   (Direct arena, template-specialized kernels) must be bit-identical —
   outputs, firings, level firings — to the kernel-free batch over the
   same packed lowering, decode to the integer product, and (at N=4)
   match the gate-at-a-time Simulator. *)
let test_kernel_differential () =
  let rng = Prng.create ~seed:19 in
  List.iter
    (fun (algo, sizes) ->
      List.iter
        (fun n ->
          List.iter
            (fun name ->
              let label =
                Printf.sprintf "%s/%s N=%d" algo.Bilinear.name name n
              in
              let sched = Level_schedule.resolve ~algo ~name ~d:2 ~n in
              let build () =
                Matmul_circuit.build ~mode:Builder.Direct ~algo ~schedule:sched
                  ~entry_bits:1 ~n ()
              in
              let built_k = build () and built_g = build () in
              let p_k = Matmul_circuit.pack built_k in
              let p_g =
                Packed.of_arena ~kernels:false
                  (Builder.arena built_g.Matmul_circuit.builder)
              in
              let cov = Packed.coverage p_k in
              Alcotest.(check bool)
                (label ^ ": kernels cover some segments")
                true
                (cov.Packed.kernel_segments > 0);
              Alcotest.(check int)
                (label ^ ": kernels:false is all-fallback")
                0 (Packed.coverage p_g).Packed.kernel_segments;
              let lanes = 4 in
              let pairs =
                Array.init lanes (fun _ ->
                    ( Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1,
                      Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1 ))
              in
              let inputs =
                Array.map
                  (fun (a, b) -> Matmul_circuit.encode_inputs built_k ~a ~b)
                  pairs
              in
              let bk = Packed.run_batch p_k inputs in
              let bg = Packed.run_batch p_g inputs in
              for lane = 0 to lanes - 1 do
                Alcotest.(check bool)
                  (label ^ ": outputs kernel = generic")
                  true
                  (Packed.batch_outputs bk ~lane = Packed.batch_outputs bg ~lane);
                Alcotest.(check int)
                  (label ^ ": firings kernel = generic")
                  (Packed.batch_firings bg ~lane)
                  (Packed.batch_firings bk ~lane);
                Alcotest.(check bool)
                  (label ^ ": level firings kernel = generic")
                  true
                  (Packed.batch_level_firings bk ~lane
                  = Packed.batch_level_firings bg ~lane);
                let a, b = pairs.(lane) in
                Alcotest.(check bool)
                  (label ^ ": decodes to the product")
                  true
                  (Matrix.equal
                     (Matmul_circuit.decode built_k (fun w ->
                          Packed.batch_value bk ~lane w))
                     (Matrix.mul a b))
              done;
              if n <= 4 then begin
                let r =
                  Simulator.run (Matmul_circuit.circuit built_k) inputs.(0)
                in
                Alcotest.(check bool)
                  (label ^ ": Simulator agrees with kernel lane 0")
                  true
                  (Packed.batch_outputs bk ~lane:0 = r.Simulator.outputs
                  && Packed.batch_firings bk ~lane:0 = r.Simulator.firings)
              end)
            Level_schedule.standard_names)
        sizes)
    (* The cross-algorithm matrix: base-2, base-3 and base-4 algorithms,
       each at its native sizes. *)
    [
      (strassen, [ 4; 8 ]);
      (Instances.naive ~t_dim:2, [ 4; 8 ]);
      (Instances.winograd, [ 4 ]);
      (Instances.laderman, [ 3; 9 ]);
      (Instances.strassen_squared, [ 4; 16 ]);
    ]

(* Kernel-grade CSR: lowering with kernels sorts each weight group of
   at least 16 edges by wire id, in place, in C.  Against the unsorted
   [~kernels:false] lowering of the same arena, each such group must
   come out ascending and hold the same wires (duplicates included),
   every shorter group must be untouched, and both packings must answer
   alike.  [cover] tallies the slice shapes met: lengths 16 and 17,
   duplicate wires, already-ascending and descending slices. *)
let check_groups_sorted label arena cover =
  let p_k = Packed.of_arena arena and p_g = Packed.of_arena ~kernels:false arena in
  let sk = Packed.save p_k and sg = Packed.save p_g in
  Alcotest.(check (array int))
    (label ^ ": same weight groups")
    sg.Packed.sec_grp_off sk.Packed.sec_grp_off;
  let slice (s : Packed.sections) a0 len =
    Array.init len (fun i ->
        Int32.to_int (Bigarray.Array1.get s.Packed.sec_pool_wires (a0 + i)))
  in
  let off = sk.Packed.sec_grp_off in
  for g = 0 to Array.length off - 2 do
    let a0 = off.(g) and len = off.(g + 1) - off.(g) in
    let k = slice sk a0 len and raw = slice sg a0 len in
    if len < 16 then begin
      if k <> raw then Alcotest.failf "%s: group %d (%d edges) reordered" label g len
    end
    else begin
      let sorted = Array.copy raw in
      Array.sort compare sorted;
      if k <> sorted then
        Alcotest.failf "%s: group %d (%d edges) is not its wires ascending"
          label g len;
      let has_dup = ref false in
      for i = 1 to len - 1 do
        if sorted.(i) = sorted.(i - 1) then has_dup := true
      done;
      List.iter
        (fun (shape, hit) -> if hit then Hashtbl.replace cover shape ())
        [
          ("length 16", len = 16);
          ("length 17", len = 17);
          ("duplicate wires", !has_dup);
          ("ascending", raw = sorted);
          ("descending", raw = Array.init len (fun i -> sorted.(len - 1 - i)));
        ]
    end
  done;
  let rng = Prng.create ~seed:24 in
  let batch =
    Array.init 8 (fun _ ->
        Array.init sk.Packed.sec_num_inputs (fun _ -> Prng.bool rng))
  in
  let bk = Packed.run_batch p_k batch and bg = Packed.run_batch p_g batch in
  for lane = 0 to 7 do
    Alcotest.(check bool)
      (label ^ ": sorted and unsorted packings agree")
      true
      (Packed.batch_outputs bk ~lane = Packed.batch_outputs bg ~lane
      && Packed.batch_firings bk ~lane = Packed.batch_firings bg ~lane)
  done

(* Gates whose weight groups have the shapes the served specs lack:
   17 edges descending, 16 with duplicate wires, 600 descending and 500
   drawn from 20 wires (the quicksort path), a 600-edge organ pipe
   (median-of-3 pivots split it badly, so the heap-sort fallback
   finishes it), and two interleaved groups split out of one gate. *)
let hand_built_groups () =
  let b = Builder.create ~mode:Builder.Direct () in
  let ins = Builder.add_inputs b 600 in
  let rng = Prng.create ~seed:17 in
  let gate wires weights =
    Builder.output b
      (Builder.add_gate b ~inputs:(Array.map (Array.get ins) wires) ~weights
         ~threshold:(Array.length wires / 3))
  in
  let ones n = Array.make n 1 in
  gate (Array.init 17 (fun i -> 100 - (3 * i))) (ones 17);
  gate (Array.init 16 (fun i -> [| 9; 2; 9; 5 |].(i mod 4) + i)) (ones 16);
  gate (Array.init 16 (fun i -> 2 * i)) (ones 16);
  gate (Array.init 600 (fun i -> 599 - i)) (ones 600);
  gate (Array.init 500 (fun _ -> Prng.int rng ~bound:20)) (Array.make 500 2);
  gate (Array.init 600 (fun i -> if i < 300 then i else 599 - i)) (Array.make 600 3);
  gate
    (Array.init 40 (fun _ -> Prng.int rng ~bound:600))
    (Array.init 40 (fun i -> if i mod 2 = 0 then 1 else -1));
  Builder.arena b

let test_groups_sorted () =
  let cover = Hashtbl.create 8 in
  let matmul label ~algo ~n ~entry_bits ~signed =
    let schedule = Level_schedule.resolve ~algo ~name:"thm45" ~d:2 ~n in
    let built =
      Matmul_circuit.build ~mode:Builder.Direct ~algo ~schedule
        ~signed_inputs:signed ~entry_bits ~n ()
    in
    check_groups_sorted label (Builder.arena built.Matmul_circuit.builder) cover
  in
  matmul "mm4 signed" ~algo:strassen ~n:4 ~entry_bits:2 ~signed:true;
  matmul "mm8 winograd" ~algo:Instances.winograd ~n:8 ~entry_bits:1 ~signed:false;
  (* conv8 serves the n=8 Strassen matmul circuit on signed 2-bit
     entries. *)
  matmul "conv8" ~algo:strassen ~n:8 ~entry_bits:2 ~signed:true;
  let trace =
    Trace_circuit.build ~mode:Builder.Direct ~algo:strassen
      ~schedule:(schedule ~name:"thm45" ~n:8) ~entry_bits:1 ~tau:6 ~n:8 ()
  in
  check_groups_sorted "trace8" (Builder.arena trace.Trace_circuit.builder) cover;
  check_groups_sorted "hand-built" (hand_built_groups ()) cover;
  List.iter
    (fun shape ->
      Alcotest.(check bool) ("covers " ^ shape) true (Hashtbl.mem cover shape))
    [ "length 16"; "length 17"; "duplicate wires"; "ascending"; "descending" ]

(* The E19 certifier checks template-built circuits (templates are the
   construction default) against the counting DP, the depth model and
   the theorem bounds. *)
let test_certifier_over_templates () =
  List.iter
    (fun (kind, algo, schedule, n, tau) ->
      let spec =
        {
          Tcmm_check.Certify.kind;
          algo;
          schedule;
          d = 2;
          n;
          entry_bits = 1;
          signed = false;
          tau;
        }
      in
      let cert = Tcmm_check.Certify.certify ~samples:2 ~seed:11 spec in
      if not (Tcmm_check.Certify.ok cert) then
        Alcotest.failf "certifier failed (%s %s n=%d): %s" algo schedule n
          (Tcmm_check.Certify.to_json cert))
    [
      (Tcmm_check.Case.Matmul, "strassen", "thm45", 4, 0);
      (Tcmm_check.Case.Matmul, "laderman", "thm45", 9, 0);
      (Tcmm_check.Case.Matmul, "laderman", "direct", 9, 0);
      (Tcmm_check.Case.Trace, "laderman", "thm44", 9, 5);
      (Tcmm_check.Case.Matmul, "strassen^2", "thm45", 16, 0);
      (Tcmm_check.Case.Trace, "winograd", "thm45", 4, 3);
    ]

(* The differential fuzzer drives template-built circuits against the
   integer reference across random specs. *)
let test_fuzzer_over_templates () =
  let outcome = Tcmm_check.Fuzz.run ~seed:3 ~cases:6 () in
  Alcotest.(check int) "fuzz cases" 6 outcome.Tcmm_check.Fuzz.tested;
  match outcome.Tcmm_check.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "fuzz failure: %s" f.Tcmm_check.Fuzz.message

let () =
  Alcotest.run "templates"
    [
      ( "identical",
        [
          Alcotest.test_case "matmul stamped = legacy" `Quick
            test_matmul_stamped_identical;
          Alcotest.test_case "trace stamped = legacy" `Quick
            test_trace_stamped_identical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "count-only and direct" `Quick
            test_count_only_stats_equal;
          Alcotest.test_case "naive and tiled" `Quick
            test_naive_tiled_stats_equal;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "runs agree" `Quick test_stamped_run_agrees;
          Alcotest.test_case "kernel differential" `Quick
            test_kernel_differential;
          Alcotest.test_case "certifier" `Quick test_certifier_over_templates;
          Alcotest.test_case "fuzzer" `Quick test_fuzzer_over_templates;
          Alcotest.test_case "weight groups sorted when lowering" `Quick
            test_groups_sorted;
        ] );
    ]
