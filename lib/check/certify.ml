module T = Tcmm
module F = Tcmm_fastmm
module Th = Tcmm_threshold
module Prng = Tcmm_util.Prng

type spec = {
  kind : Case.kind;
  algo : string;
  schedule : string;
  d : int;
  n : int;
  entry_bits : int;
  signed : bool;
  tau : int;
}

type verdict = { name : string; ok : bool; detail : string }

type t = {
  spec : spec;
  materialized : bool;
  stats : Th.Stats.t;
  verdicts : verdict list;
}

let ok t = List.for_all (fun v -> v.ok) t.verdicts
let failures t = List.filter (fun v -> not v.ok) t.verdicts

let verdict name ok fmt = Format.kasprintf (fun detail -> { name; ok; detail }) fmt

let gate_kind = function
  | Case.Trace -> `Trace
  | Case.Matmul | Case.Conv -> `Matmul

let random_matrix rng ~n ~entry_bits ~signed =
  let hi = (1 lsl entry_bits) - 1 in
  let lo = if signed then -hi else 0 in
  F.Matrix.random rng ~rows:n ~cols:n ~lo ~hi

(* Independent re-derivation of the structural measures from the raw gate
   array — no use of the circuit's precomputed [depths] or the builder's
   running tallies. *)
let walk (c : Th.Circuit.t) =
  let num_inputs = c.Th.Circuit.num_inputs in
  let num_gates = Array.length c.Th.Circuit.gates in
  let depth_of = Array.make (num_inputs + num_gates) 0 in
  let edges = ref 0 and max_fan_in = ref 0 and depth = ref 0 in
  Array.iteri
    (fun g (gate : Th.Gate.t) ->
      let fan_in = Array.length gate.Th.Gate.inputs in
      edges := !edges + fan_in;
      max_fan_in := max !max_fan_in fan_in;
      let d = ref 0 in
      Array.iter (fun w -> d := max !d depth_of.(w)) gate.Th.Gate.inputs;
      depth_of.(num_inputs + g) <- !d + 1;
      depth := max !depth (!d + 1))
    c.Th.Circuit.gates;
  (num_gates, num_inputs + num_gates, !edges, !max_fan_in, !depth)

let check_schedule spec schedule =
  let algo = Case.algo_of_name spec.algo in
  let levels = T.Level_schedule.levels schedule in
  let l = T.Level_schedule.height ~t_dim:algo.F.Bilinear.t_dim ~n:spec.n in
  let shape_ok =
    Array.length levels >= 2
    && levels.(0) = 0
    && T.Level_schedule.final_level schedule = l
    && Array.for_all Fun.id
         (Array.init (Array.length levels - 1) (fun i -> levels.(i) < levels.(i + 1)))
  in
  let shape =
    verdict "schedule-shape" shape_ok "%a, L=%d" T.Level_schedule.pp schedule l
  in
  if spec.schedule = "thm45" then
    let steps = T.Level_schedule.steps schedule in
    [
      shape;
      verdict "schedule-steps" (steps <= spec.d) "steps %d <= d %d" steps spec.d;
    ]
  else [ shape ]

let check_depths spec schedule (stats : Th.Stats.t) =
  let kind = gate_kind spec.kind in
  let model = T.Gate_model.predicted_depth ~kind schedule in
  let depth_model =
    verdict "depth-model" (stats.Th.Stats.depth <= model) "depth %d <= model %d"
      stats.Th.Stats.depth model
  in
  if spec.schedule = "thm45" then
    let bound = T.Gate_model.depth_bound ~kind ~d:spec.d in
    [
      depth_model;
      verdict "depth-theorem"
        (stats.Th.Stats.depth <= bound)
        "depth %d <= %s %d" stats.Th.Stats.depth
        (match kind with `Trace -> "2d+5" | `Matmul -> "4d+1")
        bound;
    ]
  else [ depth_model ]

let check_dp (dp : T.Gate_count.totals) (stats : Th.Stats.t) =
  verdict "gate-count-dp"
    (stats.Th.Stats.gates = dp.T.Gate_count.gates
    && stats.Th.Stats.edges = dp.T.Gate_count.edges)
    "built %d gates / %d edges, DP predicts %d / %d" stats.Th.Stats.gates
    stats.Th.Stats.edges dp.T.Gate_count.gates dp.T.Gate_count.edges

let check_walk circuit (stats : Th.Stats.t) =
  match circuit with
  | None -> verdict "walk" true "skipped (count-only build)"
  | Some c ->
      let gates, wires, edges, max_fan_in, depth = walk c in
      let ok =
        gates = stats.Th.Stats.gates
        && wires = Th.Circuit.num_wires c
        && edges = stats.Th.Stats.edges
        && max_fan_in = stats.Th.Stats.max_fan_in
        && depth = stats.Th.Stats.depth
      in
      verdict "walk" ok
        "re-derived %d gates, %d wires, %d edges, fan-in %d, depth %d" gates wires
        edges max_fan_in depth

let check_validate circuit =
  match circuit with
  | None -> verdict "validate" true "skipped (count-only build)"
  | Some c -> (
      match Th.Validate.errors c with
      | [] -> verdict "validate" true "no error-severity issues"
      | issues ->
          verdict "validate" false "%d error(s), first: %a" (List.length issues)
            Th.Validate.pp_issue (List.hd issues))

let check_firings ~samples ~seed circuit encode (stats : Th.Stats.t) =
  match circuit with
  | None -> verdict "firing-feasibility" true "skipped (count-only build)"
  | Some c ->
      let rng = Prng.create ~seed in
      let rec go i =
        if i >= samples then verdict "firing-feasibility" true "%d samples" samples
        else
          let input = encode rng in
          let r = Th.Simulator.run ~check:true c input in
          let lf = r.Th.Simulator.level_firings in
          if Array.length lf <> stats.Th.Stats.depth then
            verdict "firing-feasibility" false "sample %d: %d levels, depth %d" i
              (Array.length lf) stats.Th.Stats.depth
          else if Array.fold_left ( + ) 0 lf <> r.Th.Simulator.firings then
            verdict "firing-feasibility" false
              "sample %d: level firings sum %d <> firings %d" i
              (Array.fold_left ( + ) 0 lf)
              r.Th.Simulator.firings
          else
            let bad = ref (-1) in
            Array.iteri
              (fun l f ->
                if f < 0 || f > stats.Th.Stats.gates_by_depth.(l) then bad := l)
              lf;
            if !bad >= 0 then
              verdict "firing-feasibility" false
                "sample %d: level %d fires %d of %d gates" i !bad lf.(!bad)
                stats.Th.Stats.gates_by_depth.(!bad)
            else go (i + 1)
      in
      (try go 0
       with e -> verdict "firing-feasibility" false "%s" (Printexc.to_string e))

let certify ?(samples = 4) ?(seed = 7) ?(materialize_cap = 150_000) spec =
  let algo = Case.algo_of_name spec.algo in
  let schedule =
    T.Level_schedule.resolve ~algo ~name:spec.schedule ~d:spec.d ~n:spec.n
  in
  let dp =
    match spec.kind with
    | Case.Trace ->
        T.Gate_count.trace ~algo ~schedule ~entry_bits:spec.entry_bits
          ~signed_inputs:spec.signed ~n:spec.n ()
    | Case.Matmul | Case.Conv ->
        T.Gate_count_matmul.matmul ~algo ~schedule ~entry_bits:spec.entry_bits
          ~signed_inputs:spec.signed ~n:spec.n ()
  in
  let materialized = dp.T.Gate_count.gates <= materialize_cap in
  let mode = if materialized then Th.Builder.Direct else Th.Builder.Count_only in
  let stats, circuit, encode =
    match spec.kind with
    | Case.Trace ->
        let built =
          T.Trace_circuit.build ~mode ~algo ~schedule ~signed_inputs:spec.signed
            ~entry_bits:spec.entry_bits ~tau:spec.tau ~n:spec.n ()
        in
        ( T.Trace_circuit.stats built,
          (if materialized then Some (T.Trace_circuit.circuit built) else None),
          fun rng ->
            T.Trace_circuit.encode_input built
              (random_matrix rng ~n:spec.n ~entry_bits:spec.entry_bits
                 ~signed:spec.signed) )
    | Case.Matmul | Case.Conv ->
        let built =
          T.Matmul_circuit.build ~mode ~algo ~schedule ~signed_inputs:spec.signed
            ~entry_bits:spec.entry_bits ~n:spec.n ()
        in
        ( T.Matmul_circuit.stats built,
          (if materialized then Some (T.Matmul_circuit.circuit built) else None),
          fun rng ->
            let a =
              random_matrix rng ~n:spec.n ~entry_bits:spec.entry_bits
                ~signed:spec.signed
            in
            let b =
              random_matrix rng ~n:spec.n ~entry_bits:spec.entry_bits
                ~signed:spec.signed
            in
            T.Matmul_circuit.encode_inputs built ~a ~b )
  in
  let verdicts =
    check_schedule spec schedule
    @ check_depths spec schedule stats
    @ [
        check_dp dp stats;
        check_walk circuit stats;
        check_validate circuit;
        check_firings ~samples ~seed circuit encode stats;
      ]
  in
  { spec; materialized; stats; verdicts }

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Printf.sprintf
       "\"kind\":\"%s\",\"algo\":\"%s\",\"schedule\":\"%s\",\"d\":%d,\"n\":%d,\
        \"entry_bits\":%d,\"signed\":%b,\"materialized\":%b,\"ok\":%b,"
       (Case.kind_name t.spec.kind)
       (json_escape t.spec.algo) (json_escape t.spec.schedule) t.spec.d t.spec.n
       t.spec.entry_bits t.spec.signed t.materialized (ok t));
  Buffer.add_string b
    (Printf.sprintf "\"gates\":%d,\"edges\":%d,\"depth\":%d,\"max_fan_in\":%d,"
       t.stats.Th.Stats.gates t.stats.Th.Stats.edges t.stats.Th.Stats.depth
       t.stats.Th.Stats.max_fan_in);
  Buffer.add_string b "\"checks\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"ok\":%b,\"detail\":\"%s\"}"
           (json_escape v.name) v.ok (json_escape v.detail)))
    t.verdicts;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf "%s/%s/%s n=%d: %s"
    (Case.kind_name t.spec.kind)
    t.spec.algo t.spec.schedule t.spec.n
    (if ok t then "certified"
     else
       String.concat ", "
         (List.map (fun v -> v.name ^ ": " ^ v.detail) (failures t)))
