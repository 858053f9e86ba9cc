module Intvec = Tcmm_util.Intvec

type mode = Count_only | Direct

(* Growable gate store; used in Direct mode, and transiently in
   Count_only while a template is being recorded. *)
module Gvec = struct
  type t = { mutable data : Gate.t array; mutable len : int }

  let dummy = Gate.make ~inputs:[||] ~weights:[||] ~threshold:0
  let create () = { data = Array.make 16 dummy; len = 0 }

  let push t g =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) dummy in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- g;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let sub t pos len = Array.sub t.data pos len

  let truncate t len =
    (* Clear the dropped slots so captured gates don't keep whole
       recorded regions alive through the store. *)
    Array.fill t.data len (t.len - len) dummy;
    t.len <- len
end

(* Arena item log (Direct mode): construction order of raw-gate runs and
   template instances, enough to lower straight to the packed form or
   to expand into the per-gate circuit. *)
type item =
  | A_raw of { gate0 : int; gv0 : int; mutable count : int }
  | A_inst of { tpl : Template.t; wire0 : int; slots : int array }

type arena = {
  a_num_inputs : int;
  a_num_wires : int;
  a_num_gates : int;
  a_levels : int;
  a_depths : int array;
  a_items : item array;
  a_raw : Gate.t array;
  a_outputs : int array;
}

type t = {
  mode : mode;
  depths : Intvec.t;  (* one entry per wire *)
  gates : Gvec.t;  (* empty in Count_only mode outside recording *)
  mutable inputs : int;
  mutable gate_count : int;
  mutable edges : int;
  mutable max_fan_in : int;
  mutable max_abs_weight : int;
  by_depth : Intvec.t;  (* gates at depth d+1 stored at index d *)
  mutable outputs_rev : Wire.t list;
  mutable n_outputs : int;
  templates : Template.t Template.Ktbl.t option;
  mutable recording : bool;  (* inside a [templated] cache-miss build *)
  mutable items_rev : item list;  (* Direct mode only *)
  mutable raw_open : bool;  (* last item is an extendable A_raw run *)
  mutable tpl_templates : int;
  mutable tpl_instances : int;
  mutable tpl_gates : int;
  mutable finalized : Circuit.t option;  (* memo of [finalize] *)
}

let create ?(mode = Direct) ?(templates = true) () =
  {
    mode;
    depths = Intvec.create ~capacity:1024 ();
    gates = Gvec.create ();
    inputs = 0;
    gate_count = 0;
    edges = 0;
    max_fan_in = 0;
    max_abs_weight = 0;
    by_depth = Intvec.create ();
    outputs_rev = [];
    n_outputs = 0;
    templates = (if templates then Some (Template.Ktbl.create 64) else None);
    recording = false;
    items_rev = [];
    raw_open = false;
    tpl_templates = 0;
    tpl_instances = 0;
    tpl_gates = 0;
    finalized = None;
  }

let mode t = t.mode

let add_input t =
  if t.gate_count > 0 then
    invalid_arg "Builder.add_input: inputs must precede all gates";
  let w = t.inputs in
  t.inputs <- t.inputs + 1;
  Intvec.push t.depths 0;
  w

let add_inputs t n = Array.init n (fun _ -> add_input t)

let bump_by_depth t d =
  while Intvec.length t.by_depth < d do
    Intvec.push t.by_depth 0
  done;
  Intvec.set t.by_depth (d - 1) (Intvec.get t.by_depth (d - 1) + 1)

(* Whether the store keeps gate records right now. *)
let keeps_gates t =
  match t.mode with Direct -> true | Count_only -> t.recording

(* Log [count] freshly appended raw gates (first wire [wire0], first
   store slot [gv0]) in the Direct-mode item log, coalescing with an
   open run when the ids are still consecutive. *)
let log_raw t ~wire0 ~gv0 ~count =
  if t.mode = Direct && not t.recording then
    match t.items_rev with
    | A_raw r :: _ when t.raw_open -> r.count <- r.count + count
    | _ ->
        t.items_rev <- A_raw { gate0 = wire0; gv0; count } :: t.items_rev;
        t.raw_open <- true

let add_gate t ~inputs ~weights ~threshold =
  let self = Intvec.length t.depths in
  if Array.length inputs <> Array.length weights then
    invalid_arg "Builder.add_gate: inputs/weights length mismatch";
  let d = ref 0 in
  Array.iter
    (fun w ->
      if w < 0 || w >= self then
        invalid_arg (Printf.sprintf "Builder.add_gate: dangling wire %d" w);
      d := max !d (Intvec.get t.depths w))
    inputs;
  let depth = !d + 1 in
  Intvec.push t.depths depth;
  t.gate_count <- t.gate_count + 1;
  t.edges <- t.edges + Array.length inputs;
  t.max_fan_in <- max t.max_fan_in (Array.length inputs);
  Array.iter (fun w -> t.max_abs_weight <- max t.max_abs_weight (abs w)) weights;
  bump_by_depth t depth;
  if keeps_gates t then begin
    let gv0 = t.gates.Gvec.len in
    Gvec.push t.gates (Gate.make ~inputs ~weights ~threshold);
    log_raw t ~wire0:self ~gv0 ~count:1
  end;
  self

let add_gate_terms t ~terms ~threshold =
  let inputs = Array.of_list (List.map fst terms) in
  let weights = Array.of_list (List.map snd terms) in
  add_gate t ~inputs ~weights ~threshold

let add_shared_gates t ~inputs ~weights ~thresholds =
  let self = Intvec.length t.depths in
  if Array.length inputs <> Array.length weights then
    invalid_arg "Builder.add_shared_gates: inputs/weights length mismatch";
  let d = ref 0 in
  Array.iter
    (fun w ->
      if w < 0 || w >= self then
        invalid_arg (Printf.sprintf "Builder.add_shared_gates: dangling wire %d" w);
      d := max !d (Intvec.get t.depths w))
    inputs;
  let depth = !d + 1 in
  let fan_in = Array.length inputs in
  let count = Array.length thresholds in
  if count > 0 then begin
    Array.iter (fun w -> t.max_abs_weight <- max t.max_abs_weight (abs w)) weights;
    t.gate_count <- t.gate_count + count;
    t.edges <- t.edges + (count * fan_in);
    t.max_fan_in <- max t.max_fan_in fan_in;
    while Intvec.length t.by_depth < depth do
      Intvec.push t.by_depth 0
    done;
    Intvec.set t.by_depth (depth - 1) (Intvec.get t.by_depth (depth - 1) + count)
  end;
  let keep = keeps_gates t in
  let gv0 = t.gates.Gvec.len in
  let wires =
    Array.map
      (fun threshold ->
        let wire = Intvec.length t.depths in
        Intvec.push t.depths depth;
        if keep then Gvec.push t.gates (Gate.make ~inputs ~weights ~threshold);
        wire)
      thresholds
  in
  if keep && count > 0 then log_raw t ~wire0:self ~gv0 ~count;
  wires

let const t v =
  add_gate t ~inputs:[||] ~weights:[||] ~threshold:(if v then 0 else 1)

let output t w =
  if w < 0 || w >= Intvec.length t.depths then
    invalid_arg "Builder.output: dangling wire";
  t.outputs_rev <- w :: t.outputs_rev;
  t.n_outputs <- t.n_outputs + 1

let depth_of t w = Intvec.get t.depths w
let num_wires t = Intvec.length t.depths
let num_inputs t = t.inputs
let num_gates t = t.gate_count

(* ------------------------------------------------------------------ *)
(* Template stamping                                                  *)
(* ------------------------------------------------------------------ *)

let templating t =
  match t.templates with Some _ -> not t.recording | None -> false

let resolve ~wire0 ~inputs r = if r >= 0 then wire0 + r else inputs.(-r - 1)

(* Reproduce a previously captured block by offset arithmetic: depths
   come from a per-slot-depth plan (one array blit), aggregate stats
   from the template's exact totals.  Gate-for-gate this is identical to
   re-running the constructor. *)
let stamp t tpl ~inputs =
  let open Template in
  if Array.length inputs <> tpl.n_slots then
    invalid_arg
      (Printf.sprintf "Builder.templated: expected %d slot wires, got %d"
         tpl.n_slots (Array.length inputs));
  let self = Intvec.length t.depths in
  let slot_depths =
    Array.map
      (fun w ->
        if w < 0 || w >= self then
          invalid_arg (Printf.sprintf "Builder.templated: dangling wire %d" w);
        Intvec.get t.depths w)
      inputs
  in
  let plan = Template.plan tpl ~slot_depths in
  let wire0 = self in
  Intvec.push_array t.depths plan.p_depths;
  if tpl.n_gates > 0 then begin
    t.gate_count <- t.gate_count + tpl.n_gates;
    t.edges <- t.edges + tpl.edges;
    t.max_fan_in <- max t.max_fan_in tpl.max_fan_in;
    t.max_abs_weight <- max t.max_abs_weight tpl.max_abs_weight;
    while Intvec.length t.by_depth < plan.p_max_depth do
      Intvec.push t.by_depth 0
    done;
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let d = plan.p_hist_lo + i - 1 in
          Intvec.set t.by_depth d (Intvec.get t.by_depth d + c)
        end)
      plan.p_hist;
    match t.mode with
    | Count_only -> ()
    | Direct ->
        t.items_rev <-
          A_inst { tpl; wire0; slots = Array.copy inputs } :: t.items_rev;
        t.raw_open <- false
  end;
  t.tpl_instances <- t.tpl_instances + 1;
  t.tpl_gates <- t.tpl_gates + tpl.n_gates;
  (Array.map (resolve ~wire0 ~inputs) tpl.outs, tpl.meta)

let templated t ~tag ~data ~inputs ~build =
  match t.templates with
  | None -> build ()
  | Some _ when t.recording -> build ()
  | Some tbl -> (
      let key = { Template.tag; data } in
      match Template.Ktbl.find_opt tbl key with
      | Some tpl -> stamp t tpl ~inputs
      | None ->
          let wire0 = Intvec.length t.depths in
          let gv0 = t.gates.Gvec.len in
          t.recording <- true;
          let outs, meta =
            Fun.protect
              ~finally:(fun () -> t.recording <- false)
              build
          in
          let gates = Gvec.sub t.gates gv0 (t.gates.Gvec.len - gv0) in
          let tpl = Template.capture ~wire0 ~inputs ~gates ~outs ~meta in
          Template.Ktbl.add tbl key tpl;
          t.tpl_templates <- t.tpl_templates + 1;
          t.tpl_instances <- t.tpl_instances + 1;
          t.tpl_gates <- t.tpl_gates + Template.n_gates tpl;
          (match t.mode with
          | Count_only -> Gvec.truncate t.gates gv0
          | Direct ->
              Gvec.truncate t.gates gv0;
              if Template.n_gates tpl > 0 then begin
                t.items_rev <-
                  A_inst { tpl; wire0; slots = Array.copy inputs }
                  :: t.items_rev;
                t.raw_open <- false
              end);
          (outs, meta))

type template_stats = { templates : int; instances : int; stamped_gates : int }

let template_stats t =
  {
    templates = t.tpl_templates;
    instances = t.tpl_instances;
    stamped_gates = t.tpl_gates;
  }

let arena t =
  match t.mode with
  | Direct ->
      {
        a_num_inputs = t.inputs;
        a_num_wires = Intvec.length t.depths;
        a_num_gates = t.gate_count;
        a_levels = Intvec.length t.by_depth;
        a_depths = Intvec.to_array t.depths;
        a_items = Array.of_list (List.rev t.items_rev);
        a_raw = Gvec.to_array t.gates;
        a_outputs = Array.of_list (List.rev t.outputs_rev);
      }
  | Count_only -> invalid_arg "Builder.arena: builder is not in Direct mode"

let stats t =
  {
    Stats.inputs = t.inputs;
    outputs = t.n_outputs;
    gates = t.gate_count;
    edges = t.edges;
    depth = Intvec.length t.by_depth;
    max_fan_in = t.max_fan_in;
    max_abs_weight = t.max_abs_weight;
    gates_by_depth = Intvec.to_array t.by_depth;
  }

(* The per-gate circuit of a Direct builder: raw runs are copied from
   the gate store, and each template instance's segments are resolved
   against its base wire and slots — one fresh input array per segment,
   weights shared from the template, so the gates of a segment share
   their arrays exactly as the constructor's did. *)
let expand_gates t =
  let gates = Array.make t.gate_count Gvec.dummy in
  List.iter
    (function
      | A_raw { gate0; gv0; count } ->
          Array.blit t.gates.Gvec.data gv0 gates (gate0 - t.inputs) count
      | A_inst { tpl; wire0; slots } ->
          let open Template in
          for s = 0 to Array.length tpl.seg_start - 2 do
            let off = tpl.seg_off.(s) in
            let ins =
              Array.init (tpl.seg_off.(s + 1) - off) (fun i ->
                  resolve ~wire0 ~inputs:slots tpl.s_refs.(off + i))
            in
            let weights = tpl.s_weights.(s) in
            for g = tpl.seg_start.(s) to tpl.seg_start.(s + 1) - 1 do
              gates.(wire0 - t.inputs + g) <-
                Gate.make ~inputs:ins ~weights ~threshold:tpl.g_threshold.(g)
            done
          done)
    t.items_rev;
  gates

(* Memoized: wires and outputs are append-only, so a circuit with the
   builder's current counts is the builder's current circuit. *)
let finalize t =
  match (t.mode, t.finalized) with
  | Count_only, _ ->
      invalid_arg "Builder.finalize: builder is in Count_only mode"
  | Direct, Some c
    when Circuit.num_wires c = num_wires t
         && Array.length c.Circuit.outputs = t.n_outputs ->
      c
  | Direct, _ ->
      let c =
        Circuit.make ~num_inputs:t.inputs ~gates:(expand_gates t)
          ~outputs:(Array.of_list (List.rev t.outputs_rev))
      in
      t.finalized <- Some c;
      c
