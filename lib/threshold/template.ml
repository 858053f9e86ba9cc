(* Relocatable circuit-block templates.

   The paper's constructions stamp the same few block shapes (Lemma 3.1
   shared-threshold layers inside weighted sums, Lemma 3.3 product
   blocks, sum-tree / recombination nodes) thousands of times: the
   recursion tree T_A has r^level structurally identical nodes per
   level.  A template captures one such block with wire *offsets*
   instead of wire ids — refs >= 0 name a gate inside the block, refs
   < 0 name a formal input slot — so an instance is reproduced by
   offset arithmetic alone, without re-running the constructor.

   Templates are hash-consed by an exact structural key (call-site tag
   plus the bit-widths, weights and wire-duplication pattern that
   determine the emitted gates); [Builder.templated] records a block on
   the first miss and stamps on every hit. *)

module Intvec = Tcmm_util.Intvec

(* ------------------------------------------------------------------ *)
(* Hash-cons keys                                                     *)
(* ------------------------------------------------------------------ *)

type key = { tag : int; data : int array }

(* OCaml's polymorphic [Hashtbl.hash] samples only a prefix of large
   values; the keys here are long weight vectors that can differ deep
   inside, so fold over every element. *)
let fold_hash h x = ((h * 1000003) lxor x) land max_int

let hash_int_array a = Array.fold_left fold_hash (Array.length a) a

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.tag = b.tag && a.data = b.data
  let hash k = fold_hash (hash_int_array k.data) k.tag
end)

module Dtbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = hash_int_array
end)

(* The wire-duplication pattern of an input vector: position [i] maps to
   the first position holding the same wire.  Two instances with equal
   patterns read their formals in the same aliasing structure, which is
   what e.g. [Weighted_sum]'s duplicate-wire merging depends on — so
   call sites fold this into the key. *)
let pattern wires =
  let n = Array.length wires in
  let tbl = Hashtbl.create n in
  Array.init n (fun i ->
      match Hashtbl.find_opt tbl wires.(i) with
      | Some j -> j
      | None ->
          Hashtbl.add tbl wires.(i) i;
          i)

(* ------------------------------------------------------------------ *)
(* Template bodies                                                    *)
(* ------------------------------------------------------------------ *)

(* Depth plan for one vector of slot depths: instances whose formals sit
   at the same depths share the absolute per-gate depth block and the
   gates-by-depth histogram, so a stamp is one array blit. *)
type plan = {
  p_depths : int array;  (* absolute depth per template gate *)
  p_hist_lo : int;  (* depth value counted by p_hist.(0) *)
  p_hist : int array;
  p_max_depth : int;
}

(* Lowering plan for one segment (a run of gates physically sharing
   input/weight arrays): the weight grouping, edge permutation and
   threshold sort are computed once per template and replayed by
   [Packed.of_arena] per instance. *)
type pseg = {
  q_gate0 : int;  (* first gate (template index; absolute wire for raw) *)
  q_count : int;
  q_fan : int;
  q_refs : int array;  (* encoded refs in pool (weight-grouped) order *)
  q_weights : int array;  (* weights in pool order *)
  q_grp_start : int array;  (* per group: start offset within the segment *)
  q_grp_weight : int array;
  q_th : int array;  (* thresholds, ascending *)
  q_th_gate : int array;  (* gate (same index space as q_gate0) per position *)
  q_kernel : Kernel.spec;  (* specialized evaluator, or Generic *)
}

type t = {
  n_slots : int;
  n_gates : int;
  seg_start : int array;  (* length n_segs + 1; gate index boundaries *)
  seg_off : int array;  (* length n_segs + 1; offsets into s_refs *)
  s_refs : int array;  (* per-segment leader refs; >= 0 gate, < 0 slot -(r+1) *)
  s_weights : int array array;  (* per segment, shared by its gates *)
  g_threshold : int array;
  edges : int;  (* logical: sum over segments of count * fan *)
  max_fan_in : int;
  max_abs_weight : int;
  outs : int array;  (* encoded refs of the block's result wires *)
  meta : int array array;  (* call-site payload, returned verbatim on stamp *)
  plans : plan Dtbl.t;
  mutable lower : pseg array option;
}

let n_gates t = t.n_gates

(* ------------------------------------------------------------------ *)
(* Capture                                                            *)
(* ------------------------------------------------------------------ *)

let encode_ref ~wire0 ~slot_of w =
  if w >= wire0 then w - wire0
  else
    match Hashtbl.find_opt slot_of w with
    | Some s -> -s - 1
    | None ->
        invalid_arg
          (Printf.sprintf
             "Builder.templated: block reads wire %d absent from ~inputs" w)

(* [capture ~wire0 ~inputs ~gates ~outs ~meta] compiles the freshly
   recorded region (gates with absolute wire ids, first output wire
   [wire0]) into a relocatable template.  Raises [Invalid_argument] if
   the region reads or returns a wire that is neither internal nor
   listed in [inputs]. *)
let capture ~wire0 ~inputs ~(gates : Gate.t array) ~outs ~meta =
  let n = Array.length gates in
  let slot_of = Hashtbl.create (Array.length inputs) in
  Array.iteri
    (fun i w -> if not (Hashtbl.mem slot_of w) then Hashtbl.add slot_of w i)
    inputs;
  let max_fan_in = ref 0 and max_abs_weight = ref 0 in
  let edges = ref 0 in
  let seg_start = Intvec.create () in
  let seg_off = Intvec.create () in
  let s_refs = Intvec.create () in
  let s_weights_rev = ref [] in
  for g = 0 to n - 1 do
    let gate = gates.(g) in
    let ins = gate.Gate.inputs in
    let fan = Array.length ins in
    edges := !edges + fan;
    (* A new segment starts unless this gate physically shares its
       input/weight arrays with the previous one — the same run
       detection [raw_psegs] performs.  Only the segment leader's
       refs are encoded, keeping capture (and the template's footprint)
       proportional to the block's *physical* edges; followers read the
       same shared array. *)
    if
      g = 0
      || not
           (gates.(g - 1).Gate.inputs == ins
           && gates.(g - 1).Gate.weights == gate.Gate.weights)
    then begin
      Intvec.push seg_start g;
      Intvec.push seg_off (Intvec.length s_refs);
      if fan > !max_fan_in then max_fan_in := fan;
      Array.iter
        (fun w -> if abs w > !max_abs_weight then max_abs_weight := abs w)
        gate.Gate.weights;
      for i = 0 to fan - 1 do
        Intvec.push s_refs (encode_ref ~wire0 ~slot_of ins.(i))
      done;
      s_weights_rev := gate.Gate.weights :: !s_weights_rev
    end
  done;
  Intvec.push seg_start n;
  Intvec.push seg_off (Intvec.length s_refs);
  {
    n_slots = Array.length inputs;
    n_gates = n;
    seg_start = Intvec.to_array seg_start;
    seg_off = Intvec.to_array seg_off;
    s_refs = Intvec.to_array s_refs;
    s_weights = Array.of_list (List.rev !s_weights_rev);
    g_threshold = Array.map (fun (g : Gate.t) -> g.Gate.threshold) gates;
    edges = !edges;
    max_fan_in = !max_fan_in;
    max_abs_weight = !max_abs_weight;
    outs = Array.map (encode_ref ~wire0 ~slot_of) outs;
    meta;
    plans = Dtbl.create 4;
    lower = None;
  }

(* ------------------------------------------------------------------ *)
(* Depth plans                                                        *)
(* ------------------------------------------------------------------ *)

let plan t ~slot_depths =
  match Dtbl.find_opt t.plans slot_depths with
  | Some p -> p
  | None ->
      let n = t.n_gates in
      let d = Array.make (max n 1) 0 in
      let lo = ref max_int and hi = ref 0 in
      (* Gates within a segment share one input array, hence one depth:
         one pass over the leader's refs covers the whole run. *)
      let nsegs = Array.length t.seg_start - 1 in
      for s = 0 to nsegs - 1 do
        let m = ref 0 in
        for k = t.seg_off.(s) to t.seg_off.(s + 1) - 1 do
          let r = t.s_refs.(k) in
          let dep = if r >= 0 then d.(r) else slot_depths.(-r - 1) in
          if dep > !m then m := dep
        done;
        let dg = !m + 1 in
        for g = t.seg_start.(s) to t.seg_start.(s + 1) - 1 do
          d.(g) <- dg
        done;
        if dg < !lo then lo := dg;
        if dg > !hi then hi := dg
      done;
      let p =
        if n = 0 then
          { p_depths = [||]; p_hist_lo = 1; p_hist = [||]; p_max_depth = 0 }
        else begin
          let hist = Array.make (!hi - !lo + 1) 0 in
          Array.iter (fun dg -> hist.(dg - !lo) <- hist.(dg - !lo) + 1) d;
          { p_depths = d; p_hist_lo = !lo; p_hist = hist; p_max_depth = !hi }
        end
      in
      Dtbl.add t.plans (Array.copy slot_depths) p;
      p

(* ------------------------------------------------------------------ *)
(* Lowering plans                                                     *)
(* ------------------------------------------------------------------ *)

(* The one weight grouping of the packed form, for template segments
   and raw runs alike: edges grouped by weight value, stable within a
   group, groups ordered by first appearance; thresholds sorted
   ascending (ties in [Array.sort]'s order, which the stored artifacts
   pin). *)
let make_pseg ~kern ~gate0 ~count ~refs ~weights ~thresholds ~th_gates =
  let fan = Array.length refs in
  let gid = Array.make (max fan 1) 0 in
  let tbl = Hashtbl.create 8 in
  let gcount = ref 0 in
  for i = 0 to fan - 1 do
    match Hashtbl.find_opt tbl weights.(i) with
    | Some g -> gid.(i) <- g
    | None ->
        Hashtbl.add tbl weights.(i) !gcount;
        gid.(i) <- !gcount;
        incr gcount
  done;
  let gcount = !gcount in
  let sizes = Array.make (max gcount 1) 0 in
  for i = 0 to fan - 1 do
    sizes.(gid.(i)) <- sizes.(gid.(i)) + 1
  done;
  let starts = Array.make (max gcount 1) 0 in
  let acc = ref 0 in
  for g = 0 to gcount - 1 do
    starts.(g) <- !acc;
    acc := !acc + sizes.(g)
  done;
  let gw = Array.make (max gcount 1) 0 in
  let q_refs = Array.make (max fan 1) 0 in
  let q_weights = Array.make (max fan 1) 0 in
  let cur = Array.copy starts in
  for i = 0 to fan - 1 do
    let g = gid.(i) in
    gw.(g) <- weights.(i);
    q_refs.(cur.(g)) <- refs.(i);
    q_weights.(cur.(g)) <- weights.(i);
    cur.(g) <- cur.(g) + 1
  done;
  let pairs = Array.init count (fun i -> (thresholds.(i), th_gates.(i))) in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) pairs;
  let q_weights = if fan = 0 then [||] else q_weights in
  let q_th = Array.map fst pairs in
  {
    q_gate0 = gate0;
    q_count = count;
    q_fan = fan;
    q_refs = (if fan = 0 then [||] else q_refs);
    q_weights;
    q_grp_start = Array.sub starts 0 gcount;
    q_grp_weight = Array.sub gw 0 gcount;
    q_th;
    q_th_gate = Array.map snd pairs;
    q_kernel =
      (if kern then Kernel.compile ~fan ~weights:q_weights ~thresholds:q_th
       else Kernel.Generic);
  }

let lower_plan t =
  match t.lower with
  | Some segs -> segs
  | None ->
      let nsegs = Array.length t.seg_start - 1 in
      let segs =
        Array.init nsegs (fun s ->
            let g0 = t.seg_start.(s) in
            let count = t.seg_start.(s + 1) - g0 in
            let off = t.seg_off.(s) in
            let fan = t.seg_off.(s + 1) - off in
            make_pseg ~kern:true ~gate0:g0 ~count
              ~refs:(Array.sub t.s_refs off fan)
              ~weights:t.s_weights.(s)
              ~thresholds:(Array.sub t.g_threshold g0 count)
              ~th_gates:(Array.init count (fun i -> g0 + i)))
      in
      t.lower <- Some segs;
      segs

(* Lowering plan for a run of raw (non-templated) gates: absolute wire
   ids double as "internal" refs relative to a zero base.  Raw runs are
   compiled once per circuit (not once per template), so they stay on
   the generic evaluator — specializing them would move kernel
   compilation back onto the per-gate path. *)
let raw_psegs (gates : Gate.t array) ~gv0 ~count ~wire_of =
  let segs = ref [] in
  let i = ref 0 in
  while !i < count do
    let gate = gates.(gv0 + !i) in
    let j = ref (!i + 1) in
    while
      !j < count
      && gates.(gv0 + !j).Gate.inputs == gate.Gate.inputs
      && gates.(gv0 + !j).Gate.weights == gate.Gate.weights
    do
      incr j
    done;
    let count' = !j - !i in
    let base = !i in
    segs :=
      make_pseg ~kern:false ~gate0:(wire_of base) ~count:count'
        ~refs:gate.Gate.inputs
        ~weights:gate.Gate.weights
        ~thresholds:
          (Array.init count' (fun k ->
               gates.(gv0 + base + k).Gate.threshold))
        ~th_gates:(Array.init count' (fun k -> wire_of (base + k)))
      :: !segs;
    i := !j
  done;
  Array.of_list (List.rev !segs)
