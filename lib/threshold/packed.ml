module Intvec = Tcmm_util.Intvec
module Checked = Tcmm_util.Checked

(* ------------------------------------------------------------------ *)
(* Off-heap storage                                                   *)
(* ------------------------------------------------------------------ *)

(* The hot CSR arrays (edge wires, gate thresholds, gate output wires)
   live in Bigarray storage: off the OCaml heap, so the GC never scans
   or moves the circuit metadata (hundreds of MB at N=32), and unsafe
   accesses compile to direct loads with no tag arithmetic.
   [Array1.create] leaves the storage uninitialized — both constructors
   below write every live slot, and the one padding slot of an empty
   array is never read. *)
type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Wire ids are int32: half the bytes of a native int per pooled edge,
   and the largest circuits served here are orders of magnitude below
   [max_wires] (mm N=32 has 9.7M gates). *)
type i32vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let max_wires = 1 lsl 31

let ba_create n : ivec =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max n 1)

let ba32_create n : i32vec =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max n 1)

let ba_of_array a =
  let b = ba_create (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set b i x) a;
  b

let ba32_of_array a =
  let b = ba32_create (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set b i (Int32.of_int x)) a;
  b

(* Eta-expanded on purpose: a bare alias of the primitive is a closure
   the non-flambda compiler calls out to on every edge; a syntactic
   function this small inlines to the raw load/store at every direct
   call site. *)
let[@inline always] bget (v : ivec) i = Bigarray.Array1.unsafe_get v i
let[@inline always] bset (v : ivec) i x = Bigarray.Array1.unsafe_set v i x

(* With the element kind known here, the int32 load and its widening
   compile to one sign-extending load: no [Int32] is ever boxed. *)
let[@inline always] wget (v : i32vec) i =
  Int32.to_int (Bigarray.Array1.unsafe_get v i)

let[@inline always] wset (v : i32vec) i x =
  Bigarray.Array1.unsafe_set v i (Int32.of_int x)

let check_wire_count name num_wires =
  if num_wires > max_wires then
    invalid_arg
      (Printf.sprintf "Packed.%s: %d wires do not fit 32-bit wire ids" name
         num_wires)

(* ------------------------------------------------------------------ *)
(* Packed representation                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  (* Lazy: arena-built circuits (Builder Direct mode) lower straight to
     this packed form; the [Circuit.t] view is only materialized if a
     consumer (Simulator, Validate, Export) actually asks for it. *)
  circuit : Circuit.t Lazy.t;
  num_inputs : int;
  num_wires : int;
  num_gates : int;
  levels : int;
  (* Flat CSR edge pools.  Gates built through [Builder.add_shared_gates]
     physically share their input/weight arrays; consecutive gates (in
     level order) sharing arrays collapse into one *segment*, so the
     pools hold each shared array once — for the big matmul circuits
     this is ~250x smaller than the logical edge count.  Edges carry no
     weight of their own: every edge of a weight group has the group's
     weight (below). *)
  pool_wires : i32vec;
  (* Per segment: pool offset, fan-in, and the packed-gate range
     [seg_gates.(s), seg_gates.(s+1)) of gates sharing that sum. *)
  seg_off : int array;
  seg_fan : int array;
  seg_gates : int array;  (* length num_segments + 1 *)
  (* Edges within a segment are stored grouped by weight value (stable,
     groups in order of first appearance): segment [s] owns groups
     [seg_grp.(s), seg_grp.(s+1)), group [g] owns pool slots
     [grp_off.(g), grp_off.(g+1)) all carrying weight [grp_weight.(g)].
     The paper's wide layers have huge fan-in but only a handful of
     distinct weights (e.g. the alternating +/- rows of Lemma 3.1), so
     the batched evaluator can replace per-set-bit adds with a carry-save
     per-lane popcount over each group. *)
  seg_grp : int array;  (* length num_segments + 1 *)
  grp_off : int array;  (* length num_groups + 1 *)
  grp_weight : int array;
  (* Segments grouped by level: segments [level_segs.(l), level_segs.(l+1))
     hold exactly the gates of depth l+1.  Gates within a level are
     mutually independent, which is what the parallel and batched
     evaluators exploit. *)
  level_segs : int array;  (* length levels + 1 *)
  (* Per packed gate (level-major order; thresholds ascend within each
     segment so the firing gates of a segment are a prefix). *)
  g_threshold : ivec;
  g_wire : i32vec;  (* output wire id *)
  outputs : int array;
  max_seg_gates : int;
  (* Per segment: the specialized batch evaluator compiled from the
     segment's template ([Kernel.Generic] = CSR fallback).  Empty when
     kernels are disabled or the circuit was packed via [of_circuit] —
     dispatch then always takes the generic path. *)
  kern : Kernel.spec array;
  k_gates : int;  (* gates covered by a non-generic kernel *)
  k_segs : int;
  (* Transposed (wire -> reading pool slots) CSR, built on first
     [session] and memoized: the edges that read a given wire.  Pure
     derived data — ignored by [structural_equal] and not persisted. *)
  mutable fanout : fanout option;
}

and fanout = {
  fan_off : ivec;  (* num_wires + 1 *)
  (* Per fanout slot, the reading edge resolved to what [update]
     actually needs: the owning segment and the edge weight.  Storing
     the resolution (instead of the raw pool position) keeps the
     per-edge cost of a flip at two sequential loads — a binary search
     for the owning segment on every touched edge dominated update
     latency before this. *)
  fan_seg : ivec;  (* owning segment id, length pool_edges *)
  fan_weight : ivec;  (* edge weight, length pool_edges *)
}

let of_circuit (c : Circuit.t) =
  let num_inputs = c.Circuit.num_inputs in
  let gates = c.Circuit.gates in
  let ng = Array.length gates in
  let num_wires = num_inputs + ng in
  check_wire_count "of_circuit" num_wires;
  let depths = c.Circuit.depths in
  let levels = Array.fold_left max 0 depths in
  (* Stable counting sort of gate ids by level (level l = depth l+1). *)
  let counts = Array.make (levels + 1) 0 in
  for g = 0 to ng - 1 do
    let d = depths.(num_inputs + g) in
    counts.(d) <- counts.(d) + 1
  done;
  (* lvl_start.(l) = first packed position of level l; sentinel at [levels]. *)
  let lvl_start = Array.make (levels + 1) 0 in
  for l = 0 to levels - 1 do
    lvl_start.(l + 1) <- lvl_start.(l) + counts.(l + 1)
  done;
  let order = Array.make (max ng 1) 0 in
  let cursor = Array.copy lvl_start in
  for g = 0 to ng - 1 do
    let l = depths.(num_inputs + g) - 1 in
    order.(cursor.(l)) <- g;
    cursor.(l) <- cursor.(l) + 1
  done;
  let pool_wires = Intvec.create ~capacity:1024 () in
  let seg_off = Intvec.create () in
  let seg_fan = Intvec.create () in
  let seg_gates = Intvec.create () in
  let seg_grp = Intvec.create () in
  let grp_off = Intvec.create () in
  let grp_weight = Intvec.create () in
  let level_segs = Array.make (levels + 1) 0 in
  let g_threshold = Array.make (max ng 1) 0 in
  let g_wire = Array.make (max ng 1) 0 in
  let max_seg_gates = ref 0 in
  let p = ref 0 in
  for l = 0 to levels - 1 do
    level_segs.(l) <- Intvec.length seg_off;
    let level_end = lvl_start.(l + 1) in
    while !p < level_end do
      let g0 = order.(!p) in
      let gate0 = gates.(g0) in
      Intvec.push seg_off (Intvec.length pool_wires);
      Intvec.push seg_fan (Array.length gate0.Gate.inputs);
      Intvec.push seg_gates !p;
      Intvec.push seg_grp (Intvec.length grp_weight);
      (* Push the segment's edges grouped by weight value (stable within
         a group, groups ordered by first appearance). *)
      let ins = gate0.Gate.inputs and wts = gate0.Gate.weights in
      let fan = Array.length ins in
      let gid = Array.make (max fan 1) 0 in
      let tbl = Hashtbl.create 8 in
      let gcount = ref 0 in
      for i = 0 to fan - 1 do
        match Hashtbl.find_opt tbl wts.(i) with
        | Some g -> gid.(i) <- g
        | None ->
            Hashtbl.add tbl wts.(i) !gcount;
            gid.(i) <- !gcount;
            incr gcount
      done;
      let gcount = !gcount in
      let sizes = Array.make (max gcount 1) 0 in
      for i = 0 to fan - 1 do
        sizes.(gid.(i)) <- sizes.(gid.(i)) + 1
      done;
      let base = Intvec.length pool_wires in
      let starts = Array.make (max gcount 1) 0 in
      let acc = ref 0 in
      for g = 0 to gcount - 1 do
        starts.(g) <- !acc;
        acc := !acc + sizes.(g)
      done;
      let gw = Array.make (max gcount 1) 0 in
      let perm = Array.make (max fan 1) 0 in
      let cur = Array.copy starts in
      for i = 0 to fan - 1 do
        let g = gid.(i) in
        gw.(g) <- wts.(i);
        perm.(cur.(g)) <- i;
        cur.(g) <- cur.(g) + 1
      done;
      for j = 0 to fan - 1 do
        let i = perm.(j) in
        Intvec.push pool_wires ins.(i)
      done;
      for g = 0 to gcount - 1 do
        Intvec.push grp_off (base + starts.(g));
        Intvec.push grp_weight gw.(g)
      done;
      (* Extend the segment over consecutive gates that physically share
         the input/weight arrays (they necessarily sit at the same
         depth, so the level boundary is respected automatically — but
         we re-check it to stay robust to exotic circuits). *)
      let q = ref (!p + 1) in
      while
        !q < level_end
        && gates.(order.(!q)).Gate.inputs == gate0.Gate.inputs
        && gates.(order.(!q)).Gate.weights == gate0.Gate.weights
      do
        incr q
      done;
      let k = !q - !p in
      if k > !max_seg_gates then max_seg_gates := k;
      let pairs =
        Array.init k (fun i ->
            let g = order.(!p + i) in
            (gates.(g).Gate.threshold, num_inputs + g))
      in
      Array.sort (fun (a, _) (b, _) -> compare (a : int) b) pairs;
      for i = 0 to k - 1 do
        let th, w = pairs.(i) in
        g_threshold.(!p + i) <- th;
        g_wire.(!p + i) <- w
      done;
      p := !q
    done
  done;
  level_segs.(levels) <- Intvec.length seg_off;
  Intvec.push seg_gates ng;
  Intvec.push seg_grp (Intvec.length grp_weight);
  Intvec.push grp_off (Intvec.length pool_wires);
  {
    circuit = Lazy.from_val c;
    num_inputs;
    num_wires;
    num_gates = ng;
    levels;
    pool_wires = ba32_of_array (Intvec.to_array pool_wires);
    seg_off = Intvec.to_array seg_off;
    seg_fan = Intvec.to_array seg_fan;
    seg_gates = Intvec.to_array seg_gates;
    seg_grp = Intvec.to_array seg_grp;
    grp_off = Intvec.to_array grp_off;
    grp_weight = Intvec.to_array grp_weight;
    level_segs;
    g_threshold = ba_of_array g_threshold;
    g_wire = ba32_of_array g_wire;
    outputs = c.Circuit.outputs;
    max_seg_gates = !max_seg_gates;
    kern = [||];
    k_gates = 0;
    k_segs = 0;
    fanout = None;
  }

let circuit t = Lazy.force t.circuit
let num_gates t = t.num_gates
let num_levels t = t.levels
let num_segments t = Array.length t.seg_off
(* [grp_off]'s sentinel is the pool size (the Bigarray itself is padded
   to length >= 1, so its dim is not authoritative). *)
let pool_edges t = t.grp_off.(Array.length t.grp_off - 1)

type coverage = {
  kernel_gates : int;
  fallback_gates : int;
  kernel_segments : int;
  generic_segments : int;
}

let coverage t =
  {
    kernel_gates = t.k_gates;
    fallback_gates = t.num_gates - t.k_gates;
    kernel_segments = t.k_segs;
    generic_segments = Array.length t.seg_off - t.k_segs;
  }

(* ------------------------------------------------------------------ *)
(* Domain pool                                                        *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type pool = {
    size : int;
    mutable task : int -> unit;
    mutable nchunks : int;
    next : int Atomic.t;
    mutable done_workers : int;
    mutable epoch : int;
    mutable stop : bool;
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable err : exn option;
    mutable handles : unit Domain.t list;
  }

  type t = pool

  let size t = t.size

  (* Claim and run chunks until the current job is drained.  The first
     exception (e.g. a [Checked.Overflow] from a checked evaluation) is
     parked in [err] and re-raised by the caller after the barrier. *)
  let drain t =
    let rec loop () =
      let i = Atomic.fetch_and_add t.next 1 in
      if i < t.nchunks then begin
        (try t.task i
         with e ->
           Mutex.lock t.m;
           if t.err = None then t.err <- Some e;
           Mutex.unlock t.m);
        loop ()
      end
    in
    loop ()

  let worker t () =
    let my_epoch = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.m;
      while (not t.stop) && t.epoch = !my_epoch do
        Condition.wait t.work_cv t.m
      done;
      if t.stop then begin
        Mutex.unlock t.m;
        running := false
      end
      else begin
        my_epoch := t.epoch;
        Mutex.unlock t.m;
        drain t;
        Mutex.lock t.m;
        t.done_workers <- t.done_workers + 1;
        if t.done_workers = t.size then Condition.signal t.done_cv;
        Mutex.unlock t.m
      end
    done

  let create ~domains =
    if domains < 1 then invalid_arg "Packed.Pool.create: domains must be >= 1";
    let t =
      {
        size = domains;
        task = ignore;
        nchunks = 0;
        next = Atomic.make 0;
        done_workers = 0;
        epoch = 0;
        stop = false;
        m = Mutex.create ();
        work_cv = Condition.create ();
        done_cv = Condition.create ();
        err = None;
        handles = [];
      }
    in
    t.handles <- List.init (domains - 1) (fun _ -> Domain.spawn (worker t));
    t

  (* Run [task 0 .. task (chunks-1)] across the pool; returns when every
     chunk has finished (level barrier).  Not reentrant. *)
  let run t ~chunks task =
    if chunks < 0 then invalid_arg "Packed.Pool.run: negative chunk count";
    if chunks = 0 then ()
    else if t.size = 1 then
      for i = 0 to chunks - 1 do
        task i
      done
    else begin
      Mutex.lock t.m;
      t.task <- task;
      t.nchunks <- chunks;
      Atomic.set t.next 0;
      t.done_workers <- 0;
      t.err <- None;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      drain t;
      Mutex.lock t.m;
      t.done_workers <- t.done_workers + 1;
      while t.done_workers < t.size do
        Condition.wait t.done_cv t.m
      done;
      let err = t.err in
      t.err <- None;
      t.task <- ignore;
      Mutex.unlock t.m;
      match err with Some e -> raise e | None -> ()
    end

  let shutdown t =
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    List.iter Domain.join t.handles;
    t.handles <- []

  let with_pool ~domains f =
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

let chunk_bounds lo nseg nchunks i =
  (lo + (i * nseg / nchunks), lo + ((i + 1) * nseg / nchunks))

(* ------------------------------------------------------------------ *)
(* Direct lowering from a builder arena                               *)
(* ------------------------------------------------------------------ *)

(* [of_arena] produces the same packed form as
   [of_circuit (materialized arena)] without ever materializing the
   per-gate [Circuit.t]: each template carries a precomputed lowering
   plan (weight grouping, edge permutation, threshold sort — see
   [Template.lower_plan]) that is replayed per instance by offset
   arithmetic.  Items appear in construction order and wire ids grow
   monotonically with it, so appending each segment to its level
   reproduces exactly the stable level-major order of [of_circuit]. *)

let dummy_pseg =
  {
    Template.q_gate0 = 0;
    q_count = 0;
    q_fan = 0;
    q_refs = [||];
    q_weights = [||];
    q_grp_start = [||];
    q_grp_weight = [||];
    q_th = [||];
    q_th_gate = [||];
    q_kernel = Kernel.Generic;
  }

(* Materialize the gate array of an arena (only reached through the lazy
   [circuit] field; the packed evaluators never need it). *)
let gates_of_arena (a : Builder.arena) =
  let num_inputs = a.Builder.a_num_inputs in
  let ng = a.Builder.a_num_gates in
  let dummy = Gate.make ~inputs:[||] ~weights:[||] ~threshold:0 in
  let gates = Array.make (max ng 1) dummy in
  Array.iter
    (function
      | Builder.A_raw { gate0; gv0; count } ->
          Array.blit a.Builder.a_raw gv0 gates (gate0 - num_inputs) count
      | Builder.A_inst { tpl; wire0; slots } ->
          let nsegs = Array.length tpl.Template.seg_start - 1 in
          for s = 0 to nsegs - 1 do
            let g0 = tpl.Template.seg_start.(s) in
            let gend = tpl.Template.seg_start.(s + 1) in
            let off = tpl.Template.seg_off.(s) in
            let fan = tpl.Template.seg_off.(s + 1) - off in
            let ins =
              Array.init fan (fun i ->
                  let r = tpl.Template.s_refs.(off + i) in
                  if r >= 0 then wire0 + r else slots.(-r - 1))
            in
            let weights = tpl.Template.s_weights.(s) in
            for g = g0 to gend - 1 do
              gates.(wire0 - num_inputs + g) <-
                Gate.make ~inputs:ins ~weights
                  ~threshold:tpl.Template.g_threshold.(g)
            done
          done)
    a.Builder.a_items;
  if ng = 0 then [||] else gates

let of_arena ?pool ?(domains = 1) ?(kernels = true) (a : Builder.arena) =
  let num_inputs = a.Builder.a_num_inputs in
  let ng = a.Builder.a_num_gates in
  let num_wires = a.Builder.a_num_wires in
  check_wire_count "of_arena" num_wires;
  let depths = a.Builder.a_depths in
  let levels = a.Builder.a_levels in
  let items = a.Builder.a_items in
  let item_psegs =
    Array.map
      (function
        | Builder.A_inst { tpl; _ } -> Template.lower_plan tpl
        | Builder.A_raw { gate0; gv0; count } ->
            Template.raw_psegs a.Builder.a_raw ~gv0 ~count ~wire_of:(fun i ->
                gate0 + i))
      items
  in
  let base_of idx =
    match items.(idx) with
    | Builder.A_inst { wire0; slots; _ } -> (wire0, slots)
    | Builder.A_raw _ -> (0, [||])
  in
  (* Pass 0: per-level segment/gate/group/edge counts. *)
  let seg_cnt = Array.make (max levels 1) 0 in
  let gate_cnt = Array.make (max levels 1) 0 in
  let grp_cnt = Array.make (max levels 1) 0 in
  let edge_cnt = Array.make (max levels 1) 0 in
  Array.iteri
    (fun idx psegs ->
      let w0, _ = base_of idx in
      Array.iter
        (fun (ps : Template.pseg) ->
          let l = depths.(w0 + ps.Template.q_gate0) - 1 in
          seg_cnt.(l) <- seg_cnt.(l) + 1;
          gate_cnt.(l) <- gate_cnt.(l) + ps.Template.q_count;
          grp_cnt.(l) <- grp_cnt.(l) + Array.length ps.Template.q_grp_weight;
          edge_cnt.(l) <- edge_cnt.(l) + ps.Template.q_fan)
        psegs)
    item_psegs;
  let level_segs = Array.make (levels + 1) 0 in
  let lvl_gate0 = Array.make (levels + 1) 0 in
  let lvl_grp0 = Array.make (levels + 1) 0 in
  let lvl_edge0 = Array.make (levels + 1) 0 in
  for l = 0 to levels - 1 do
    level_segs.(l + 1) <- level_segs.(l) + seg_cnt.(l);
    lvl_gate0.(l + 1) <- lvl_gate0.(l) + gate_cnt.(l);
    lvl_grp0.(l + 1) <- lvl_grp0.(l) + grp_cnt.(l);
    lvl_edge0.(l + 1) <- lvl_edge0.(l) + edge_cnt.(l)
  done;
  let nsegs = level_segs.(levels) in
  let ngroups = lvl_grp0.(levels) in
  let nedges = lvl_edge0.(levels) in
  assert (lvl_gate0.(levels) = ng);
  let pool_wires = ba32_create nedges in
  let seg_off = Array.make (max nsegs 1) 0 in
  let seg_fan = Array.make (max nsegs 1) 0 in
  let seg_gates = Array.make (nsegs + 1) 0 in
  let seg_grp = Array.make (nsegs + 1) 0 in
  let grp_off = Array.make (ngroups + 1) 0 in
  let grp_weight = Array.make (max ngroups 1) 0 in
  let g_threshold = ba_create ng in
  let g_wire = ba32_create ng in
  let kern = if kernels then Array.make (max nsegs 1) Kernel.Generic else [||] in
  let k_gates = ref 0 and k_segs = ref 0 in
  let src_ps = Array.make (max nsegs 1) dummy_pseg in
  let src_w0 = Array.make (max nsegs 1) 0 in
  let src_slots = Array.make (max nsegs 1) [||] in
  (* Pass 1: walk items in construction order, assigning each segment
     its slot in the level-major layout and filling every per-segment
     array that pass 2's parallel fill indexes into. *)
  let seg_cursor = Array.copy level_segs in
  let gate_cursor = Array.copy lvl_gate0 in
  let grp_cursor = Array.copy lvl_grp0 in
  let edge_cursor = Array.copy lvl_edge0 in
  let max_seg_gates = ref 0 in
  Array.iteri
    (fun idx psegs ->
      let w0, slots = base_of idx in
      Array.iter
        (fun (ps : Template.pseg) ->
          let l = depths.(w0 + ps.Template.q_gate0) - 1 in
          let s = seg_cursor.(l) in
          seg_cursor.(l) <- s + 1;
          let p = gate_cursor.(l) in
          gate_cursor.(l) <- p + ps.Template.q_count;
          let e = edge_cursor.(l) in
          edge_cursor.(l) <- e + ps.Template.q_fan;
          let g = grp_cursor.(l) in
          let ngr = Array.length ps.Template.q_grp_weight in
          grp_cursor.(l) <- g + ngr;
          seg_off.(s) <- e;
          seg_fan.(s) <- ps.Template.q_fan;
          seg_gates.(s) <- p;
          seg_grp.(s) <- g;
          for k = 0 to ngr - 1 do
            grp_off.(g + k) <- e + ps.Template.q_grp_start.(k);
            grp_weight.(g + k) <- ps.Template.q_grp_weight.(k)
          done;
          if ps.Template.q_count > !max_seg_gates then
            max_seg_gates := ps.Template.q_count;
          (if kernels then
             match ps.Template.q_kernel with
             | Kernel.Generic -> ()
             | spec ->
                 kern.(s) <- spec;
                 k_gates := !k_gates + ps.Template.q_count;
                 incr k_segs);
          src_ps.(s) <- ps;
          src_w0.(s) <- w0;
          src_slots.(s) <- slots)
        psegs)
    item_psegs;
  seg_gates.(nsegs) <- ng;
  seg_grp.(nsegs) <- ngroups;
  grp_off.(ngroups) <- nedges;
  (* Pass 2: resolve refs into the edge pools and blit thresholds —
     independent per segment, so it fans out across the domain pool. *)
  let fill_seg s =
    let ps = src_ps.(s) in
    let w0 = src_w0.(s) and slots = src_slots.(s) in
    let e = seg_off.(s) in
    let refs = ps.Template.q_refs in
    for i = 0 to ps.Template.q_fan - 1 do
      let r = Array.unsafe_get refs i in
      wset pool_wires (e + i)
        (if r >= 0 then w0 + r else Array.unsafe_get slots (-r - 1))
    done;
    (* Kernel-grade CSR: sort each sizable weight group's edges by wire
       id.  Within a group every edge carries the same weight, so any
       order computes the same sums (checked evaluation simply follows
       the sorted order), and the truth-table kernels are invariant
       under permuting equal-weight positions.  The paper's wide shared
       layers gather thousands of scattered wires per segment; the
       batched fold is memory-latency-bound on those reads, and a
       monotone scan turns them into cache-line-coalesced sweeps. *)
    (if kernels then
       let gs = ps.Template.q_grp_start in
       let ngr = Array.length gs in
       for g = 0 to ngr - 1 do
         let a0 = e + gs.(g) in
         let a1 = if g + 1 < ngr then e + gs.(g + 1) else e + ps.Template.q_fan in
         let len = a1 - a0 in
         if len >= 16 then begin
           let tmp = Array.init len (fun i -> wget pool_wires (a0 + i)) in
           Array.sort (fun (x : int) y -> compare x y) tmp;
           for i = 0 to len - 1 do
             wset pool_wires (a0 + i) tmp.(i)
           done
         end
       done);
    let p = seg_gates.(s) in
    let th = ps.Template.q_th and thg = ps.Template.q_th_gate in
    for i = 0 to ps.Template.q_count - 1 do
      bset g_threshold (p + i) (Array.unsafe_get th i);
      wset g_wire (p + i) (w0 + Array.unsafe_get thg i)
    done
  in
  let run_fill pl =
    let nchunks = min (max nsegs 1) (8 * Pool.size pl) in
    Pool.run pl ~chunks:nchunks (fun i ->
        let a, b = chunk_bounds 0 nsegs nchunks i in
        for s = a to b - 1 do
          fill_seg s
        done)
  in
  (match pool with
  | Some p -> run_fill p
  | None ->
      if domains <= 1 then
        for s = 0 to nsegs - 1 do
          fill_seg s
        done
      else Pool.with_pool ~domains run_fill);
  {
    circuit =
      lazy
        (Circuit.make ~num_inputs ~gates:(gates_of_arena a)
           ~outputs:a.Builder.a_outputs);
    num_inputs;
    num_wires;
    num_gates = ng;
    levels;
    pool_wires;
    seg_off;
    seg_fan;
    seg_gates;
    seg_grp;
    grp_off;
    grp_weight;
    level_segs;
    g_threshold;
    g_wire;
    outputs = a.Builder.a_outputs;
    max_seg_gates = !max_seg_gates;
    kern;
    k_gates = !k_gates;
    k_segs = !k_segs;
    fanout = None;
  }

(* ------------------------------------------------------------------ *)
(* Single-vector evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* Weighted sum of segment [s] under [values], one byte per wire, one
   weight group at a time.  The scalar evaluators only ever write 0 or
   1 there, so unchecked, a group costs a branch-free sum of its wires'
   bytes and one multiply by the group weight — no data-dependent
   branch; native-int arithmetic is modular, so this equals the
   per-edge sum bit for bit even when it wraps.  Checked, it is the
   per-edge [Checked.add] of the group weight in pool order (groups
   tile the segment's edges in order), so overflow traps where every
   other checked evaluator traps. *)
let seg_sum ~check t values s =
  let pw = t.pool_wires in
  let sum = ref 0 in
  for g = Array.unsafe_get t.seg_grp s to Array.unsafe_get t.seg_grp (s + 1) - 1 do
    let wt = Array.unsafe_get t.grp_weight g in
    let e0 = Array.unsafe_get t.grp_off g and e1 = Array.unsafe_get t.grp_off (g + 1) in
    if check then
      for i = e0 to e1 - 1 do
        if Bytes.unsafe_get values (wget pw i) <> '\000' then
          sum := Checked.add !sum wt
      done
    else begin
      let cnt = ref 0 in
      for i = e0 to e1 - 1 do
        cnt := !cnt + Char.code (Bytes.unsafe_get values (wget pw i))
      done;
      sum := !sum + (!cnt * wt)
    end
  done;
  !sum

(* Firing-prefix length within gate range [glo, ghi) under weighted sum
   [sum] (thresholds ascend within a segment). *)
let seg_cut t ~glo ~ghi sum =
  let a = ref glo and b = ref ghi in
  while !a < !b do
    let mid = (!a + !b) lsr 1 in
    if bget t.g_threshold mid <= sum then a := mid + 1 else b := mid
  done;
  !a - glo

let fire_prefix t values ~glo cut =
  for g = glo to glo + cut - 1 do
    Bytes.unsafe_set values (wget t.g_wire g) '\001'
  done

(* Evaluate segments [lo, hi) against [values]; returns the number of
   gates fired.  Each segment computes its shared weighted sum once and
   fires the prefix of its (ascending) thresholds that the sum reaches. *)
let eval_segs ~check t values lo hi =
  let fired = ref 0 in
  for s = lo to hi - 1 do
    let glo = Array.unsafe_get t.seg_gates s in
    let ghi = Array.unsafe_get t.seg_gates (s + 1) in
    let cut = seg_cut t ~glo ~ghi (seg_sum ~check t values s) in
    fire_prefix t values ~glo cut;
    fired := !fired + cut
  done;
  !fired

(* Level [l]'s firing count; under a pool of several domains its
   segments fan out in chunks. *)
let eval_level ~check t values pool l =
  let lo = t.level_segs.(l) and hi = t.level_segs.(l + 1) in
  let nseg = hi - lo in
  match pool with
  | Some pool when Pool.size pool > 1 && nseg > 1 ->
      let nchunks = min nseg (4 * Pool.size pool) in
      let partial = Array.make nchunks 0 in
      Pool.run pool ~chunks:nchunks (fun i ->
          let a, b = chunk_bounds lo nseg nchunks i in
          partial.(i) <- eval_segs ~check t values a b);
      Array.fold_left ( + ) 0 partial
  | _ -> eval_segs ~check t values lo hi

let with_domains ?pool ~domains f =
  match pool with
  | Some p -> f (Some p)
  | None ->
      if domains <= 1 then f None
      else Pool.with_pool ~domains (fun p -> f (Some p))

let check_width name t inputs =
  if Array.length inputs <> t.num_inputs then
    invalid_arg
      (Printf.sprintf "Packed.%s: expected %d inputs, got %d" name t.num_inputs
         (Array.length inputs))

(* Zero [values]' first [num_wires] bytes and set the input wires. *)
let load_inputs t values inputs =
  Bytes.fill values 0 t.num_wires '\000';
  Array.iteri (fun i v -> if v then Bytes.unsafe_set values i '\001') inputs

(* The scalar level walk behind [run] and one-lane [run_batch]: each
   level runs under [timed l] and its firing count lands in the returned
   array. *)
let walk_levels ~check ~timed t values pool =
  let level_firings = Array.make t.levels 0 in
  for l = 0 to t.levels - 1 do
    timed l (fun () -> level_firings.(l) <- eval_level ~check t values pool l)
  done;
  level_firings

let untimed _ f = f ()

let run ?(check = false) ?pool ?(domains = 1) t inputs =
  check_width "run" t inputs;
  let values = Bytes.create t.num_wires in
  load_inputs t values inputs;
  let level_firings =
    with_domains ?pool ~domains (walk_levels ~check ~timed:untimed t values)
  in
  {
    Simulator.values;
    outputs = Array.map (fun w -> Bytes.unsafe_get values w <> '\000') t.outputs;
    firings = Array.fold_left ( + ) 0 level_firings;
    level_firings;
  }

(* ------------------------------------------------------------------ *)
(* Incremental (dirty-cone) evaluation                                *)
(* ------------------------------------------------------------------ *)

(* Streaming workloads (edge flips on a held graph) change a handful of
   input bits between evaluations.  A [session] keeps the whole wire
   state of the last evaluation plus per-segment cached sums and firing
   cuts; [update] walks the transposed CSR from the flipped wires and
   re-decides only the segments whose inputs actually changed, level by
   level.  The cone collapses as soon as a level's firing set is
   unchanged — no segment downstream is ever touched (the Crossbow
   incremental-instantiation idiom: extend the live instance, never
   rebuild). *)

let fanout_index t =
  match t.fanout with
  | Some f -> f
  | None ->
      let nedges = pool_edges t in
      let nw = t.num_wires in
      let off = ba_create (nw + 1) in
      Bigarray.Array1.fill off 0;
      for e = 0 to nedges - 1 do
        let w = wget t.pool_wires e in
        bset off (w + 1) (bget off (w + 1) + 1)
      done;
      for w = 1 to nw do
        bset off w (bget off w + bget off (w - 1))
      done;
      (* Segments own consecutive group ranges and groups consecutive
         edge ranges, so walking segments, then their groups, then the
         groups' edges visits the pool in order with each edge's owner
         and weight in hand. *)
      let seg = ba_create nedges in
      let wgt = ba_create nedges in
      let cur = ba_create (nw + 1) in
      Bigarray.Array1.blit off cur;
      for s = 0 to Array.length t.seg_off - 1 do
        for g = t.seg_grp.(s) to t.seg_grp.(s + 1) - 1 do
          let wt = t.grp_weight.(g) in
          for e = t.grp_off.(g) to t.grp_off.(g + 1) - 1 do
            let w = wget t.pool_wires e in
            let c = bget cur w in
            bset seg c s;
            bset wgt c wt;
            bset cur w (c + 1)
          done
        done
      done;
      let f = { fan_off = off; fan_seg = seg; fan_weight = wgt } in
      t.fanout <- Some f;
      f

(* Per-segment session state, interleaved 4 ints (32 bytes) per segment
   so that touching a segment in the hot flip path costs at most one
   cache line, not one miss per parallel array (the scattered layout
   dominated update latency before this):
     base+0  cached weighted sum
     base+1  bracket low   — the cut is unchanged while lo <= sum
     base+2  bracket high  — ... and sum < hi
     base+3  level lsl 1 lor queued-dirty bit for the in-flight update
   The firing-prefix length (cut) is only read by the sweep — two
   orders of magnitude fewer touches than the flip path — and lives in
   a side array to keep the hot stride at a half line. *)
type session = {
  ss_t : t;
  ss_check : bool;
  ss_values : Bytes.t;  (* last-known value of every wire *)
  ss_st : ivec;  (* 4 * num_segments, layout above *)
  ss_cut : int array;  (* per segment: firing-prefix length *)
  ss_lf : int array;  (* per level: cached firing count *)
  ss_queue : Intvec.t array;  (* per level: queued dirty segment ids *)
  ss_out : ivec;  (* scratch: crossing segment ids from the C touch loop *)
  ss_wires : ivec;  (* scratch: staged wire flips, wire lsl 1 lor value *)
  mutable ss_nwires : int;  (* staged flips pending a flush *)
  mutable ss_updates : int;
  mutable ss_flips : int;
  mutable ss_dirty_segs : int;
  mutable ss_dirty_gates : int;
}

(* The per-edge delta loop lives in C (session_stubs.c) so it can issue
   software prefetches for the random state-array lines; the box this
   targets is latency-bound on exactly that access.  Wire flips are
   staged into [ss_wires] (values bytes written eagerly so duplicate
   delta entries still cancel) and flushed a level at a time, giving
   the stub enough edges in one call to keep many misses in flight.
   The stub appends bracket-crossing segment ids to [ss_out]; the
   level-queue distribution stays here.  No allocation, no callbacks,
   no exceptions on the C side. *)
external session_touch_many_stub :
  ivec -> ivec -> ivec -> ivec -> ivec -> int -> ivec -> int
  = "tcmm_session_touch_many_byte" "tcmm_session_touch_many"
[@@noalloc]

(* The cut is unchanged exactly while the sum stays inside
   [thr(glo + cut - 1), thr(glo + cut)) — refresh after any cut move.
   The open ends use integer sentinels a real sum never escapes. *)
let set_bracket t st base ~glo ~ghi cut =
  bset st (base + 1)
    (if cut = 0 then min_int else bget t.g_threshold (glo + cut - 1));
  bset st (base + 2)
    (if glo + cut >= ghi then max_int else bget t.g_threshold (glo + cut))

let session ?(check = false) t inputs =
  check_width "session" t inputs;
  let values = Bytes.create t.num_wires in
  load_inputs t values inputs;
  ignore (fanout_index t : fanout);
  let nsegs = Array.length t.seg_off in
  let st = ba_create (4 * max nsegs 1) in
  Bigarray.Array1.fill st 0;
  let ss_cut = Array.make (max nsegs 1) 0 in
  let ss_lf = Array.make t.levels 0 in
  for l = 0 to t.levels - 1 do
    let fired = ref 0 in
    for s = t.level_segs.(l) to t.level_segs.(l + 1) - 1 do
      let glo = t.seg_gates.(s) and ghi = t.seg_gates.(s + 1) in
      let sum = seg_sum ~check t values s in
      let cut = seg_cut t ~glo ~ghi sum in
      let base = s lsl 2 in
      bset st (base + 0) sum;
      bset st (base + 3) (l lsl 1);
      set_bracket t st base ~glo ~ghi cut;
      ss_cut.(s) <- cut;
      fire_prefix t values ~glo cut;
      fired := !fired + cut
    done;
    ss_lf.(l) <- !fired
  done;
  {
    ss_t = t;
    ss_check = check;
    ss_values = values;
    ss_st = st;
    ss_cut;
    ss_lf;
    ss_queue = Array.init (max t.levels 1) (fun _ -> Intvec.create ());
    ss_out = ba_create (max nsegs 1);
    ss_wires = ba_create (max (Bytes.length values) 1);
    ss_nwires = 0;
    ss_updates = 0;
    ss_flips = 0;
    ss_dirty_segs = 0;
    ss_dirty_gates = 0;
  }

let session_result ss =
  let t = ss.ss_t in
  {
    Simulator.values = ss.ss_values;
    outputs =
      Array.map (fun w -> Bytes.unsafe_get ss.ss_values w <> '\000') t.outputs;
    firings = Array.fold_left ( + ) 0 ss.ss_lf;
    level_firings = Array.copy ss.ss_lf;
  }

let session_inputs ss =
  Array.init ss.ss_t.num_inputs (fun i ->
      Bytes.unsafe_get ss.ss_values i <> '\000')

(* Flip wire [w] to [v]: delta-adjust every segment reading it through
   the transposed index, and queue only the segments whose sum left its
   firing-cut bracket — a segment whose cut cannot have moved is never
   swept at all.  Readers sit at strictly later levels than the writer
   (depths increase along edges), so a flip raised while level [l] is
   swept only ever queues levels > l.  Checked sessions skip the delta
   bookkeeping and queue every reader: their dirty segments are
   recomputed from the pool during the sweep, keeping overflow
   behaviour identical to a from-scratch checked run. *)
let touch_wire ss f w v =
  Bytes.unsafe_set ss.ss_values w (if v then '\001' else '\000');
  if ss.ss_check then begin
    let st = ss.ss_st in
    let queue = ss.ss_queue in
    let lo = bget f.fan_off w and hi = bget f.fan_off (w + 1) in
    for i = lo to hi - 1 do
      let s = bget f.fan_seg i in
      let base = s lsl 2 in
      let lvd = bget st (base + 3) in
      if lvd land 1 = 0 then begin
        bset st (base + 3) (lvd lor 1);
        Intvec.push (Array.unsafe_get queue (lvd lsr 1)) s
      end
    done
  end
  else begin
    let n = ss.ss_nwires in
    bset ss.ss_wires n ((w lsl 1) lor Bool.to_int v);
    ss.ss_nwires <- n + 1
  end

(* Run the staged wire flips through the C touch loop and queue the
   bracket-crossing segments by level.  A wire is staged at most once
   between flushes: delta entries are deduplicated against the value
   bytes, and within one level sweep each gate wire changes at most
   once. *)
let flush_touches ss f =
  let n = ss.ss_nwires in
  if n > 0 then begin
    ss.ss_nwires <- 0;
    let st = ss.ss_st in
    let queue = ss.ss_queue in
    let out = ss.ss_out in
    let m =
      session_touch_many_stub st f.fan_off f.fan_seg f.fan_weight ss.ss_wires n
        out
    in
    for k = 0 to m - 1 do
      let s = bget out k in
      let lvd = bget st ((s lsl 2) + 3) in
      Intvec.push (Array.unsafe_get queue (lvd lsr 1)) s
    done
  end

let update ss delta =
  let t = ss.ss_t in
  let f = fanout_index t in
  ss.ss_updates <- ss.ss_updates + 1;
  Array.iter
    (fun (i, v) ->
      if i < 0 || i >= t.num_inputs then
        invalid_arg
          (Printf.sprintf "Packed.update: wire %d is not an input (inputs: %d)"
             i t.num_inputs);
      if Bytes.unsafe_get ss.ss_values i <> '\000' <> v then begin
        ss.ss_flips <- ss.ss_flips + 1;
        touch_wire ss f i v
      end)
    delta;
  flush_touches ss f;
  (* Sweep the queued segments level by level.  Only segments whose sum
     crossed a threshold are ever queued, so the sweep re-decides the
     cut, patches the level firing count, and propagates the changed
     gate wires; when no level queues anything further the cone has
     collapsed — the early exit is structural, not a test. *)
  let st = ss.ss_st in
  for l = 0 to t.levels - 1 do
    let q = ss.ss_queue.(l) in
    let n = Intvec.length q in
    if n > 0 then begin
      ss.ss_dirty_segs <- ss.ss_dirty_segs + n;
      for k = 0 to n - 1 do
        let s = Intvec.get q k in
        let base = s lsl 2 in
        bset st (base + 3) (bget st (base + 3) land lnot 1);
        let glo = Array.unsafe_get t.seg_gates s in
        let ghi = Array.unsafe_get t.seg_gates (s + 1) in
        ss.ss_dirty_gates <- ss.ss_dirty_gates + ghi - glo;
        let sum =
          if ss.ss_check then begin
            let sum = seg_sum ~check:true t ss.ss_values s in
            bset st (base + 0) sum;
            sum
          end
          else bget st (base + 0)
        in
        let cut = seg_cut t ~glo ~ghi sum in
        let old = Array.unsafe_get ss.ss_cut s in
        if cut <> old then begin
          Array.unsafe_set ss.ss_cut s cut;
          set_bracket t st base ~glo ~ghi cut;
          ss.ss_lf.(l) <- ss.ss_lf.(l) + cut - old;
          if cut > old then
            for g = glo + old to glo + cut - 1 do
              touch_wire ss f (wget t.g_wire g) true
            done
          else
            for g = glo + cut to glo + old - 1 do
              touch_wire ss f (wget t.g_wire g) false
            done
        end
      done;
      Intvec.clear q;
      flush_touches ss f
    end
  done;
  session_result ss

type session_stats = {
  su_updates : int;
  su_flips : int;
  su_dirty_segments : int;
  su_dirty_gates : int;
  su_segments : int;
  su_gates : int;
}

let session_stats ss =
  {
    su_updates = ss.ss_updates;
    su_flips = ss.ss_flips;
    su_dirty_segments = ss.ss_dirty_segs;
    su_dirty_gates = ss.ss_dirty_gates;
    su_segments = Array.length ss.ss_t.seg_off;
    su_gates = ss.ss_t.num_gates;
  }

(* ------------------------------------------------------------------ *)
(* Batched evaluation                                                 *)
(* ------------------------------------------------------------------ *)

(* Lanes are packed into the low [word_lanes] bits of a native int (62
   keeps every word nonnegative, so isolated bits stay in 1 lsl 0..61).
   One traversal of the circuit metadata evaluates the whole batch:
   wire values are stored wire-major ([vals.(wire * wordc + word)]), so
   each segment reads its metadata once and sweeps the words of each
   edge contiguously. *)
let word_lanes = Kernel.word_lanes

(* de Bruijn-style bit indexing (see [Kernel]): a single multiply maps
   an isolated bit to a 7-bit hash slot — no division in the innermost
   batched loop.  [ctz_table] decodes a slot back to its lane;
   [lane_slot] is the inverse (lane -> slot), letting the per-lane
   accumulators live directly at their hash slots so the accumulate loop
   needs no decode at all. *)
let ctz_mul = Kernel.ctz_mul
let ctz_slots = Kernel.ctz_slots
let ctz_table = Kernel.ctz_table
let lane_slot = Kernel.lane_slot
let full_word = (1 lsl word_lanes) - 1

(* Wire values of a batch: lane words for the SWAR kernels, or the
   scalar walk's byte per wire when the batch is a single lane. *)
type wire_values =
  | Words of { wordc : int; vals : int array }
      (* wire-major: vals.(wire * wordc + word) *)
  | Wire_bytes of Bytes.t

type batch_result = {
  b_lanes : int;
  b_values : wire_values;
  b_outputs : bool array array;
  b_firings : int array;
  b_level_firings : int array array;
}

(* Below this group size the carry-save ladder's fixed costs (zeroing
   and unslicing the counters) outweigh the per-set-bit adds it saves. *)
let csa_cutoff = 16

(* Counter words for the carry-save popcount: counts fit in
   [log2 max_fan] bits; 62 is a safe ceiling (group sizes are < 2^62). *)
let csa_bits = 62

(* Per-evaluator scratch, allocated once per [run_batch] (per chunk
   slot under a pool) and reused across every level — the level loop
   itself is allocation-free.  The [wordc]-scaled areas are sliced per
   lane word ([wd * ctz_slots], [wd * csa_bits]); [sc_cnt] is kept
   all-zero between segments (both writers re-zero exactly the slots
   they rippled into). *)
type scratch = {
  sc_accs : int array;  (* wordc * ctz_slots: per-lane sums by hash slot *)
  sc_cnt : int array;  (* wordc * csa_bits: bit-sliced per-lane counters *)
  sc_maxj : int array;  (* wordc: counter bits in use per word *)
  sc_gate_out : int array;  (* max_seg_gates: per-gate firing words *)
  sc_bucket : int array;
      (* max_seg_gates + 1: lanes bucketed by firing-prefix length;
         kept all-zero between segments *)
  sc_mt : int array;  (* 2^tt_max_fan: minterm tree *)
  sc_ew : int array;  (* tt_max_fan: edge input words *)
  sc_ewi : int array;  (* tt_max_fan: edge value-row offsets *)
  sc_gv : int array;
      (* max_seg_fan * wordc: gathered edge value words.  The carry-save
         kernels gather a group's scattered wire rows here in a pure
         load/store pass — no arithmetic between the loads, so the
         out-of-order window keeps tens of cache misses in flight —
         then fold the contiguous copy. *)
  sc_ms : int array;
      (* wordc * csa_bits: bit-sliced master accumulator of the
         carry-save kernels (plane j = bit j of every lane's biased
         segment sum); kept all-zero between segments *)
}

let make_scratch t ~wordc =
  let max_fan = Array.fold_left max 1 t.seg_fan in
  {
    sc_accs = Array.make (wordc * ctz_slots) 0;
    sc_cnt = Array.make (wordc * csa_bits) 0;
    sc_maxj = Array.make wordc 0;
    sc_gate_out = Array.make (max t.max_seg_gates 1) 0;
    sc_bucket = Array.make (t.max_seg_gates + 1) 0;
    sc_mt = Array.make (1 lsl Kernel.tt_max_fan) 0;
    sc_ew = Array.make Kernel.tt_max_fan 0;
    sc_ewi = Array.make Kernel.tt_max_fan 0;
    sc_gv = Array.make (max_fan * wordc) 0;
    sc_ms = Array.make (wordc * csa_bits) 0;
  }

(* The carry-save ladder's two steps.  Closed top-level functions, so
   inlining them allocates nothing: a local closure over the ladder's
   variables would be allocated at every use (one per 16 edges).

   [csa_insert] ripples [x] into counter levels [l0, w) of the word at
   [cb]; [ladder_in] is input [k] of the 16-edge chunk starting at edge
   [i0] — read straight through the wire id when [direct], else from
   the gathered copy at row offset [b]. *)
let[@inline always] csa_insert cnt ~cb ~w x l0 =
  if x <> 0 then begin
    let carry = ref x in
    for j = l0 to w - 1 do
      let c = Array.unsafe_get cnt (cb + j) in
      Array.unsafe_set cnt (cb + j) (c lxor !carry);
      carry := c land !carry
    done
  end

let[@inline always] ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b k =
  if direct then Array.unsafe_get vals (wget pw (i0 + k)) lxor nmask
  else Array.unsafe_get gv (b + (k * wordc))

(* Evaluate segments [lo, hi) for every lane word in one metadata
   traversal, adding per-lane firing counts into [fires] (length
   [lanes], indexed by global lane = word * 62 + bit).  Dead lanes of
   the last word hold 0 on every wire: inputs are only packed for real
   lanes, and every gate write below is masked to the word's active
   lanes — so set-bit iteration never visits them. *)
let eval_batch_segs ~check t sc vals ~wordc ~lanes ~fires lo hi =
  let pw = t.pool_wires in
  let th = t.g_threshold and gw = t.g_wire in
  let ctz = ctz_table and ls = lane_slot in
  let accs = sc.sc_accs and cnt = sc.sc_cnt and maxjs = sc.sc_maxj in
  let gate_out = sc.sc_gate_out in
  let kern = t.kern in
  let have_kern = (not check) && Array.length kern <> 0 in
  (* Branchless carry-save fold of edges [e0, e1) into the bit-sliced
     counters, [w] levels deep ([w >= bits_for (e1 - e0)], so the carry
     out of the top level is always zero).  Edges are consumed in
     pairs: a 3:2 compressor at level 0, then a fixed-depth ripple.
     The fixed trip count is the point — the generic path's
     data-dependent early-out mispredicts on nearly every edge, and
     each flush discards the speculative gather loads; this form keeps
     the loads streaming. *)
  let gv = sc.sc_gv in
  let fold_group ~neg e0 e1 w =
    let len = e1 - e0 in
    (* [neg] complements every word on the way in — a negative-weight
       group counts zeros (see the carry-save branch below); the
       garbage this plants in dead lane positions never crosses lanes
       in the bit-sliced arithmetic and is masked off before any
       output is written.

       Single-word batches read [vals] straight through the wire
       indices inside the ladder (its 16 loads per chunk are mutually
       independent, so the misses overlap).  Multi-word batches first
       gather each edge's row into contiguous scratch so the per-word
       passes below stream it. *)
    let nmask = if neg then -1 else 0 in
    (if wordc > 1 then
       for i = 0 to len - 1 do
         let wb = wget pw (e0 + i) * wordc in
         for wd = 0 to wordc - 1 do
           Array.unsafe_set gv ((i * wordc) + wd)
             (Array.unsafe_get vals (wb + wd) lxor nmask)
         done
       done);
    (* Compute pass: a Harley-Seal carry-save ladder.  Running
       [ones]/[twos]/[fours]/[eights] registers absorb the stream two
       words at a time (15 compressors per 16 edges, all in
       registers), and only the one sixteens-carry per chunk — zero
       for most chunks on ~8%-ones wires — touches the counter array.
       That is ~5 word ops per edge where the naive pairwise ripple
       pays ~4(w-1); every compressor conserves the summed count, and
       the group total stays below [2^w], so no carry ever leaves the
       top level and the counts are exact. *)
    for wd = 0 to wordc - 1 do
      let cb = wd * csa_bits in
      let direct = wordc = 1 in
      let i = ref 0 in
      if len >= 16 then begin
        (* len >= 16 forces w = bits_for len >= 5, so the
           sixteens-carry always has a level to land on. *)
        let ones = ref 0 and twos = ref 0 in
        let fours = ref 0 and eights = ref 0 in
        while !i + 16 <= len do
          let b = (!i * wordc) + wd in
          let i0 = e0 + !i in
          let x0 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 0 in
          let x1 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 1 in
          let u = !ones lxor x0 in
          let t2a = (!ones land x0) lor (u land x1) in
          ones := u lxor x1;
          let x2 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 2 in
          let x3 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 3 in
          let u = !ones lxor x2 in
          let t2b = (!ones land x2) lor (u land x3) in
          ones := u lxor x3;
          let u = !twos lxor t2a in
          let f4a = (!twos land t2a) lor (u land t2b) in
          twos := u lxor t2b;
          let x4 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 4 in
          let x5 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 5 in
          let u = !ones lxor x4 in
          let t2a = (!ones land x4) lor (u land x5) in
          ones := u lxor x5;
          let x6 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 6 in
          let x7 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 7 in
          let u = !ones lxor x6 in
          let t2b = (!ones land x6) lor (u land x7) in
          ones := u lxor x7;
          let u = !twos lxor t2a in
          let f4b = (!twos land t2a) lor (u land t2b) in
          twos := u lxor t2b;
          let u = !fours lxor f4a in
          let e8a = (!fours land f4a) lor (u land f4b) in
          fours := u lxor f4b;
          let x8 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 8 in
          let x9 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 9 in
          let u = !ones lxor x8 in
          let t2a = (!ones land x8) lor (u land x9) in
          ones := u lxor x9;
          let x10 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 10 in
          let x11 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 11 in
          let u = !ones lxor x10 in
          let t2b = (!ones land x10) lor (u land x11) in
          ones := u lxor x11;
          let u = !twos lxor t2a in
          let f4a = (!twos land t2a) lor (u land t2b) in
          twos := u lxor t2b;
          let x12 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 12 in
          let x13 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 13 in
          let u = !ones lxor x12 in
          let t2a = (!ones land x12) lor (u land x13) in
          ones := u lxor x13;
          let x14 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 14 in
          let x15 = ladder_in ~direct ~nmask ~wordc vals pw gv ~i0 ~b 15 in
          let u = !ones lxor x14 in
          let t2b = (!ones land x14) lor (u land x15) in
          ones := u lxor x15;
          let u = !twos lxor t2a in
          let f4b = (!twos land t2a) lor (u land t2b) in
          twos := u lxor t2b;
          let u = !fours lxor f4a in
          let e8b = (!fours land f4a) lor (u land f4b) in
          fours := u lxor f4b;
          let u = !eights lxor e8a in
          let s16 = (!eights land e8a) lor (u land e8b) in
          eights := u lxor e8b;
          csa_insert cnt ~cb ~w s16 4;
          i := !i + 16
        done;
        csa_insert cnt ~cb ~w !ones 0;
        csa_insert cnt ~cb ~w !twos 1;
        csa_insert cnt ~cb ~w !fours 2;
        csa_insert cnt ~cb ~w !eights 3
      end;
      while !i < len do
        csa_insert cnt ~cb ~w
          (ladder_in ~direct ~nmask ~wordc vals pw gv ~i0:(e0 + !i)
             ~b:((!i * wordc) + wd) 0)
          0;
        incr i
      done
    done
  in
  for s = lo to hi - 1 do
    let glo = Array.unsafe_get t.seg_gates s in
    let ghi = Array.unsafe_get t.seg_gates (s + 1) in
    let k = ghi - glo in
    let spec = if have_kern then Array.unsafe_get kern s else Kernel.Generic in
    match spec with
    | Kernel.Tt { k_fan; k_tt } ->
        (* Truth-table kernel: shared minterm tree per word, baked
           firing sets per gate — no accumulators at all. *)
        let off = Array.unsafe_get t.seg_off s in
        let ew = sc.sc_ew and ewi = sc.sc_ewi and mt = sc.sc_mt in
        for i = 0 to k_fan - 1 do
          Array.unsafe_set ewi i (wget pw (off + i) * wordc)
        done;
        for wd = 0 to wordc - 1 do
          let base = wd * word_lanes in
          let w_lanes = lanes - base in
          let full =
            if w_lanes >= word_lanes then full_word else (1 lsl w_lanes) - 1
          in
          for i = 0 to k_fan - 1 do
            Array.unsafe_set ew i
              (Array.unsafe_get vals (Array.unsafe_get ewi i + wd))
          done;
          Kernel.eval_tt ~mt ~fan:k_fan ~tt:k_tt ~count:k ~full ~ew
            ~out:gate_out;
          (* Ascending thresholds nest the firing words
             ([gate_out.(j)] contains [gate_out.(j+1)]), so each lane's
             firing count is its prefix length: walk top-down and
             charge [j + 1] to the lanes whose prefix ends exactly
             there — one set-bit visit per firing lane instead of one
             per firing gate. *)
          let prev = ref 0 in
          for j = k - 1 downto 0 do
            let out = Array.unsafe_get gate_out j in
            if out <> 0 then begin
              Array.unsafe_set vals (wget gw (glo + j) * wordc + wd) out;
              let m = ref (out land lnot !prev) in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + j + 1);
                m := !m lxor b
              done;
              prev := out
            end
          done
        done
    | Kernel.Pop { k_bits; k_cmp; k_c } ->
        (* Popcount kernel: carry-save fold of the (single-weight)
           segment into bit-sliced counters, then one MSB-first compare
           per gate per word against the baked count bound.  Bounds are
           monotone in the (ascending) thresholds, so the first empty
           gate word ends the word's prefix. *)
        let off = Array.unsafe_get t.seg_off s in
        let fan = Array.unsafe_get t.seg_fan s in
        fold_group ~neg:false off (off + fan) k_bits;
        for wd = 0 to wordc - 1 do
          let base = wd * word_lanes in
          let w_lanes = lanes - base in
          let full =
            if w_lanes >= word_lanes then full_word else (1 lsl w_lanes) - 1
          in
          let cb = wd * csa_bits in
          (* Monotone bounds nest the firing words, so charge each
             lane its prefix length once: lanes leaving the prefix at
             gate [j] get [j], and whatever survives the loop gets the
             final prefix length. *)
          let j = ref 0 in
          let go = ref true in
          let prev = ref 0 in
          while !go && !j < k do
            let c = Array.unsafe_get k_c !j in
            let out =
              match k_cmp with
              | Kernel.Ge -> Kernel.cmp_ge cnt ~base:cb ~bits:k_bits ~c ~full
              | Kernel.Le -> Kernel.cmp_le cnt ~base:cb ~bits:k_bits ~c ~full
            in
            if out = 0 then go := false
            else begin
              Array.unsafe_set vals (wget gw (glo + !j) * wordc + wd) out;
              let m = ref (!prev land lnot out) in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + !j);
                m := !m lxor b
              done;
              prev := out;
              incr j
            end
          done;
          let m = ref !prev in
          while !m <> 0 do
            let b = !m land (- !m) in
            let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
            Array.unsafe_set fires (base + l)
              (Array.unsafe_get fires (base + l) + !j);
            m := !m lxor b
          done;
          for j = 0 to k_bits - 1 do
            Array.unsafe_set cnt (cb + j) 0
          done
        done;
    | Kernel.Csa { k_widths; k_mbits; k_bth } ->
        (* Carry-save kernel: fully bit-sliced.  Each weight group's
           per-lane count is folded branchlessly (fixed depth baked in
           [k_widths]), then shift-added into the bit-sliced master
           accumulator — one ripple add per set bit of [|weight|]; a
           negative group folds complemented inputs (counting zeros),
           which the compile-time threshold bias accounts for.  No
           per-lane accumulators are ever touched: thresholding reads
           the master planes directly.  Counts and biased sums are
           exact (every compressor conserves them and the master is
           bounded by the baked span), so outputs match the generic
           path bit for bit. *)
        let ms = sc.sc_ms in
        let g0 = Array.unsafe_get t.seg_grp s in
        let g1 = Array.unsafe_get t.seg_grp (s + 1) in
        for g = g0 to g1 - 1 do
          let e0 = Array.unsafe_get t.grp_off g in
          let e1 = Array.unsafe_get t.grp_off (g + 1) in
          let wt = Array.unsafe_get t.grp_weight g in
          let w = Array.unsafe_get k_widths (g - g0) in
          fold_group ~neg:(wt < 0) e0 e1 w;
          (* master += count << sh, for each set bit sh of |wt|; the
             counters are read, not consumed, so multi-bit magnitudes
             just add again at their next shift. *)
          let a = ref (abs wt) in
          while !a <> 0 do
            let b = !a land (- !a) in
            let sh = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
            for wd = 0 to wordc - 1 do
              let cb = wd * csa_bits in
              let carry = ref 0 in
              for j = 0 to w - 1 do
                let x = Array.unsafe_get cnt (cb + j) in
                let m = Array.unsafe_get ms (cb + sh + j) in
                let u = m lxor x in
                Array.unsafe_set ms (cb + sh + j) (u lxor !carry);
                carry := (m land x) lor (u land !carry)
              done;
              let j = ref (sh + w) in
              while !carry <> 0 && !j < k_mbits do
                let m = Array.unsafe_get ms (cb + !j) in
                Array.unsafe_set ms (cb + !j) (m lxor !carry);
                carry := m land !carry;
                incr j
              done
            done;
            a := !a land (!a - 1)
          done;
          for wd = 0 to wordc - 1 do
            let cb = wd * csa_bits in
            for j = 0 to w - 1 do
              Array.unsafe_set cnt (cb + j) 0
            done
          done
        done;
        (* Biased-threshold phase straight off the master planes. *)
        for wd = 0 to wordc - 1 do
          let base = wd * word_lanes in
          let w_lanes = lanes - base in
          let full =
            if w_lanes >= word_lanes then full_word else (1 lsl w_lanes) - 1
          in
          let mb = wd * csa_bits in
          let live =
            Kernel.cmp_ge ms ~base:mb ~bits:k_mbits
              ~c:(Array.unsafe_get k_bth 0) ~full
          in
          if live <> 0 then
            if k = 1 then begin
              Array.unsafe_set vals (wget gw glo * wordc + wd) live;
              let m = ref live in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + 1);
                m := !m lxor b
              done
            end
            else begin
              (* Ascending biased thresholds nest the firing words, so
                 evaluate gates in threshold order — one bit-sliced
                 compare each, all lanes at once — and stop at the
                 first empty word.  The average firing prefix is a
                 small fraction of [k] on the paper's circuits, which
                 beats extracting every live lane's sum from the
                 planes.  Lanes leaving the prefix at gate [j] fired
                 exactly [j] gates; survivors are charged the final
                 prefix length (same accounting as the Pop branch). *)
              Array.unsafe_set vals (wget gw glo * wordc + wd) live;
              let j = ref 1 in
              let prev = ref live in
              let go = ref true in
              while !go && !j < k do
                let out =
                  Kernel.cmp_ge ms ~base:mb ~bits:k_mbits
                    ~c:(Array.unsafe_get k_bth !j) ~full
                in
                if out = 0 then go := false
                else begin
                  Array.unsafe_set vals (wget gw (glo + !j) * wordc + wd) out;
                  let m = ref (!prev land lnot out) in
                  while !m <> 0 do
                    let b = !m land (- !m) in
                    let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                    Array.unsafe_set fires (base + l)
                      (Array.unsafe_get fires (base + l) + !j);
                    m := !m lxor b
                  done;
                  prev := out;
                  incr j
                end
              done;
              let m = ref !prev in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + !j);
                m := !m lxor b
              done
            end;
          for j = 0 to k_mbits - 1 do
            Array.unsafe_set ms (mb + j) 0
          done
        done
    | Kernel.Generic ->
        Array.fill accs 0 (wordc * ctz_slots) 0;
        (* Per-lane accumulators, addressed by hash slot: one metadata
           read per edge, then only the lanes whose wire is 1 pay an add
           (firing is sparse on the paper's circuits, so iterating set
           bits beats a dense lane loop). *)
        (if check then begin
           (* Checked mode stays on the straightforward per-edge loop so
              the running per-lane sums follow pool order exactly. *)
           for g = Array.unsafe_get t.seg_grp s to Array.unsafe_get t.seg_grp (s + 1) - 1 do
             let wt = Array.unsafe_get t.grp_weight g in
             for i = Array.unsafe_get t.grp_off g to Array.unsafe_get t.grp_off (g + 1) - 1 do
               let wb = wget pw i * wordc in
               for wd = 0 to wordc - 1 do
                 let m = ref (Array.unsafe_get vals (wb + wd)) in
                 if !m <> 0 then begin
                   let ab = wd * ctz_slots in
                   while !m <> 0 do
                     let b = !m land (- !m) in
                     let sl = ab + ((b * ctz_mul) lsr 56) in
                     Array.unsafe_set accs sl
                       (Checked.add (Array.unsafe_get accs sl) wt);
                     m := !m lxor b
                   done
                 end
               done
             done
           done
         end
         else begin
           (* Edges come grouped by weight.  Large groups (the paper's
              wide shared layers have fan-in in the hundreds but only a
              few distinct weights) use a carry-save ladder: per edge,
              one xor/and ripple folds the wire word into bit-sliced
              per-lane counters for all 62 lanes at once; the counters
              are unsliced once per group via [acc += (wt lsl j)] per
              set counter bit.  Wrap-around arithmetic agrees
              bit-for-bit with per-edge adds (sums are computed mod 2^63
              either way).  Small groups keep the direct per-set-bit
              adds. *)
           let g0 = Array.unsafe_get t.seg_grp s in
           let g1 = Array.unsafe_get t.seg_grp (s + 1) in
           for g = g0 to g1 - 1 do
             let e0 = Array.unsafe_get t.grp_off g in
             let e1 = Array.unsafe_get t.grp_off (g + 1) in
             let wt = Array.unsafe_get t.grp_weight g in
             if e1 - e0 >= csa_cutoff then begin
               Array.fill maxjs 0 wordc 0;
               for i = e0 to e1 - 1 do
                 let wb = wget pw i * wordc in
                 for wd = 0 to wordc - 1 do
                   let x = ref (Array.unsafe_get vals (wb + wd)) in
                   if !x <> 0 then begin
                     let cb = wd * csa_bits in
                     let j = ref 0 in
                     while !x <> 0 do
                       let c = Array.unsafe_get cnt (cb + !j) in
                       Array.unsafe_set cnt (cb + !j) (c lxor !x);
                       x := c land !x;
                       incr j
                     done;
                     if !j > Array.unsafe_get maxjs wd then
                       Array.unsafe_set maxjs wd !j
                   end
                 done
               done;
               for wd = 0 to wordc - 1 do
                 let cb = wd * csa_bits and ab = wd * ctz_slots in
                 for j = 0 to Array.unsafe_get maxjs wd - 1 do
                   let m = ref (Array.unsafe_get cnt (cb + j)) in
                   Array.unsafe_set cnt (cb + j) 0;
                   let wj = wt lsl j in
                   while !m <> 0 do
                     let b = !m land (- !m) in
                     let sl = ab + ((b * ctz_mul) lsr 56) in
                     Array.unsafe_set accs sl (Array.unsafe_get accs sl + wj);
                     m := !m lxor b
                   done
                 done
               done
             end
             else begin
               for i = e0 to e1 - 1 do
                 let wb = wget pw i * wordc in
                 for wd = 0 to wordc - 1 do
                   let m = ref (Array.unsafe_get vals (wb + wd)) in
                   if !m <> 0 then begin
                     let ab = wd * ctz_slots in
                     while !m <> 0 do
                       let b = !m land (- !m) in
                       let sl = ab + ((b * ctz_mul) lsr 56) in
                       Array.unsafe_set accs sl (Array.unsafe_get accs sl + wt);
                       m := !m lxor b
                     done
                   end
                 done
               done
             end
           done
         end);
        for wd = 0 to wordc - 1 do
          let base = wd * word_lanes in
          let w_lanes = min word_lanes (lanes - base) in
          let ab = wd * ctz_slots in
          if k = 1 then begin
            let t0 = bget th glo in
            let out = ref 0 in
            for l = 0 to w_lanes - 1 do
              if Array.unsafe_get accs (ab + Array.unsafe_get ls l) >= t0 then
                out := !out lor (1 lsl l)
            done;
            let out = !out in
            if out <> 0 then begin
              Array.unsafe_set vals (wget gw glo * wordc + wd) out;
              let m = ref out in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + 1);
                m := !m lxor b
              done
            end
          end
          else begin
            (* Lanes clearing even the lowest threshold fire a nonempty
               prefix; often there are none, and the word is skipped. *)
            let t0 = bget th glo in
            let live = ref 0 in
            for l = 0 to w_lanes - 1 do
              if Array.unsafe_get accs (ab + Array.unsafe_get ls l) >= t0 then
                live := !live lor (1 lsl l)
            done;
            if !live <> 0 then begin
              (* Bucket each live lane by its firing-prefix length (one
                 binary search per lane), then build every gate word in
                 a single suffix-OR sweep: gate j fires the union of
                 lanes whose prefix extends past it.  O(k + lanes)
                 instead of the O(lanes * k) per-lane prefix marking —
                 the paper's wide shared layers put thousands of gates
                 in one segment, so this is the difference that lets
                 multi-gate segments keep up with the kernels. *)
              let bucket = sc.sc_bucket in
              let maxcut = ref 0 in
              let m = ref !live in
              while !m <> 0 do
                let b = !m land (- !m) in
                let l = Array.unsafe_get ctz ((b * ctz_mul) lsr 56) in
                let s0 = Array.unsafe_get accs (ab + Array.unsafe_get ls l) in
                (* th.(glo) <= s0 already, so search in (glo, ghi]. *)
                let a = ref (glo + 1) and hi2 = ref ghi in
                while !a < !hi2 do
                  let mid = (!a + !hi2) lsr 1 in
                  if bget th mid <= s0 then a := mid + 1 else hi2 := mid
                done;
                let c = !a - glo in
                Array.unsafe_set bucket c (Array.unsafe_get bucket c lor b);
                if c > !maxcut then maxcut := c;
                Array.unsafe_set fires (base + l)
                  (Array.unsafe_get fires (base + l) + c);
                m := !m lxor b
              done;
              (* Sweep from the longest prefix down; [acc] is nonempty
                 throughout (bucket.(maxcut) is nonzero by construction)
                 and each bucket is re-zeroed as it is consumed, keeping
                 [sc_bucket] clean for the next segment. *)
              let acc = ref 0 in
              for j = !maxcut - 1 downto 0 do
                acc := !acc lor Array.unsafe_get bucket (j + 1);
                Array.unsafe_set bucket (j + 1) 0;
                Array.unsafe_set vals (wget gw (glo + j) * wordc + wd) !acc
              done
            end
          end
        done
  done

(* Per-level wall time plus batch counters, accumulated across calls —
   [run_batch ?profile] fills one in when asked ([tcmm verify/serve
   --profile-eval]). *)
type eval_profile = {
  mutable ep_batches : int;
  mutable ep_lanes : int;
  ep_level_ns : float array;
}

let make_profile t =
  { ep_batches = 0; ep_lanes = 0; ep_level_ns = Array.make (max t.levels 1) 0. }

(* One buffer per route, each reused while big enough: lane words for
   the kernels, a byte per wire for the one-lane walk. *)
type workspace = { mutable w_vals : int array; mutable w_bytes : Bytes.t }

let workspace () = { w_vals = [||]; w_bytes = Bytes.empty }

(* Two or more lanes: one traversal of the circuit metadata for the
   whole batch, levels outer, lane words handled inside each segment.
   Under a pool the chunks split segments (as for single-vector runs);
   per-chunk scratch and firing buffers are preallocated once, so every
   level runs allocation-free. *)
let run_words ~check ~timed t ws inputs pool =
  let lanes = Array.length inputs in
  let wordc = (lanes + word_lanes - 1) / word_lanes in
  let nv = t.num_wires * wordc in
  let vals =
    match ws with
    | Some w when Array.length w.w_vals >= nv ->
        Array.fill w.w_vals 0 nv 0;
        w.w_vals
    | Some w ->
        let v = Array.make nv 0 in
        w.w_vals <- v;
        v
    | None -> Array.make nv 0
  in
  for v = 0 to lanes - 1 do
    let wd = v / word_lanes and bit = 1 lsl (v mod word_lanes) in
    let iv = inputs.(v) in
    for i = 0 to t.num_inputs - 1 do
      if iv.(i) then
        vals.(i * wordc + wd) <- vals.(i * wordc + wd) lor bit
    done
  done;
  let lf = Array.init lanes (fun _ -> Array.make t.levels 0) in
  let record l fires =
    for ln = 0 to lanes - 1 do
      let f = Array.unsafe_get fires ln in
      if f <> 0 then lf.(ln).(l) <- lf.(ln).(l) + f
    done
  in
  (match pool with
  | Some pool when Pool.size pool > 1 ->
      let maxchunks = 4 * Pool.size pool in
      let scs = Array.init maxchunks (fun _ -> make_scratch t ~wordc) in
      let partial = Array.init maxchunks (fun _ -> Array.make lanes 0) in
      for l = 0 to t.levels - 1 do
        timed l (fun () ->
            let lo = t.level_segs.(l) and hi = t.level_segs.(l + 1) in
            let nseg = hi - lo in
            if nseg = 1 then begin
              let f = partial.(0) in
              Array.fill f 0 lanes 0;
              eval_batch_segs ~check t scs.(0) vals ~wordc ~lanes ~fires:f lo hi;
              record l f
            end
            else if nseg > 0 then begin
              let nchunks = min nseg maxchunks in
              Pool.run pool ~chunks:nchunks (fun i ->
                  let a, b = chunk_bounds lo nseg nchunks i in
                  let f = partial.(i) in
                  Array.fill f 0 lanes 0;
                  eval_batch_segs ~check t scs.(i) vals ~wordc ~lanes ~fires:f
                    a b);
              for i = 0 to nchunks - 1 do
                record l partial.(i)
              done
            end)
      done
  | _ ->
      let sc = make_scratch t ~wordc in
      let fires = Array.make lanes 0 in
      for l = 0 to t.levels - 1 do
        timed l (fun () ->
            let lo = t.level_segs.(l) and hi = t.level_segs.(l + 1) in
            if hi > lo then begin
              Array.fill fires 0 lanes 0;
              eval_batch_segs ~check t sc vals ~wordc ~lanes ~fires lo hi;
              record l fires
            end)
      done);
  (Words { wordc; vals }, lf)

(* One lane: a lone request would leave 61 of a word's 62 lanes empty,
   so it takes the scalar walk [run] uses instead of the kernels. *)
let run_lane ~check ~timed t ws input pool =
  let nw = t.num_wires in
  let values =
    match ws with
    | Some w when Bytes.length w.w_bytes >= nw -> w.w_bytes
    | Some w ->
        let b = Bytes.create nw in
        w.w_bytes <- b;
        b
    | None -> Bytes.create nw
  in
  load_inputs t values input;
  (Wire_bytes values, [| walk_levels ~check ~timed t values pool |])

let lane_value values ~lane w =
  match values with
  | Words { wordc; vals } ->
      (vals.((w * wordc) + (lane / word_lanes)) lsr (lane mod word_lanes))
      land 1
      = 1
  | Wire_bytes b -> Bytes.get b w <> '\000'

let run_batch ?(check = false) ?pool ?(domains = 1) ?profile ?ws t inputs =
  let lanes = Array.length inputs in
  if lanes = 0 then invalid_arg "Packed.run_batch: empty batch";
  Array.iter (check_width "run_batch" t) inputs;
  let timed =
    match profile with
    | None -> untimed
    | Some p ->
        fun l f ->
          let t0 = Tcmm_util.Clock.now () in
          f ();
          p.ep_level_ns.(l) <-
            p.ep_level_ns.(l) +. ((Tcmm_util.Clock.now () -. t0) *. 1e9)
  in
  let b_values, lf =
    with_domains ?pool ~domains (fun pool ->
        if lanes = 1 then run_lane ~check ~timed t ws inputs.(0) pool
        else run_words ~check ~timed t ws inputs pool)
  in
  (match profile with
  | None -> ()
  | Some p ->
      p.ep_batches <- p.ep_batches + 1;
      p.ep_lanes <- p.ep_lanes + lanes);
  {
    b_lanes = lanes;
    b_values;
    b_outputs =
      Array.init lanes (fun lane ->
          Array.map (lane_value b_values ~lane) t.outputs);
    b_firings = Array.map (Array.fold_left ( + ) 0) lf;
    b_level_firings = lf;
  }

let lanes r = r.b_lanes

let check_lane r lane =
  if lane < 0 || lane >= r.b_lanes then
    invalid_arg (Printf.sprintf "Packed: lane %d out of range" lane)

let batch_outputs r ~lane =
  check_lane r lane;
  r.b_outputs.(lane)

let batch_firings r ~lane =
  check_lane r lane;
  r.b_firings.(lane)

let batch_level_firings r ~lane =
  check_lane r lane;
  r.b_level_firings.(lane)

let batch_value r ~lane w =
  check_lane r lane;
  lane_value r.b_values ~lane w

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

(* The store subsystem persists a packed circuit as flat sections and
   hands them back on load.  This module stays I/O-free: [save] is a
   field projection (plus the kernel table) and [load] is
   re-validation — the store layer owns files, mmap, and checksums. *)

type sections = {
  sec_num_inputs : int;
  sec_num_gates : int;
  sec_levels : int;
  sec_pool_wires : i32vec;
  sec_g_threshold : ivec;
  sec_g_wire : i32vec;
  sec_seg_off : int array;
  sec_seg_fan : int array;
  sec_seg_gates : int array;
  sec_seg_grp : int array;
  sec_grp_off : int array;
  sec_grp_weight : int array;
  sec_level_segs : int array;
  sec_outputs : int array;
  sec_kern_table : int array;
  sec_kern_index : int array;
}

(* The distinct kernel specs in first-use order, encoded, plus each
   segment's position among them.  Segments stamped from one template
   share a spec, so the table stays tiny: 144 distinct specs cover the
   128,229 segments of matmul N=16. *)
let kern_table kern =
  let pos = Hashtbl.create 64 in
  let distinct = ref [] in
  let index =
    Array.map
      (fun spec ->
        match Hashtbl.find_opt pos spec with
        | Some i -> i
        | None ->
            let i = Hashtbl.length pos in
            Hashtbl.add pos spec i;
            distinct := spec :: !distinct;
            i)
      kern
  in
  (Kernel.encode_specs (Array.of_list (List.rev !distinct)), index)

let save t =
  let kern_table, kern_index = kern_table t.kern in
  {
    sec_num_inputs = t.num_inputs;
    sec_num_gates = t.num_gates;
    sec_levels = t.levels;
    sec_pool_wires = t.pool_wires;
    sec_g_threshold = t.g_threshold;
    sec_g_wire = t.g_wire;
    sec_seg_off = t.seg_off;
    sec_seg_fan = t.seg_fan;
    sec_seg_gates = t.seg_gates;
    sec_seg_grp = t.seg_grp;
    sec_grp_off = t.grp_off;
    sec_grp_weight = t.grp_weight;
    sec_level_segs = t.level_segs;
    sec_outputs = t.outputs;
    sec_kern_table = kern_table;
    sec_kern_index = kern_index;
  }

(* Recompile segment [seg]'s kernel from the CSR pools — the fallback
   when an artifact predates the current {!Kernel.format_rev}.  Edge
   weights come from the groups, which tile the segment's edges in pool
   order. *)
let recompile_kern s seg =
  let e = s.sec_seg_off.(seg) in
  let p = s.sec_seg_gates.(seg) in
  let count = s.sec_seg_gates.(seg + 1) - p in
  let weights = Array.make s.sec_seg_fan.(seg) 0 in
  for g = s.sec_seg_grp.(seg) to s.sec_seg_grp.(seg + 1) - 1 do
    let e0 = s.sec_grp_off.(g) in
    Array.fill weights (e0 - e) (s.sec_grp_off.(g + 1) - e0) s.sec_grp_weight.(g)
  done;
  let thresholds = Array.init count (fun i -> bget s.sec_g_threshold (p + i)) in
  Kernel.compile ~fan:s.sec_seg_fan.(seg) ~weights ~thresholds

exception Invalid of string

let load ?(kernels = true) ?(recompile = false) s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  let check_monotone name a lo hi =
    let n = Array.length a in
    if n = 0 then fail "%s is empty" name;
    if a.(0) <> lo then fail "%s does not start at %d" name lo;
    if a.(n - 1) <> hi then fail "%s does not end at %d" name hi;
    for i = 1 to n - 1 do
      if a.(i) < a.(i - 1) then fail "%s is not monotone at %d" name i
    done
  in
  match
    let num_inputs = s.sec_num_inputs in
    let ng = s.sec_num_gates in
    let levels = s.sec_levels in
    if num_inputs < 0 || ng < 0 || levels < 0 then fail "negative counts";
    if ng > 0 && levels = 0 then fail "gates without levels";
    if num_inputs > max_wires - ng then
      fail "%d inputs and %d gates do not fit 32-bit wire ids" num_inputs ng;
    let num_wires = num_inputs + ng in
    let nsegs = Array.length s.sec_seg_off in
    if Array.length s.sec_seg_fan <> nsegs then fail "seg_fan length mismatch";
    if Array.length s.sec_seg_gates <> nsegs + 1 then
      fail "seg_gates length mismatch";
    if Array.length s.sec_seg_grp <> nsegs + 1 then fail "seg_grp length mismatch";
    if Array.length s.sec_level_segs <> levels + 1 then
      fail "level_segs length mismatch";
    let ngroups = Array.length s.sec_grp_weight in
    if Array.length s.sec_grp_off <> ngroups + 1 then
      fail "grp_off length mismatch";
    check_monotone "level_segs" s.sec_level_segs 0 nsegs;
    check_monotone "seg_gates" s.sec_seg_gates 0 ng;
    check_monotone "seg_grp" s.sec_seg_grp 0 ngroups;
    let nedges = s.sec_grp_off.(ngroups) in
    check_monotone "grp_off" s.sec_grp_off 0 nedges;
    let dim = Bigarray.Array1.dim in
    if dim s.sec_pool_wires < max nedges 1 then fail "pool_wires too short";
    if dim s.sec_g_threshold < max ng 1 then fail "g_threshold too short";
    if dim s.sec_g_wire < max ng 1 then fail "g_wire too short";
    (* Each segment's edge range must be exactly its group range — the
       evaluators walk both views of the same pool slots. *)
    for seg = 0 to nsegs - 1 do
      if s.sec_seg_fan.(seg) < 0 then fail "negative fan at segment %d" seg;
      if s.sec_seg_off.(seg) <> s.sec_grp_off.(s.sec_seg_grp.(seg)) then
        fail "segment %d edge/group range mismatch" seg;
      if
        s.sec_seg_off.(seg) + s.sec_seg_fan.(seg)
        <> s.sec_grp_off.(s.sec_seg_grp.(seg + 1))
      then fail "segment %d fan/group extent mismatch" seg
    done;
    (* Bounds that make the evaluators' unsafe accesses safe. *)
    for e = 0 to nedges - 1 do
      let w = wget s.sec_pool_wires e in
      if w < 0 || w >= num_wires then fail "edge %d reads out-of-range wire" e
    done;
    for g = 0 to ng - 1 do
      let w = wget s.sec_g_wire g in
      if w < num_inputs || w >= num_wires then
        fail "gate %d writes out-of-range wire" g
    done;
    Array.iteri
      (fun i w ->
        if w < 0 || w >= num_wires then fail "output %d out of range" i)
      s.sec_outputs;
    (* Thresholds ascend within each segment (binary-searched firing
       prefix); gate ranges per level must follow segment order. *)
    for seg = 0 to nsegs - 1 do
      for g = s.sec_seg_gates.(seg) + 1 to s.sec_seg_gates.(seg + 1) - 1 do
        if bget s.sec_g_threshold g < bget s.sec_g_threshold (g - 1) then
          fail "thresholds not ascending in segment %d" seg
      done
    done;
    let max_seg_gates = ref 0 in
    for seg = 0 to nsegs - 1 do
      let k = s.sec_seg_gates.(seg + 1) - s.sec_seg_gates.(seg) in
      if k > !max_seg_gates then max_seg_gates := k
    done;
    let kern =
      if not kernels then [||]
      else if recompile && nsegs > 0 then Array.init nsegs (recompile_kern s)
      else if Array.length s.sec_kern_index > 0 then begin
        (* Each distinct spec is decoded once and shared by every
           segment naming it.  The table holds exactly the specs the
           index names: [decode_specs] refuses a short or long one (a
           spec takes at least one word, which bounds every entry). *)
        let index = s.sec_kern_index in
        if Array.length index <> nsegs then fail "kern_index length mismatch";
        Array.iteri
          (fun seg i ->
            if i < 0 || i >= Array.length s.sec_kern_table then
              fail "segment %d names kern table entry %d, past the table" seg i)
          index;
        let count = Array.fold_left max (-1) index + 1 in
        match Kernel.decode_specs s.sec_kern_table ~count with
        | Some table -> Array.map (Array.get table) index
        | None -> fail "kern table does not hold the %d specs its index names" count
      end
      else
        (* An empty section means the circuit was packed without kernel
           dispatch (of_circuit, or kernels off) — reproduce that
           faithfully rather than inventing kernels the original never
           had. *)
        [||]
    in
    let k_gates = ref 0 and k_segs = ref 0 in
    Array.iteri
      (fun seg spec ->
        match spec with
        | Kernel.Generic -> ()
        | _ ->
            k_gates := !k_gates + s.sec_seg_gates.(seg + 1) - s.sec_seg_gates.(seg);
            incr k_segs)
      kern;
    {
      circuit =
        lazy
          (failwith
             "Packed.circuit: the explicit circuit view is not persisted; \
              rebuild from the spec to materialize it");
      num_inputs;
      num_wires;
      num_gates = ng;
      levels;
      pool_wires = s.sec_pool_wires;
      seg_off = s.sec_seg_off;
      seg_fan = s.sec_seg_fan;
      seg_gates = s.sec_seg_gates;
      seg_grp = s.sec_seg_grp;
      grp_off = s.sec_grp_off;
      grp_weight = s.sec_grp_weight;
      level_segs = s.sec_level_segs;
      g_threshold = s.sec_g_threshold;
      g_wire = s.sec_g_wire;
      outputs = s.sec_outputs;
      max_seg_gates = !max_seg_gates;
      kern;
      k_gates = !k_gates;
      k_segs = !k_segs;
      fanout = None;
    }
  with
  | t -> Ok t
  | exception Invalid m -> Error m

let structural_equal a b =
  (* Element by element through the accessors, which read an int's
     63-bit value: Bigarray equality would also compare the stored bit
     63 that no evaluator sees. *)
  let ivec_eq va vb n =
    let ok = ref true in
    for i = 0 to n - 1 do
      if bget va i <> bget vb i then ok := false
    done;
    !ok
  in
  let i32vec_eq va vb n =
    let ok = ref true in
    for i = 0 to n - 1 do
      if wget va i <> wget vb i then ok := false
    done;
    !ok
  in
  let edges_a = a.grp_off.(Array.length a.grp_off - 1) in
  let edges_b = b.grp_off.(Array.length b.grp_off - 1) in
  a.num_inputs = b.num_inputs && a.num_wires = b.num_wires
  && a.num_gates = b.num_gates && a.levels = b.levels && edges_a = edges_b
  && a.max_seg_gates = b.max_seg_gates
  && a.k_gates = b.k_gates && a.k_segs = b.k_segs
  && a.seg_off = b.seg_off && a.seg_fan = b.seg_fan
  && a.seg_gates = b.seg_gates && a.seg_grp = b.seg_grp
  && a.grp_off = b.grp_off && a.grp_weight = b.grp_weight
  && a.level_segs = b.level_segs && a.outputs = b.outputs
  && a.kern = b.kern
  && i32vec_eq a.pool_wires b.pool_wires edges_a
  && ivec_eq a.g_threshold b.g_threshold a.num_gates
  && i32vec_eq a.g_wire b.g_wire a.num_gates
