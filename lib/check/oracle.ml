module T = Tcmm
module F = Tcmm_fastmm
module Th = Tcmm_threshold
module G = Tcmm_graph
module Cn = Tcmm_convnet

let trace_builds : (string, T.Trace_circuit.built) Hashtbl.t = Hashtbl.create 16
let matmul_builds : (string, T.Matmul_circuit.built) Hashtbl.t = Hashtbl.create 16

(* Packed forms of [trace_builds], for the incremental leg: sessions
   memoize their transposed fanout index on the packed value, so
   re-packing per case would defeat that sharing. *)
let trace_packs : (string, Th.Packed.t) Hashtbl.t = Hashtbl.create 16

(* Direct-mode builds, kept separately: their packed form dispatches the
   template-specialized kernels, which is exactly the leg the kernel
   differential wants to pit against the materialized (all-generic)
   builds above. *)
let direct_matmul_builds : (string, T.Matmul_circuit.built) Hashtbl.t =
  Hashtbl.create 16

(* Packed circuits recovered through a save/load round trip of the
   artifact store, keyed like the builds above.  Loading goes through
   the full validation path (checksums, bounds, kernel dispatch tags),
   so a divergence here is shrunk and saved to the corpus exactly like
   an engine bug. *)
let store_loaded : (string, Th.Packed.t) Hashtbl.t = Hashtbl.create 16

let clear_cache () =
  Hashtbl.reset trace_builds;
  Hashtbl.reset matmul_builds;
  Hashtbl.reset direct_matmul_builds;
  Hashtbl.reset store_loaded;
  Hashtbl.reset trace_packs

(* Keep the memo bounded: a long fuzz run touches only a handful of
   configurations, but a pathological generator should not accumulate
   circuits without end. *)
let bound tbl =
  if Hashtbl.length tbl > 24 then Hashtbl.reset tbl

let trace_built (c : Case.t) =
  if c.kind <> Case.Trace then invalid_arg "Oracle.trace_built: not a trace case";
  let key = Case.build_key c in
  match Hashtbl.find_opt trace_builds key with
  | Some b -> b
  | None ->
      bound trace_builds;
      let b =
        T.Trace_circuit.build ~kronpow:c.kronpow
          ~algo:(Case.algo_of_name c.algo)
          ~schedule:(Case.resolve_schedule c) ~signed_inputs:c.signed
          ~entry_bits:c.entry_bits ~tau:c.tau ~n:c.n ()
      in
      Hashtbl.add trace_builds key b;
      b

let trace_packed (c : Case.t) =
  let key = Case.build_key c in
  match Hashtbl.find_opt trace_packs key with
  | Some p -> p
  | None ->
      bound trace_packs;
      let p = T.Trace_circuit.pack (trace_built c) in
      Hashtbl.add trace_packs key p;
      p

let matmul_built (c : Case.t) =
  (* [Conv] cases run through the same matmul circuit (the im2col
     operands are embedded into [n x n]). *)
  if c.kind = Case.Trace then invalid_arg "Oracle.matmul_built: not a matmul case";
  let key = Case.build_key c in
  match Hashtbl.find_opt matmul_builds key with
  | Some b -> b
  | None ->
      bound matmul_builds;
      let b =
        T.Matmul_circuit.build ~kronpow:c.kronpow
          ~algo:(Case.algo_of_name c.algo)
          ~schedule:(Case.resolve_schedule c) ~signed_inputs:c.signed
          ~entry_bits:c.entry_bits ~n:c.n ()
      in
      Hashtbl.add matmul_builds key b;
      b

let direct_matmul_built (c : Case.t) =
  let key = Case.build_key c in
  match Hashtbl.find_opt direct_matmul_builds key with
  | Some b -> b
  | None ->
      bound direct_matmul_builds;
      let b =
        T.Matmul_circuit.build ~mode:Th.Builder.Direct ~kronpow:c.kronpow
          ~algo:(Case.algo_of_name c.algo)
          ~schedule:(Case.resolve_schedule c) ~signed_inputs:c.signed
          ~entry_bits:c.entry_bits ~n:c.n ()
      in
      Hashtbl.add direct_matmul_builds key b;
      b

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* One scratch artifact per round trip: written, read back, removed.
   [Artifact.read] keeps the mapping alive through the returned packed
   value even after the file is unlinked. *)
let store_round_trip ~key ~io packed =
  let path = Filename.temp_file "tcmm_oracle" ".tcmm" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let meta =
    {
      Tcmm_store.Artifact.m_key = key;
      m_templates = true;
      m_kernels = true;
      m_build_seconds = 0.;
      m_stats = Th.Stats.zero;
      m_io = io;
    }
  in
  match Tcmm_store.Artifact.write ~path meta packed with
  | Error msg -> Error ("artifact write failed: " ^ msg)
  | Ok _ -> (
      match Tcmm_store.Artifact.read ~key ~path () with
      | Error msg -> Error ("artifact read failed: " ^ msg)
      | Ok a ->
          let loaded = a.Tcmm_store.Artifact.a_packed in
          if not (Th.Packed.structural_equal packed loaded) then
            Error "loaded artifact is not structurally equal to the fresh build"
          else Ok loaded)

let store_loaded_packed (c : Case.t) ~io packed =
  let key = Case.build_key c in
  match Hashtbl.find_opt store_loaded key with
  | Some p -> Ok p
  | None -> (
      bound store_loaded;
      match store_round_trip ~key ~io packed with
      | Ok p ->
          Hashtbl.add store_loaded key p;
          Ok p
      | Error _ as e -> e)

(* Lane 0 evaluated alone through a reused workspace: the one-lane
   [run_batch] route a lone served request takes. *)
let lone_ws = Th.Packed.workspace ()

let run_lone packed input = Th.Packed.run_batch ~ws:lone_ws packed [| input |]

let check_trace (c : Case.t) =
  let built = trace_built c in
  let a = Case.matrix c ~index:0 in
  let expected_trace = T.Trace_circuit.reference a in
  let expected = expected_trace >= c.tau in
  let reference = T.Trace_circuit.run ~engine:Th.Simulator.Reference built a in
  let packed = T.Trace_circuit.run ~engine:Th.Simulator.Packed built a in
  let packed2 = T.Trace_circuit.run ~engine:Th.Simulator.Packed ~domains:2 built a in
  let value = T.Trace_circuit.trace_value built a in
  if value <> expected_trace then
    fail "trace_value %d <> integer reference %d" value expected_trace
  else if reference <> expected then
    fail "Simulator says %b, integer reference says %b (trace %d, tau %d)"
      reference expected expected_trace c.tau
  else if packed <> reference then
    fail "Packed (sequential) says %b, Simulator says %b" packed reference
  else if packed2 <> reference then
    fail "Packed (2 domains) says %b, Simulator says %b" packed2 reference
  else
    (* Batched lanes: the case's matrix plus two further draws. *)
    let lanes = Array.init 3 (fun i -> Case.matrix c ~index:i) in
    let batch = T.Trace_circuit.run_batch built lanes in
    (* Store round-trip leg: the packed circuit through a save / mmap
       load must answer the same lanes identically. *)
    let io =
      Tcmm_store.Artifact.Trace_io
        {
          layout = built.T.Trace_circuit.layout;
          output = built.T.Trace_circuit.output;
          tau = built.T.Trace_circuit.tau;
        }
    in
    match store_loaded_packed c ~io (T.Trace_circuit.pack built) with
    | Error msg -> fail "store round trip: %s" msg
    | Ok loaded ->
        let inputs = Array.map (T.Trace_circuit.encode_input built) lanes in
        let br = Th.Packed.run_batch loaded inputs in
        let out = built.T.Trace_circuit.output in
        let lone = run_lone loaded inputs.(0) in
        let rec lanes_ok i =
          if i >= Array.length lanes then Ok ()
          else
            let want = T.Trace_circuit.reference lanes.(i) >= c.tau in
            if batch.(i) <> want then
              fail "batched lane %d says %b, integer reference says %b" i
                batch.(i) want
            else if Th.Packed.batch_value br ~lane:i out <> batch.(i) then
              fail "store-loaded lane %d disagrees with the fresh build" i
            else lanes_ok (i + 1)
        in
        if Th.Packed.batch_value lone ~lane:0 out <> expected then
          fail "store-loaded lone lane says %b, integer reference says %b"
            (not expected) expected
        else lanes_ok 0

let check_matmul (c : Case.t) =
  let built = matmul_built c in
  let a = Case.matrix c ~index:0 and b = Case.matrix c ~index:1 in
  let expected = F.Matrix.mul a b in
  let reference = T.Matmul_circuit.run ~engine:Th.Simulator.Reference built ~a ~b in
  let packed = T.Matmul_circuit.run ~engine:Th.Simulator.Packed built ~a ~b in
  let packed2 =
    T.Matmul_circuit.run ~engine:Th.Simulator.Packed ~domains:2 built ~a ~b
  in
  if not (F.Matrix.equal reference expected) then
    fail "Simulator product disagrees with integer reference on %a" Case.pp c
  else if not (F.Matrix.equal packed reference) then
    fail "Packed (sequential) product disagrees with Simulator"
  else if not (F.Matrix.equal packed2 reference) then
    fail "Packed (2 domains) product disagrees with Simulator"
  else
    let pairs =
      Array.init 3 (fun i ->
          ( Case.matrix c ~index:(2 * i),
            Case.matrix c ~index:((2 * i) + 1) ))
    in
    let batch = T.Matmul_circuit.run_batch built pairs in
    (* Kernel leg: the same pairs through a Direct-mode build, whose
       packed form dispatches the template-specialized kernels. *)
    let direct = direct_matmul_built c in
    let kernel_batch = T.Matmul_circuit.run_batch direct pairs in
    (* Store round-trip leg: the kernel-dispatching packed form through
       a save / mmap load (including kernel spec decode) must match. *)
    let io =
      Tcmm_store.Artifact.Matmul_io
        {
          layout_a = direct.T.Matmul_circuit.layout_a;
          layout_b = direct.T.Matmul_circuit.layout_b;
          c_grid = direct.T.Matmul_circuit.c_grid;
        }
    in
    match store_loaded_packed c ~io (T.Matmul_circuit.pack direct) with
    | Error msg -> fail "store round trip: %s" msg
    | Ok loaded ->
        let inputs =
          Array.map
            (fun (la, lb) -> T.Matmul_circuit.encode_inputs direct ~a:la ~b:lb)
            pairs
        in
        let br = Th.Packed.run_batch loaded inputs in
        let loaded_batch =
          Array.init (Array.length pairs) (fun lane ->
              T.Matmul_circuit.decode direct (Th.Packed.batch_value br ~lane))
        in
        let lone =
          T.Matmul_circuit.decode direct
            (Th.Packed.batch_value (run_lone loaded inputs.(0)) ~lane:0)
        in
        let rec lanes_ok i =
          if i >= Array.length pairs then Ok ()
          else
            let la, lb = pairs.(i) in
            if not (F.Matrix.equal batch.(i) (F.Matrix.mul la lb)) then
              fail "batched lane %d disagrees with integer reference" i
            else if not (F.Matrix.equal kernel_batch.(i) batch.(i)) then
              fail "kernel batched lane %d disagrees with generic batch" i
            else if not (F.Matrix.equal loaded_batch.(i) batch.(i)) then
              fail "store-loaded lane %d disagrees with the fresh build" i
            else lanes_ok (i + 1)
        in
        if not (F.Matrix.equal lone expected) then
          fail "store-loaded lone lane disagrees with integer reference"
        else lanes_ok 0

(* The conv leg: the case's im2col workload through the n x n matmul
   circuit — direct convolution, the integer im2col product, and the
   circuit-evaluated product must all agree score-for-score. *)
let check_conv (c : Case.t) =
  let cspec, img, kernels = Case.conv_job c in
  let expected = Cn.Conv.direct cspec img kernels in
  if Cn.Conv.via_matmul cspec img kernels <> expected then
    fail "via_matmul disagrees with direct convolution on %a" Case.pp c
  else
    let built = matmul_built c in
    let patches = Cn.Im2col.patch_matrix cspec img in
    let kmat = Cn.Im2col.kernel_matrix kernels in
    let p = F.Matrix.rows patches and k = F.Matrix.cols kmat in
    let a = Cn.Im2col.embed patches ~n:c.n
    and b = Cn.Im2col.embed kmat ~n:c.n in
    let m = T.Matmul_circuit.run ~engine:Th.Simulator.Packed built ~a ~b in
    let product = F.Matrix.init ~rows:p ~cols:k (fun i j -> F.Matrix.get m i j) in
    if Cn.Im2col.scores_of_product cspec img product <> expected then
      fail "circuit conv scores disagree with direct convolution on %a" Case.pp
        c
    else Ok ()

(* The incremental leg: replay the case's edge-flip batches through one
   [Packed.session] and demand that every intermediate state — the base
   evaluation and each [update] — is bit-identical in every observable
   field to a from-scratch [Packed.run] on the same inputs, and that the
   output bit agrees with plain integer arithmetic on the graph. *)
let check_incremental (c : Case.t) =
  if c.kind <> Case.Trace || c.entry_bits <> 1 || c.signed then
    fail "incremental case must be an unsigned 1-bit trace case"
  else
    let built = trace_built c in
    let packed = trace_packed c in
    let layout = built.T.Trace_circuit.layout in
    let g = ref (Case.graph c) in
    let session =
      Th.Packed.session packed
        (T.Trace_circuit.encode_input built (G.Graph.adjacency !g))
    in
    let compare_state ~where (res : Th.Simulator.result) =
      let adj = G.Graph.adjacency !g in
      let inputs = T.Trace_circuit.encode_input built adj in
      let full = Th.Packed.run packed inputs in
      let expected = T.Trace_circuit.reference adj >= c.tau in
      if Th.Packed.session_inputs session <> inputs then
        fail "%s: session input bits diverge from a fresh encode" where
      else if not (Bytes.equal res.Th.Simulator.values full.Th.Simulator.values)
      then fail "%s: wire values diverge from from-scratch evaluation" where
      else if res.Th.Simulator.outputs <> full.Th.Simulator.outputs then
        fail "%s: outputs diverge from from-scratch evaluation" where
      else if res.Th.Simulator.firings <> full.Th.Simulator.firings then
        fail "%s: firings %d, from-scratch %d" where res.Th.Simulator.firings
          full.Th.Simulator.firings
      else if res.Th.Simulator.level_firings <> full.Th.Simulator.level_firings
      then fail "%s: level_firings diverge from from-scratch evaluation" where
      else
        let fires =
          Bytes.get res.Th.Simulator.values built.T.Trace_circuit.output
          <> '\000'
        in
        if fires <> expected then
          fail "%s: output says %b, integer reference says %b" where fires
            expected
        else Ok ()
    in
    let rec batches idx = function
      | [] -> Ok ()
      | batch :: rest -> (
          let g', delta = G.Stream.delta ~layout !g batch in
          g := g';
          let res = Th.Packed.update session delta in
          match compare_state ~where:(Printf.sprintf "after batch %d" idx) res with
          | Error _ as e -> e
          | Ok () -> batches (idx + 1) rest)
    in
    match compare_state ~where:"base" (Th.Packed.session_result session) with
    | Error _ as e -> e
    | Ok () -> batches 0 c.flips

let check (c : Case.t) =
  if c.flips <> [] then (
    try check_incremental c
    with e -> fail "exception: %s" (Printexc.to_string e))
  else
    match c.kind with
    | Case.Trace -> (
        try check_trace c with e -> fail "exception: %s" (Printexc.to_string e))
    | Case.Matmul -> (
        try check_matmul c with e -> fail "exception: %s" (Printexc.to_string e))
    | Case.Conv -> (
        try check_conv c with e -> fail "exception: %s" (Printexc.to_string e))
