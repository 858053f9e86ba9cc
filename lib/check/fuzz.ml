module T = Tcmm
module F = Tcmm_fastmm
module G = Tcmm_graph
module Th = Tcmm_threshold
module Cn = Tcmm_convnet
module P = Tcmm_server.Protocol
module Client = Tcmm_server.Client

type failure = { case : Case.t; original : Case.t; message : string }
type outcome = { tested : int; failures : failure list }

(* Valid circuit dimensions per algorithm: powers of the algorithm's
   base dimension, biased small (shrinking prefers them anyway, and
   builds are memoized per configuration). *)
let sizes_of_algo = function
  | "laderman" -> [ (3, 3); (1, 9) ]
  | _ -> [ (3, 2); (4, 4); (1, 8) ]

(* Generator.  The algorithm is drawn first so [n] can range over its
   valid power ladder; tau is frequently pinned to the exact trace
   value so the comparison boundary itself is fuzzed. *)
let gen =
  let open QCheck2.Gen in
  let* kind = frequencyl [ (3, Case.Trace); (3, Case.Matmul); (1, Case.Conv) ] in
  let* algo =
    frequencyl
      [ (3, "strassen"); (2, "naive-2"); (1, "winograd"); (2, "laderman") ]
  in
  let* n = frequencyl (sizes_of_algo algo) in
  (* The conv leg's Q = 4 patch values need a circuit of n >= 4. *)
  let n =
    if kind = Case.Conv && n < 4 then if algo = "laderman" then 9 else 4 else n
  in
  let* schedule = oneofl [ "direct"; "uniform-2"; "full"; "thm44"; "thm45" ] in
  let* d = int_range 1 3 in
  let* entry_bits = if n >= 8 then return 1 else int_range 1 2 in
  let* signed = bool in
  let* seed = int_range 0 1_000_000 in
  let+ tau_choice = oneofl [ `Zero; `One; `Exact; `Above; `Below ] in
  let base =
    {
      Case.kind;
      algo;
      schedule;
      d;
      n;
      entry_bits;
      signed;
      tau = 0;
      seed;
      flips = [];
    }
  in
  match kind with
  | Case.Matmul | Case.Conv -> base
  | Case.Trace ->
      let tau =
        match tau_choice with
        | `Zero -> 0
        | `One -> 1
        | `Exact -> T.Trace_circuit.reference (Case.matrix base ~index:0)
        | `Above -> T.Trace_circuit.reference (Case.matrix base ~index:0) + 1
        | `Below -> T.Trace_circuit.reference (Case.matrix base ~index:0) - 1
      in
      { base with tau }

(* The incremental generator: unsigned 1-bit trace cases (the adjacency
   encoding) carrying 1-5 edge-flip batches of 1-3 flips each, with an
   explicit bias toward a flip-then-unflip pair inside one batch (a
   delta that must be a structural no-op) and toward tau pinned at the
   post-flip trace value (the boundary a stale cached sum would cross
   wrongly). *)
let gen_incremental =
  let open QCheck2.Gen in
  let* algo =
    frequencyl
      [ (3, "strassen"); (2, "naive-2"); (1, "winograd"); (2, "laderman") ]
  in
  let* n = frequencyl (sizes_of_algo algo) in
  let* schedule = oneofl [ "direct"; "uniform-2"; "full"; "thm44"; "thm45" ] in
  let* d = int_range 1 3 in
  let* seed = int_range 0 1_000_000 in
  let pair =
    let* i = int_range 0 (n - 2) in
    let* j = int_range (i + 1) (n - 1) in
    return (i, j)
  in
  let batch =
    let* flips = list_size (int_range 1 3) pair in
    let+ dup = frequencyl [ (1, true); (3, false) ] in
    match flips with f :: _ when dup -> flips @ [ f ] | _ -> flips
  in
  let* nbatches = int_range 1 5 in
  let* flips = list_repeat nbatches batch in
  let+ tau_choice = oneofl [ `Zero; `One; `ExactBase; `ExactFinal; `AboveFinal ] in
  let base =
    {
      Case.kind = Case.Trace;
      algo;
      schedule;
      d;
      n;
      entry_bits = 1;
      signed = false;
      tau = 0;
      seed;
      flips;
    }
  in
  let trace_of g = T.Trace_circuit.reference (G.Graph.adjacency g) in
  let tau =
    match tau_choice with
    | `Zero -> 0
    | `One -> 1
    | `ExactBase -> trace_of (Case.graph base)
    | `ExactFinal ->
        trace_of (G.Graph.flip_edges (Case.graph base) (List.concat flips))
    | `AboveFinal ->
        trace_of (G.Graph.flip_edges (Case.graph base) (List.concat flips)) + 1
  in
  { base with tau }

let fails c = match Oracle.check c with Ok () -> None | Error m -> Some m

(* Keep a flip list valid under an [n] shrink: drop out-of-range pairs,
   then empty batches. *)
let clip_flips n flips =
  List.filter_map
    (fun batch ->
      match List.filter (fun (i, j) -> i < n && j < n) batch with
      | [] -> None
      | batch -> Some batch)
    flips

let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l

(* Drop the last flip of the first multi-flip batch, if any. *)
let rec shorten_batch = function
  | [] -> None
  | batch :: rest when List.length batch > 1 -> Some (drop_last batch :: rest)
  | batch :: rest ->
      Option.map (fun rest -> batch :: rest) (shorten_batch rest)

(* The smallest n a case's kind admits (a conv case's Q = 4 patch
   values need n >= 4). *)
let min_n (c : Case.t) = if c.kind = Case.Conv then 4 else 2

(* Shrinking n divides by the algorithm's base dimension (laderman
   shrinks 9 -> 3, the power-of-2 algorithms halve); switching the
   algorithm to strassen must also move n onto the power-of-2 ladder. *)
let shrink_n (c : Case.t) =
  let t = (Case.algo_of_name c.algo).F.Bilinear.t_dim in
  let n' = c.n / t in
  if c.n > t && n' >= min_n c then
    [ { c with n = n'; flips = clip_flips n' c.flips } ]
  else []

let shrink_algo (c : Case.t) =
  if c.algo = "strassen" then []
  else
    let n =
      if (Case.algo_of_name c.algo).F.Bilinear.t_dim <> 2 then
        (* Nearest power of 2 not above n, floored at the kind's
           minimum. *)
        let rec pow2 p = if p * 2 <= c.n then pow2 (p * 2) else p in
        max (pow2 2) (min_n c)
      else c.n
    in
    [ { c with algo = "strassen"; n; flips = clip_flips n c.flips } ]

let candidates (c : Case.t) =
  List.concat
    [
      shrink_n c;
      (if c.schedule <> "direct" then [ { c with schedule = "direct" } ] else []);
      (if c.signed then [ { c with signed = false } ] else []);
      (if c.entry_bits > 1 then [ { c with entry_bits = 1 } ] else []);
      shrink_algo c;
      (if c.kind = Case.Conv then [ { c with kind = Case.Matmul } ] else []);
      (if c.kind = Case.Trace && c.tau <> 1 then [ { c with tau = 1 } ] else []);
      (if c.d > 1 then [ { c with d = 1 } ] else []);
      (if c.seed <> 0 then [ { c with seed = 0 }; { c with seed = c.seed / 2 } ]
       else []);
      (match c.flips with
      | [] -> []
      | flips ->
          [ { c with flips = [] } ]
          @ (if List.length flips > 1 then
               [ { c with flips = List.tl flips };
                 { c with flips = drop_last flips } ]
             else [])
          @ (match shorten_batch flips with
            | Some flips' -> [ { c with flips = flips' } ]
            | None -> []));
    ]

let shrink c =
  let msg0 =
    match fails c with
    | Some m -> m
    | None -> invalid_arg "Fuzz.shrink: case does not fail"
  in
  let rec go c msg steps =
    if steps > 64 then (c, msg)
    else
      match
        List.find_map
          (fun c' -> Option.map (fun m -> (c', m)) (fails c'))
          (candidates c)
      with
      | Some (c', m) -> go c' m (steps + 1)
      | None -> (c, msg)
  in
  go c msg0 0

(* Pin a generated case to one algorithm (the `tcmm check --algo`
   slice): n is remapped onto that algorithm's power ladder at a
   comparable scale, flips clipped accordingly. *)
let pin_algo algo (c : Case.t) =
  match algo with
  | None -> c
  | Some algo when algo = c.algo -> c
  | Some algo ->
      let t = (Case.algo_of_name algo).F.Bilinear.t_dim in
      let rec ladder n = if n * t <= c.n then ladder (n * t) else n in
      let n = ladder t in
      let n = if c.kind = Case.Conv && n < 4 then t * t else n in
      { c with algo; n; flips = clip_flips n c.flips }

let run_with generator ?algo ~seed ~cases () =
  let rand = Random.State.make [| seed |] in
  let tested = ref 0 and failures = ref [] in
  (try
     for _ = 1 to cases do
       if List.length !failures >= 5 then raise Exit;
       let c = pin_algo algo (QCheck2.Gen.generate1 ~rand generator) in
       incr tested;
       match Oracle.check c with
       | Ok () -> ()
       | Error _ ->
           let shrunk, message = shrink c in
           failures := { case = shrunk; original = c; message } :: !failures
     done
   with Exit -> ());
  { tested = !tested; failures = List.rev !failures }

let run ?(seed = 1) ?algo ~cases () = run_with gen ?algo ~seed ~cases ()

let run_incremental ?(seed = 1) ?algo ~cases () =
  run_with gen_incremental ?algo ~seed ~cases ()

let spec_of_case (c : Case.t) =
  {
    P.kind =
      (match c.kind with
      | Case.Trace -> P.Trace
      | Case.Matmul -> P.Matmul
      | Case.Conv -> P.Conv);
    algo = c.algo;
    schedule = c.schedule;
    d = c.d;
    n = c.n;
    entry_bits = c.entry_bits;
    signed = c.signed;
    tau = c.tau;
    kronpow = false;
  }

let check_server cl (c : Case.t) =
  let spec = spec_of_case c in
  match c.kind with
  | Case.Trace -> (
      let a = Case.matrix c ~index:0 in
      let expected = T.Trace_circuit.reference a >= c.tau in
      match Client.request cl (P.Run_trace (spec, a)) with
      | Ok (P.Trace_result (b, _)) when b = expected -> Ok ()
      | Ok (P.Trace_result (b, _)) ->
          Error
            (Printf.sprintf "server says %b, integer reference says %b" b expected)
      | Ok (P.Error e) -> Error ("server error: " ^ e)
      | Ok _ -> Error "unexpected response kind"
      | Error e -> Error ("transport: " ^ e))
  | Case.Matmul -> (
      let a = Case.matrix c ~index:0 and b = Case.matrix c ~index:1 in
      let expected = F.Matrix.mul a b in
      match Client.request cl (P.Run_matmul (spec, a, b)) with
      | Ok (P.Matmul_result (m, _)) when F.Matrix.equal m expected -> Ok ()
      | Ok (P.Matmul_result (_, _)) ->
          Error "server product disagrees with integer reference"
      | Ok (P.Error e) -> Error ("server error: " ^ e)
      | Ok _ -> Error "unexpected response kind"
      | Error e -> Error ("transport: " ^ e))
  | Case.Conv -> (
      let cspec, img, kernels = Case.conv_job c in
      let expected = Cn.Conv.direct cspec img kernels in
      let job =
        {
          P.cj_q = cspec.Cn.Im2col.q;
          cj_stride = cspec.Cn.Im2col.stride;
          cj_image = img;
          cj_kernels = kernels;
        }
      in
      match Client.request cl (P.Run_conv (spec, job)) with
      | Ok (P.Conv_result (scores, _)) when scores = expected -> Ok ()
      | Ok (P.Conv_result _) ->
          Error "served conv scores disagree with direct convolution"
      | Ok (P.Error e) -> Error ("server error: " ^ e)
      | Ok _ -> Error "unexpected response kind"
      | Error e -> Error ("transport: " ^ e))

let run_server ?(seed = 1) ?algo ~cases cl =
  let rand = Random.State.make [| seed |] in
  let tested = ref 0 and failures = ref [] in
  (try
     for _ = 1 to cases do
       if List.length !failures >= 5 then raise Exit;
       let c = pin_algo algo (QCheck2.Gen.generate1 ~rand gen) in
       (* Keep the server's per-request build cost bounded; the cap
          must land on the algorithm's own power ladder (and a conv
          case needs n >= 4, so laderman conv stays at 9). *)
       let cap =
         match (c.Case.algo, c.Case.kind) with
         | "laderman", Case.Conv -> 9
         | "laderman", _ -> 3
         | _ -> 4
       in
       let c = if c.Case.n > cap then { c with Case.n = cap } else c in
       incr tested;
       match check_server cl c with
       | Ok () -> ()
       | Error message -> failures := { case = c; original = c; message } :: !failures
     done
   with Exit -> ());
  { tested = !tested; failures = List.rev !failures }

(* One incremental trial through a live server session: the server's
   dirty-cone updates must report the same output bit and firing count
   as a local from-scratch packed evaluation (which the in-process leg
   separately holds bit-identical to the reference interpreter). *)
let check_server_incremental cl (c : Case.t) =
  let ( let* ) = Result.bind in
  let built = Oracle.trace_built c in
  let layout = built.T.Trace_circuit.layout in
  let g = ref (Case.graph c) in
  let local () =
    let adj = G.Graph.adjacency !g in
    let res =
      Th.Packed.run (Oracle.trace_packed c)
        (T.Trace_circuit.encode_input built adj)
    in
    (T.Trace_circuit.reference adj >= c.tau, res.Th.Simulator.firings)
  in
  let agree ~where ~fires ~firings =
    let want_fires, want_firings = local () in
    if fires <> want_fires then
      Error
        (Printf.sprintf "%s: server session says %b, local says %b" where fires
           want_fires)
    else if firings <> want_firings then
      Error
        (Printf.sprintf "%s: server session fired %d gates, local fired %d"
           where firings want_firings)
    else Ok ()
  in
  match Client.open_session cl (spec_of_case c) (G.Graph.adjacency !g) with
  | Error e -> Error ("open_session: " ^ e)
  | Ok so ->
      let sid = so.P.so_sid in
      Fun.protect
        ~finally:(fun () -> ignore (Client.close_session cl ~sid))
      @@ fun () ->
      let* () = agree ~where:"base" ~fires:so.P.so_fires ~firings:so.P.so_firings in
      let rec batches idx = function
        | [] -> Ok ()
        | batch :: rest ->
            let g', delta = G.Stream.delta ~layout !g batch in
            g := g';
            let* u =
              Result.map_error
                (fun e -> Printf.sprintf "update %d: %s" idx e)
                (Client.update cl ~sid delta)
            in
            let* () =
              agree
                ~where:(Printf.sprintf "after batch %d" idx)
                ~fires:u.P.ur_fires ~firings:u.P.ur_firings
            in
            batches (idx + 1) rest
      in
      batches 0 c.flips

let run_server_incremental ?(seed = 1) ?algo ~cases cl =
  let rand = Random.State.make [| seed |] in
  let tested = ref 0 and failures = ref [] in
  (try
     for _ = 1 to cases do
       if List.length !failures >= 5 then raise Exit;
       let c = pin_algo algo (QCheck2.Gen.generate1 ~rand gen_incremental) in
       (* Same build-cost bound as [run_server]. *)
       let cap = if c.Case.algo = "laderman" then 3 else 4 in
       let c =
         if c.Case.n > cap then
           { c with Case.n = cap; flips = clip_flips cap c.Case.flips }
         else c
       in
       incr tested;
       match check_server_incremental cl c with
       | Ok () -> ()
       | Error message -> failures := { case = c; original = c; message } :: !failures
     done
   with Exit -> ());
  { tested = !tested; failures = List.rev !failures }
