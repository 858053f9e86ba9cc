module F = Tcmm_fastmm
module T = Tcmm
module Th = Tcmm_threshold
module Clock = Tcmm_util.Clock

type compiled =
  | Matmul of T.Matmul_circuit.built
  | Trace of T.Trace_circuit.built
  | Stored of Tcmm_store.Artifact.io

type source = Fresh | Warm

type entry = {
  spec : Protocol.spec;
  compiled : compiled;
  packed : Th.Packed.t;
  coverage : Th.Packed.coverage;
  stats : Th.Stats.t;
  source : source;
  build_seconds : float;
  construct_seconds : float;
  lower_seconds : float;
}

type outcome = Cached | Built | Loaded

type t = {
  lru : (string, entry) Tcmm_util.Lru.t;
  store : Tcmm_store.Store.t option;
}

let create ?store ~capacity () : t =
  { lru = Tcmm_util.Lru.create ~capacity (); store }

let store t = t.store

(* [Conv] keys as "matmul": a served convolution runs through exactly
   the n x n matmul circuit, so both kinds share one cache entry.  The
   matmul circuit has no threshold to compare against, so its key
   prints tau as 0 whatever the request says. *)
let key (s : Protocol.spec) =
  let kind, tau =
    match s.kind with
    | Protocol.Matmul | Protocol.Conv -> ("matmul", 0)
    | Protocol.Trace -> ("trace", s.tau)
    | Protocol.Triangles -> ("triangles", s.tau)
  in
  Printf.sprintf "%s|%s|%s|d=%d|n=%d|b=%d|signed=%b|tau=%d" kind s.algo
    s.schedule s.d s.n s.entry_bits s.signed tau

let algo_by_name name =
  match
    List.find_opt
      (fun a -> a.F.Bilinear.name = name)
      (F.Instances.all ())
  with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "unknown algorithm %S (try: %s)" name
           (String.concat ", "
              (List.map (fun a -> a.F.Bilinear.name) (F.Instances.all ()))))

(* Bounds that keep a hostile spec from requesting a terabyte build;
   the real limit is the builder's own memory use.  [kronpow] selects
   no pass and is not part of the key, so a set flag is refused here
   rather than answered from its flat twin's entry. *)
let validate (s : Protocol.spec) =
  if s.kronpow then
    invalid_arg
      "kronpow = true: the Kronecker-power pass was removed; every circuit \
       is built flat";
  if s.n < 2 || s.n > 4096 then
    invalid_arg (Printf.sprintf "n = %d out of range [2, 4096]" s.n);
  if s.entry_bits < 1 || s.entry_bits > 32 then
    invalid_arg (Printf.sprintf "entry_bits = %d out of range [1, 32]" s.entry_bits);
  if s.d < 1 || s.d > 32 then
    invalid_arg (Printf.sprintf "d = %d out of range [1, 32]" s.d)

(* Every served circuit is built in [Direct] mode: stamped blocks go
   straight to the packed CSR form ({!Tcmm_threshold.Packed.of_arena}),
   with kernel dispatch, without ever materializing a [Circuit.t]. *)
let build (s : Protocol.spec) =
  let algo = algo_by_name s.algo in
  let schedule = T.Level_schedule.resolve ~algo ~name:s.schedule ~d:s.d ~n:s.n in
  let mode = Th.Builder.Direct in
  let t0 = Clock.now () in
  let compiled =
    match s.kind with
    | Protocol.Matmul | Protocol.Conv ->
        Matmul
          (T.Matmul_circuit.build ~mode ~algo ~schedule
             ~signed_inputs:s.signed ~entry_bits:s.entry_bits ~n:s.n ())
    | Protocol.Trace | Protocol.Triangles ->
        let tau =
          match s.kind with
          | Protocol.Triangles -> Tcmm_util.Checked.mul 6 s.tau
          | _ -> s.tau
        in
        Trace
          (T.Trace_circuit.build ~mode ~algo ~schedule
             ~signed_inputs:s.signed ~entry_bits:s.entry_bits ~tau ~n:s.n ())
  in
  let t1 = Clock.now () in
  let packed =
    match compiled with
    | Matmul built -> T.Matmul_circuit.pack built
    | Trace built -> T.Trace_circuit.pack built
    | Stored _ -> assert false
  in
  let t2 = Clock.now () in
  let stats =
    match compiled with
    | Matmul built -> T.Matmul_circuit.stats built
    | Trace built -> T.Trace_circuit.stats built
    | Stored _ -> assert false
  in
  {
    spec = s;
    compiled;
    packed;
    coverage = Th.Packed.coverage packed;
    stats;
    source = Fresh;
    build_seconds = t2 -. t0;
    construct_seconds = t1 -. t0;
    lower_seconds = t2 -. t1;
  }

(* What the artifact store needs to serve this entry later without the
   driver value: the input layouts and output representation. *)
let io_of_entry e =
  match e.compiled with
  | Matmul b ->
      Tcmm_store.Artifact.Matmul_io
        {
          layout_a = b.T.Matmul_circuit.layout_a;
          layout_b = b.T.Matmul_circuit.layout_b;
          c_grid = b.T.Matmul_circuit.c_grid;
        }
  | Trace b ->
      Tcmm_store.Artifact.Trace_io
        {
          layout = b.T.Trace_circuit.layout;
          output = b.T.Trace_circuit.output;
          tau = b.T.Trace_circuit.tau;
        }
  | Stored io -> io

let entry_of_artifact spec ~load_seconds (a : Tcmm_store.Artifact.t) =
  {
    spec;
    compiled = Stored a.Tcmm_store.Artifact.a_io;
    packed = a.Tcmm_store.Artifact.a_packed;
    coverage = Th.Packed.coverage a.Tcmm_store.Artifact.a_packed;
    stats = a.Tcmm_store.Artifact.a_header.Tcmm_store.Artifact.h_stats;
    source = Warm;
    build_seconds = load_seconds;
    construct_seconds = 0.;
    lower_seconds = load_seconds;
  }

let lookup_or_build t spec =
  let k = key spec in
  match Tcmm_util.Lru.find t.lru k with
  | Some entry -> Ok (entry, Cached)
  | None -> (
      (* Read-through: a valid artifact skips the build entirely (the
         store quarantines invalid ones and reports a miss). *)
      let loaded =
        match t.store with
        | None -> None
        | Some store ->
            let t0 = Clock.now () in
            Option.map
              (fun a -> entry_of_artifact spec ~load_seconds:(Clock.now () -. t0) a)
              (Tcmm_store.Store.find store ~key:k)
      in
      match loaded with
      | Some entry ->
          Tcmm_util.Lru.add t.lru k entry;
          Ok (entry, Loaded)
      | None -> (
          match build spec with
          | entry ->
              Tcmm_util.Lru.add t.lru k entry;
              (* Write-behind: persist the fresh build so the next
                 process (or the next life of this one) loads warm.  A
                 failed save is logged by the store and costs nothing
                 here. *)
              (match t.store with
              | None -> ()
              | Some store ->
                  let meta =
                    {
                      Tcmm_store.Artifact.m_key = k;
                      m_build_seconds = entry.build_seconds;
                      m_stats = entry.stats;
                      m_io = io_of_entry entry;
                    }
                  in
                  ignore (Tcmm_store.Store.save store ~meta entry.packed));
              Ok (entry, Built)
          | exception Invalid_argument msg | exception Failure msg ->
              Error msg
          | exception Tcmm_util.Checked.Overflow msg ->
              Error (Printf.sprintf "arithmetic overflow while building: %s" msg)
          (* Supervised recovery: any other escape (Out_of_memory, a builder
             bug) fails this request, not the daemon. *)
          | exception e ->
              Error (Printf.sprintf "build failed: %s" (Printexc.to_string e))))

(* Validate before either lookup: a spec the cache would refuse to
   build must not be answered from an entry that merely shares its key. *)
let find_or_build t spec =
  match validate spec with
  | exception Invalid_argument msg -> Error msg
  | () -> lookup_or_build t spec

let stats t = Tcmm_util.Lru.stats t.lru
