(* The artifact store: round-trip identity, corruption robustness,
   concurrent-writer atomicity, and the CRC-64 primitive underneath. *)

module T = Tcmm
module F = Tcmm_fastmm
module Th = Tcmm_threshold
module A = Tcmm_store.Artifact
module St = Tcmm_store.Store
module Sv = Tcmm_server
module P = Tcmm_server.Protocol
module Crc64 = Tcmm_util.Crc64
module S = Tcmm_test_support.Support
open QCheck2

let strassen = F.Instances.strassen

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_path f =
  let path = Filename.temp_file "tcmm_test_store" ".tcmm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Concurrent writers: two forked servers, one store directory        *)
(* ------------------------------------------------------------------ *)

let race_spec =
  {
    P.kind = P.Matmul;
    algo = "strassen";
    schedule = "thm45";
    d = 2;
    n = 4;
    entry_bits = 2;
    signed = true;
    tau = 0;
    kronpow = false;
  }

(* All K workers get the same compile pipelined before any reply is
   read, so every one of them misses its in-process cache and races the
   shared directory: each either builds the circuit and write-behind
   saves it, or wins a store load of a sibling's completed save.
   Temp-file + atomic rename must leave exactly one complete artifact,
   never a torn file, every worker must answer bit-identically, and —
   since a store miss ends in exactly one save and a store hit in
   exactly one load — the per-worker counters must satisfy
   [sum loads + sum saves = K]. *)
let race_workers = 4

let store_config dir =
  {
    (Sv.Server.default_config (P.Tcp ("127.0.0.1", 0))) with
    Sv.Server.store = Some dir;
  }

(* A forked server on an ephemeral port: its pid and bound address. *)
let start_server cfg =
  let listen_fd, addr = Sv.Server.bind cfg in
  let cfg = { cfg with Sv.Server.addr = addr } in
  match Unix.fork () with
  | 0 ->
      (try Sv.Server.serve_fd cfg listen_fd with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close listen_fd;
      (pid, addr)

let test_concurrent_writers () =
  S.with_temp_dir @@ fun dir ->
  let servers =
    Array.init race_workers (fun _ -> start_server (store_config dir))
  in
  let killed = ref false in
  let kill_all () =
    if not !killed then begin
      killed := true;
      Array.iter
        (fun (pid, _) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        servers
    end
  in
  Fun.protect ~finally:kill_all @@ fun () ->
  let clients =
    Array.map (fun (_, addr) -> Sv.Client.connect addr) servers
  in
  Array.iter (fun cl -> Sv.Client.send cl (P.Compile race_spec)) clients;
  Array.iteri
    (fun i cl ->
      match Sv.Client.recv cl with
      | Ok (P.Compiled c) ->
          S.check_bool
            (Printf.sprintf "worker %d compile not a cache hit" i)
            false c.P.cached
      | Ok _ -> Alcotest.failf "worker %d: unexpected reply to compile" i
      | Error m -> Alcotest.failf "worker %d: %s" i m)
    clients;
  let rng = Tcmm_util.Prng.create ~seed:0xC0FFEE in
  for _ = 1 to 4 do
    let a = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
    let b = F.Matrix.random rng ~rows:4 ~cols:4 ~lo:(-3) ~hi:3 in
    let want = F.Matrix.mul a b in
    Array.iteri
      (fun i cl ->
        match Sv.Client.request cl (P.Run_matmul (race_spec, a, b)) with
        | Ok (P.Matmul_result (m, _)) ->
            S.check_bool
              (Printf.sprintf "worker %d answers A*B" i)
              true
              (F.Matrix.equal m want)
        | Ok _ -> Alcotest.failf "worker %d: unexpected reply to run" i
        | Error m -> Alcotest.failf "worker %d: %s" i m)
      clients
  done;
  let loads = ref 0 and saves = ref 0 in
  Array.iteri
    (fun i cl ->
      match Sv.Client.request cl P.Metrics with
      | Ok (P.Metrics_result m) ->
          loads := !loads + m.P.store_loads;
          saves := !saves + m.P.store_saves;
          S.check_int
            (Printf.sprintf "worker %d store accesses" i)
            1
            (m.P.store_loads + m.P.store_saves);
          S.check_int
            (Printf.sprintf "worker %d no invalid artifacts" i)
            0 m.P.store_invalid
      | Ok _ -> Alcotest.failf "worker %d: unexpected reply to metrics" i
      | Error m -> Alcotest.failf "worker %d: %s" i m)
    clients;
  S.check_int "store loads + saves sum to the worker count" race_workers
    (!loads + !saves);
  S.check_bool "at least one worker saved" true (!saves >= 1);
  Array.iter Sv.Client.close clients;
  kill_all ();
  let files = Sys.readdir dir |> Array.to_list in
  let artifacts =
    List.filter (fun f -> Filename.check_suffix f ".tcmm") files
  in
  S.check_int "exactly one artifact survives the race" 1
    (List.length artifacts);
  S.check_bool "no temp or quarantined droppings" true
    (List.for_all (fun f -> Filename.check_suffix f ".tcmm") files);
  let key = Sv.Circuit_cache.key race_spec in
  match
    A.read ~key ~path:(Filename.concat dir (List.hd artifacts)) ()
  with
  | Ok a -> S.check_bool "post-race artifact verifies" true (a.A.a_bytes > 0)
  | Error m -> Alcotest.failf "post-race artifact invalid: %s" m

(* Write-behind from one circuit cache, warm load in another: the loaded
   circuit is the fresh build, kernel dispatch included, and a server
   whose first request for the spec is that load counts the loaded
   circuit in its kernel-coverage metrics. *)
let test_warm_load_coverage () =
  S.with_temp_dir @@ fun dir ->
  let find_or_build () =
    let store =
      match St.create ~dir () with
      | Ok st -> st
      | Error m -> Alcotest.failf "cannot open store: %s" m
    in
    let cc = Sv.Circuit_cache.create ~store ~capacity:2 () in
    match Sv.Circuit_cache.find_or_build cc race_spec with
    | Ok r -> r
    | Error m -> Alcotest.failf "find_or_build: %s" m
  in
  let fresh, fresh_outcome = find_or_build () in
  S.check_bool "first cache builds" true (fresh_outcome = Sv.Circuit_cache.Built);
  let warm, warm_outcome = find_or_build () in
  S.check_bool "second cache loads warm" true
    (warm_outcome = Sv.Circuit_cache.Loaded);
  S.check_bool "loaded circuit = fresh build" true
    (Th.Packed.structural_equal fresh.Sv.Circuit_cache.packed
       warm.Sv.Circuit_cache.packed);
  let cov = warm.Sv.Circuit_cache.coverage in
  S.check_bool "equal coverage" true (cov = fresh.Sv.Circuit_cache.coverage);
  S.check_bool "kernels survive the round trip" true
    (cov.Th.Packed.kernel_segments > 0);
  let pid, addr = start_server (store_config dir) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
  @@ fun () ->
  let cl = Sv.Client.connect addr in
  Fun.protect ~finally:(fun () -> Sv.Client.close cl) @@ fun () ->
  (match Sv.Client.request cl (P.Compile race_spec) with
  | Ok (P.Compiled c) -> S.check_bool "server loads warm" true c.P.loaded
  | Ok _ -> Alcotest.fail "unexpected reply to compile"
  | Error m -> Alcotest.fail m);
  match Sv.Client.request cl P.Metrics with
  | Ok (P.Metrics_result m) ->
      S.check_int "one store load" 1 m.P.store_loads;
      S.check_int "no build" 0 m.P.store_saves;
      S.check_bool "kernel gates counted" true (m.P.kernel_gates > 0);
      S.check_int "kernel gates of the loaded circuit" cov.Th.Packed.kernel_gates
        m.P.kernel_gates;
      S.check_int "fallback gates of the loaded circuit"
        cov.Th.Packed.fallback_gates m.P.fallback_gates
  | Ok _ -> Alcotest.fail "unexpected reply to metrics"
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Fixtures: one trace circuit (template kernels), one matmul         *)
(* (lowered without kernels — the empty kernel-index case)           *)
(* ------------------------------------------------------------------ *)

let trace_fixture =
  lazy
    (let schedule = T.Level_schedule.full ~l:1 in
     let built =
       T.Trace_circuit.build ~mode:Th.Builder.Direct ~templates:true
         ~algo:strassen ~schedule ~entry_bits:2 ~tau:3 ~n:2 ()
     in
     let packed = T.Trace_circuit.pack built in
     let io =
       A.Trace_io
         {
           layout = built.T.Trace_circuit.layout;
           output = built.T.Trace_circuit.output;
           tau = built.T.Trace_circuit.tau;
         }
     in
     let meta =
       {
         A.m_key = "trace|strassen|full|d=1|n=2|b=2|signed=false|tau=3";
         m_build_seconds = 0.25;
         m_stats = T.Trace_circuit.stats built;
         m_io = io;
       }
     in
     (built, packed, meta))

(* Pristine artifact bytes for the corruption properties, written once. *)
let trace_bytes =
  lazy
    (let _, packed, meta = Lazy.force trace_fixture in
     with_temp_path @@ fun path ->
     match A.write ~path meta packed with
     | Error m -> Alcotest.failf "fixture write failed: %s" m
     | Ok _ -> read_file path)

let matmul_fixture =
  lazy
    (let schedule = T.Level_schedule.full ~l:1 in
     let built =
       T.Matmul_circuit.build ~algo:strassen ~schedule ~signed_inputs:false
         ~entry_bits:2 ~n:2 ()
     in
     let packed =
       Th.Packed.of_arena ~kernels:false
         (Th.Builder.arena built.T.Matmul_circuit.builder)
     in
     let io =
       A.Matmul_io
         {
           layout_a = built.T.Matmul_circuit.layout_a;
           layout_b = built.T.Matmul_circuit.layout_b;
           c_grid = built.T.Matmul_circuit.c_grid;
         }
     in
     let meta =
       {
         A.m_key = "matmul|strassen|full|d=1|n=2|b=2|signed=false|tau=0";
         m_build_seconds = 0.125;
         m_stats = T.Matmul_circuit.stats built;
         m_io = io;
       }
     in
     (built, packed, meta))

(* ------------------------------------------------------------------ *)
(* CRC-64                                                             *)
(* ------------------------------------------------------------------ *)

(* Bit-at-a-time CRC-64/XZ: the reference every feeding path is held
   to, whichever of the native table and folding paths it takes. *)
let crc64_ref b =
  let c = ref (-1L) in
  Bytes.iter
    (fun ch ->
      c := Int64.logxor !c (Int64.of_int (Char.code ch));
      for _ = 1 to 8 do
        let odd = Int64.logand !c 1L = 1L in
        c := Int64.shift_right_logical !c 1;
        if odd then c := Int64.logxor !c 0xC96C5795D7870F42L
      done)
    b;
  let d = Int64.lognot !c in
  ( Int64.to_int (Int64.shift_right_logical d 32),
    Int64.to_int (Int64.logand d 0xFFFFFFFFL) )

let test_crc64_check_vector () =
  Alcotest.(check string)
    "CRC-64/XZ of \"123456789\"" "995dc9bbdf1939fa"
    (Crc64.to_hex (Crc64.digest (Crc64.feed_string Crc64.init "123456789")))

let test_crc64_word_vs_bytes =
  S.qcheck_case ~count:500 "feed_word = feed_bytes over the 8 LE bytes"
    Gen.int (fun w ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.logand (Int64.of_int w) Int64.max_int);
      Crc64.equal
        (Crc64.digest (Crc64.feed_word Crc64.init w))
        (Crc64.digest (Crc64.feed_bytes Crc64.init b ~pos:0 ~len:8)))

(* Vectors of 0..4096 elements, short ones often (the table path
   below 64 bytes, the folding path above), read from a random [pos]
   in two pieces split at a random point, so the register is also
   carried from one call into the next. *)
let vec_gen elt =
  Gen.(
    triple
      (array_size (oneof [ int_bound 20; int_bound 4096 ]) elt)
      nat nat)

let pos_split n r1 r2 =
  let pos = r1 mod (n + 1) in
  (pos, pos + (r2 mod (n - pos + 1)))

let test_crc64_bytes_vs_ref =
  S.qcheck_case ~count:300 "feed_bytes = bitwise CRC-64/XZ"
    (vec_gen Gen.char) (fun (a, r1, r2) ->
      let n = Array.length a in
      let b = Bytes.init n (Array.get a) in
      let pos, mid = pos_split n r1 r2 in
      let t = Crc64.feed_bytes Crc64.init b ~pos ~len:(mid - pos) in
      let t = Crc64.feed_bytes t b ~pos:mid ~len:(n - mid) in
      Crc64.equal (Crc64.digest t) (crc64_ref (Bytes.sub b pos (n - pos))))

(* What an int32 section's checksum covers: every byte, bit 31 of each
   element included, from any starting element (even or odd counts
   leave a tail of one element). *)
let test_crc64_i32_vs_bytes =
  S.qcheck_case ~count:300 "feed_i32vec = feed_bytes over the LE bytes"
    (vec_gen Gen.int32) (fun (a, r1, r2) ->
      let n = Array.length a in
      let pos, mid = pos_split n r1 r2 in
      let v = Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout a in
      let b = Bytes.create (4 * n) in
      Array.iteri (fun i x -> Bytes.set_int32_le b (4 * i) x) a;
      let t = Crc64.feed_i32vec Crc64.init v ~pos ~len:(mid - pos) in
      let t = Crc64.feed_i32vec t v ~pos:mid ~len:(n - mid) in
      let bytes = Bytes.sub b (4 * pos) (4 * (n - pos)) in
      Crc64.equal (Crc64.digest t) (crc64_ref bytes)
      && Crc64.equal (Crc64.digest t)
           (Crc64.digest
              (Crc64.feed_bytes Crc64.init bytes ~pos:0 ~len:(Bytes.length bytes))))

(* What a word section's checksum covers: each int's full 63-bit value,
   sign bit (bit 62) included, as eight little-endian bytes with bit 63
   clear, over negative values and both extremes. *)
let test_crc64_ivec_vs_ref =
  S.qcheck_case ~count:300 "feed_ivec = bitwise CRC-64/XZ of the 63-bit values"
    (vec_gen
       Gen.(
         oneof
           [ int; map (fun x -> -x - 1) nat; oneofl [ min_int; max_int; -1; 0 ] ]))
    (fun (a, r1, r2) ->
      let n = Array.length a in
      let pos, mid = pos_split n r1 r2 in
      let v = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout a in
      let b = Bytes.create (8 * (n - pos)) in
      for i = pos to n - 1 do
        Bytes.set_int64_le b (8 * (i - pos))
          (Int64.logand (Int64.of_int a.(i)) Int64.max_int)
      done;
      let t = Crc64.feed_ivec Crc64.init v ~pos ~len:(mid - pos) in
      let t = Crc64.feed_ivec t v ~pos:mid ~len:(n - mid) in
      Crc64.equal (Crc64.digest t) (crc64_ref b))

let test_crc64_bounds () =
  let v = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 4 in
  List.iter
    (fun (pos, len) ->
      S.check_bool
        (Printf.sprintf "pos %d len %d refused" pos len)
        true
        (match Crc64.feed_ivec Crc64.init v ~pos ~len with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (-1, 1); (0, 5); (4, 1); (0, -1); (2, max_int) ]

(* The section CRCs of one small built artifact (mm4, signed 2-bit
   entries, the race spec above), pinned: whichever native path
   computes them, every stored checksum stays what earlier builds wrote
   and what stored artifacts carry. *)
let golden_mm4_sections =
  [
    ("pool_wires", 4, 86824, "cc5a2283d4f4be47");
    ("g_threshold", 8, 26032, "7f837988435827d5");
    ("g_wire", 4, 26032, "7776633d8747e80a");
    ("seg_off", 8, 4240, "ecad6238f1601884");
    ("seg_fan", 8, 4240, "1d9e353f83efcc23");
    ("seg_gates", 8, 4241, "d8226cf0c2be8eee");
    ("seg_grp", 8, 4241, "b4694de4c74edbaa");
    ("grp_off", 8, 6941, "e0a78e6b88ed39d9");
    ("grp_weight", 8, 6940, "ca8a4544577ad516");
    ("level_segs", 8, 6, "2756ae3144b62f8d");
    ("outputs", 8, 344, "7e6da5315f5f5e6a");
    ("kern_table", 8, 2320, "2d087cfbe1687272");
    ("kern_index", 8, 4240, "a8c7cc702f9949ea");
  ]

let test_crc64_golden_sections () =
  S.with_temp_dir @@ fun dir ->
  let store =
    match St.create ~dir () with Ok s -> s | Error m -> Alcotest.fail m
  in
  let cache = Sv.Circuit_cache.create ~store ~capacity:1 () in
  (match Sv.Circuit_cache.find_or_build cache race_spec with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match St.list store with
  | [ (_, Ok (h, _)) ] ->
      let got =
        List.map
          (fun s -> (s.A.s_name, s.A.s_width, s.A.s_len, Crc64.to_hex s.A.s_crc))
          h.A.h_sections
      in
      List.iter2
        (fun (name, w, len, crc) (name', w', len', crc') ->
          Alcotest.(check string) "section" name name';
          Alcotest.(check (triple int int string))
            (name ^ " width, length, CRC-64") (w, len, crc) (w', len', crc'))
        golden_mm4_sections got
  | l -> Alcotest.failf "expected one stored artifact, found %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Round-trip identity                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_round_trip () =
  let built, packed, meta = Lazy.force trace_fixture in
  with_temp_path @@ fun path ->
  (match A.write ~path meta packed with
  | Error m -> Alcotest.failf "write failed: %s" m
  | Ok bytes -> S.check_bool "write reports the file size" true (bytes > 0));
  match A.read ~key:meta.A.m_key ~path () with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok a ->
      let loaded = a.A.a_packed in
      S.check_bool "structural identity" true
        (Th.Packed.structural_equal packed loaded);
      S.check_bool "no kernel recompilation on a fresh artifact" false
        a.A.a_kern_recompiled;
      S.check_bool "kernel coverage survives the trip" true
        (Th.Packed.coverage packed = Th.Packed.coverage loaded);
      Alcotest.(check string) "header carries the key" meta.A.m_key
        a.A.a_header.A.h_key;
      let out_loaded =
        match a.A.a_io with
        | A.Trace_io t -> t.output
        | A.Matmul_io _ -> Alcotest.fail "wrong io kind"
      in
      let rng = Tcmm_util.Prng.create ~seed:7 in
      let lanes =
        Array.init 8 (fun _ ->
            F.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3)
      in
      let inputs = Array.map (T.Trace_circuit.encode_input built) lanes in
      let fresh = Th.Packed.run_batch packed inputs in
      let warm = Th.Packed.run_batch loaded inputs in
      Array.iteri
        (fun lane _ ->
          S.check_bool
            (Printf.sprintf "lane %d evaluates identically" lane)
            (Th.Packed.batch_value fresh ~lane built.T.Trace_circuit.output)
            (Th.Packed.batch_value warm ~lane out_loaded))
        lanes

let test_matmul_round_trip () =
  let built, packed, meta = Lazy.force matmul_fixture in
  with_temp_path @@ fun path ->
  (match A.write ~path meta packed with
  | Error m -> Alcotest.failf "write failed: %s" m
  | Ok _ -> ());
  match A.read ~key:meta.A.m_key ~path () with
  | Error m -> Alcotest.failf "read failed: %s" m
  | Ok a ->
      let loaded = a.A.a_packed in
      (* A circuit lowered without kernels has an empty kernel table;
         the artifact must reproduce that faithfully, not invent
         kernels on load. *)
      S.check_bool "structural identity (empty kernel index)" true
        (Th.Packed.structural_equal packed loaded);
      let rng = Tcmm_util.Prng.create ~seed:11 in
      let a_m = F.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3 in
      let b_m = F.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3 in
      let input = T.Matmul_circuit.encode_inputs built ~a:a_m ~b:b_m in
      let fresh = Th.Packed.run_batch packed [| input |] in
      let warm = Th.Packed.run_batch loaded [| input |] in
      let dec br =
        T.Matmul_circuit.decode built (Th.Packed.batch_value br ~lane:0)
      in
      let want = F.Matrix.mul a_m b_m in
      S.check_bool "fresh circuit answers A*B" true
        (F.Matrix.equal (dec fresh) want);
      S.check_bool "loaded circuit answers A*B" true
        (F.Matrix.equal (dec warm) want)

(* Wire ids load from int32 sections.  A load that boxed its [Int32] in
   an inner loop would allocate a few words per pooled edge; each entry
   point must instead allocate per call only its result, far below one
   word per hundred pool edges. *)
let test_no_boxed_loads () =
  let n = 8 in
  let profile = F.Sparsity.analyze strassen in
  let schedule = T.Level_schedule.theorem45 ~profile ~d:2 ~n in
  let built =
    T.Matmul_circuit.build ~mode:Th.Builder.Direct ~algo:strassen ~schedule
      ~entry_bits:1 ~n ()
  in
  let meta =
    {
      A.m_key = "matmul|strassen|thm45|d=2|n=8|b=1|signed=false|tau=0";
      m_build_seconds = 0.;
      m_stats = T.Matmul_circuit.stats built;
      m_io =
        A.Matmul_io
          {
            layout_a = built.T.Matmul_circuit.layout_a;
            layout_b = built.T.Matmul_circuit.layout_b;
            c_grid = built.T.Matmul_circuit.c_grid;
          };
    }
  in
  with_temp_path @@ fun path ->
  (match A.write ~path meta (T.Matmul_circuit.pack built) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "write failed: %s" m);
  let p =
    match A.read ~key:meta.A.m_key ~path () with
    | Ok a -> a.A.a_packed
    | Error m -> Alcotest.failf "read failed: %s" m
  in
  let rng = Tcmm_util.Prng.create ~seed:16 in
  let input () =
    T.Matmul_circuit.encode_inputs built
      ~a:(F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1)
      ~b:(F.Matrix.random rng ~rows:n ~cols:n ~lo:0 ~hi:1)
  in
  let one = [| input () |] and batch = Array.init 62 (fun _ -> input ()) in
  let ws = Th.Packed.workspace () in
  let session = Th.Packed.session p one.(0) in
  let width = Array.length one.(0) in
  let flips =
    Array.init 64 (fun k -> [| (k * 7 mod width, k mod 2 = 0) |])
  in
  let budget = float_of_int (Th.Packed.pool_edges p) /. 100. in
  let per_call name f =
    f 0;
    let reps = 64 in
    let w0 = Gc.minor_words () in
    for k = 0 to reps - 1 do
      f k
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int reps in
    if words >= budget then
      Alcotest.failf "%s: %.0f minor words per call, budget %.0f" name words
        budget
  in
  per_call "one-lane run_batch" (fun _ -> ignore (Th.Packed.run_batch ~ws p one));
  per_call "62-lane run_batch" (fun _ ->
      ignore (Th.Packed.run_batch ~ws p batch));
  per_call "session update" (fun k ->
      ignore (Th.Packed.update session flips.(k)))

(* ------------------------------------------------------------------ *)
(* Store tier: save / find, counters, quarantine                      *)
(* ------------------------------------------------------------------ *)

let open_store dir =
  match St.create ~dir () with
  | Ok s -> s
  | Error m -> Alcotest.failf "store open failed: %s" m

let test_store_save_find () =
  let _, packed, meta = Lazy.force trace_fixture in
  S.with_temp_dir @@ fun dir ->
  let store = open_store dir in
  (match St.save store ~meta packed with
  | Error m -> Alcotest.failf "save failed: %s" m
  | Ok _ -> ());
  (match St.find store ~key:meta.A.m_key with
  | None -> Alcotest.fail "saved artifact not found"
  | Some a ->
      S.check_bool "found artifact is the saved circuit" true
        (Th.Packed.structural_equal packed a.A.a_packed));
  S.check_bool "absent key misses cleanly" true
    (St.find store ~key:"no|such|key" = None);
  let c = St.counters store in
  S.check_int "one save" 1 c.St.saves;
  S.check_int "one load" 1 c.St.loads;
  S.check_int "nothing quarantined" 0 c.St.invalid

let test_key_mismatch () =
  let _, packed, meta = Lazy.force trace_fixture in
  S.with_temp_dir @@ fun dir ->
  let store = open_store dir in
  (match St.save store ~meta packed with
  | Error m -> Alcotest.failf "save failed: %s" m
  | Ok _ -> ());
  let right = St.path_of_key store meta.A.m_key in
  (* Direct read with the wrong expected key is refused. *)
  (match A.read ~key:"some|other|key" ~path:right () with
  | Ok _ -> Alcotest.fail "read accepted a spec-key mismatch"
  | Error m ->
      S.check_bool "error names the key mismatch" true
        (String.length m > 0));
  (* A file parked under another spec's name is quarantined on find. *)
  let wrong_key = "trace|strassen|full|d=1|n=2|b=2|signed=false|tau=9" in
  let wrong = St.path_of_key store wrong_key in
  Unix.rename right wrong;
  S.check_bool "mismatched artifact reports a miss" true
    (St.find store ~key:wrong_key = None);
  S.check_int "mismatch counted as invalid" 1 (St.counters store).St.invalid;
  S.check_bool "mismatched file quarantined" true
    (Sys.file_exists (wrong ^ ".corrupt"));
  S.check_bool "quarantined file is not re-read" true
    (St.find store ~key:wrong_key = None);
  S.check_int "second miss does not re-quarantine" 1
    (St.counters store).St.invalid

let test_payload_corruption_quarantined () =
  let _, packed, meta = Lazy.force trace_fixture in
  S.with_temp_dir @@ fun dir ->
  let store = open_store dir in
  (match St.save store ~meta packed with
  | Error m -> Alcotest.failf "save failed: %s" m
  | Ok _ -> ());
  let path = St.path_of_key store meta.A.m_key in
  let header =
    match A.read_header ~path with
    | Ok (h, _) -> h
    | Error m -> Alcotest.failf "read_header failed: %s" m
  in
  let sec =
    List.fold_left
      (fun best s -> if s.A.s_len > best.A.s_len then s else best)
      (List.hd header.A.h_sections)
      header.A.h_sections
  in
  S.check_bool "fixture has a non-empty section" true (sec.A.s_len > 0);
  let bytes = Bytes.of_string (read_file path) in
  let pos = sec.A.s_off * 8 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  write_file path (Bytes.to_string bytes);
  S.check_bool "corrupted payload reports a miss" true
    (St.find store ~key:meta.A.m_key = None);
  S.check_int "corruption counted" 1 (St.counters store).St.invalid;
  S.check_bool "corrupted file quarantined" true
    (Sys.file_exists (path ^ ".corrupt"))

(* ------------------------------------------------------------------ *)
(* Stale format version                                               *)
(* ------------------------------------------------------------------ *)

(* Byte layout under test: magic at 0, u64 header length at 8, the
   Codec-encoded header at 16 (tuple tags 't','p','t', then an 'i' tag
   and [h_format] as a u64 LE at bytes 20..27, then an 'i' tag and
   [h_kernel_rev] at bytes 29..36), and the header CRC-64 as one u64 LE
   at [16 + hlen].  Bump one revision's payload and re-sign the header
   so only that revision's check can object. *)
let resign bytes =
  let hlen = Int64.to_int (Bytes.get_int64_le bytes 8) in
  let hi, lo =
    Crc64.digest (Crc64.feed_bytes Crc64.init bytes ~pos:16 ~len:hlen)
  in
  Bytes.set_int64_le bytes (16 + hlen)
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo));
  Bytes.to_string bytes

let bump_revision ~what ~pos ~current =
  let bytes = Bytes.of_string (Lazy.force trace_bytes) in
  S.check_int "codec tuple tag" (Char.code 't') (Char.code (Bytes.get bytes 16));
  S.check_int "codec int tag" (Char.code 'i')
    (Char.code (Bytes.get bytes (pos - 1)));
  S.check_int
    (Printf.sprintf "%s low byte is the current revision" what)
    (current land 0xff)
    (Char.code (Bytes.get bytes pos));
  Bytes.set bytes pos (Char.chr ((current + 1) land 0xff));
  resign bytes

let stale_format_bytes () =
  bump_revision ~what:"h_format" ~pos:20 ~current:A.format_version

(* A header shaped like format v3's: its second tag opens a triple where
   v4's opens a pair, and its format word says 3.  It does not decode
   against the current schema at all, so only a reader that reads the
   format word first can say what is wrong with it. *)
let v3_shaped_bytes () =
  let bytes = Bytes.of_string (Lazy.force trace_bytes) in
  S.check_int "v4 header opens a pair" (Char.code 'p')
    (Char.code (Bytes.get bytes 17));
  Bytes.set bytes 17 't';
  Bytes.set_int64_le bytes 20 3L;
  resign bytes

(* Run [f] under a Logs reporter that keeps every message. *)
let with_logs f =
  let msgs = ref [] in
  let report _ _ ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun m ->
            msgs := m :: !msgs;
            over ();
            k ())
          fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () ->
      let r = f () in
      (List.rev !msgs, r))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_stale_format_rejected () =
  with_temp_path @@ fun path ->
  write_file path (stale_format_bytes ());
  (match A.read_header ~path with
  | Ok _ -> Alcotest.fail "read_header accepted a stale format version"
  | Error m ->
      S.check_bool "error names the stale format" true
        (contains ~needle:"stale format" m));
  match A.read ~path () with
  | Ok _ -> Alcotest.fail "read accepted a stale format version"
  | Error _ -> ()

let test_v3_header_quarantined_as_stale () =
  let _, _, meta = Lazy.force trace_fixture in
  let key = meta.A.m_key in
  S.with_temp_dir @@ fun dir ->
  let store = open_store dir in
  let path = St.path_of_key store key in
  write_file path (v3_shaped_bytes ());
  let logs, found = with_logs (fun () -> St.find store ~key) in
  S.check_bool "stale artifact reports a miss" true (Option.is_none found);
  S.check_int "counted invalid" 1 (St.counters store).St.invalid;
  S.check_bool "stale file quarantined" true
    (Sys.file_exists (path ^ ".corrupt"));
  S.check_bool "quarantine reason names the stale format" true
    (List.exists
       (fun m ->
         contains ~needle:"quarantined" m
         && contains ~needle:"stale format version 3" m)
       logs)

(* An artifact written under another kernel revision loads by
   recompiling every segment's kernel from the pools, the edge weights
   taken from the groups, and must evaluate exactly like the circuit it
   was written from. *)
let test_stale_kernel_rev_recompiles () =
  let built, packed, meta = Lazy.force trace_fixture in
  with_temp_path @@ fun path ->
  write_file path
    (bump_revision ~what:"h_kernel_rev" ~pos:29
       ~current:Th.Kernel.format_rev);
  match A.read ~key:meta.A.m_key ~path () with
  | Error m -> Alcotest.failf "stale kernel revision refused: %s" m
  | Ok a ->
      S.check_bool "kernels recompiled" true a.A.a_kern_recompiled;
      let rng = Tcmm_util.Prng.create ~seed:29 in
      let inputs =
        Array.init 62 (fun _ ->
            T.Trace_circuit.encode_input built
              (F.Matrix.random rng ~rows:2 ~cols:2 ~lo:0 ~hi:3))
      in
      let fresh = Th.Packed.run_batch packed inputs in
      let warm = Th.Packed.run_batch a.A.a_packed inputs in
      Array.iteri
        (fun lane _ ->
          S.check_bool
            (Printf.sprintf "lane %d outputs" lane)
            true
            (Th.Packed.batch_outputs fresh ~lane
            = Th.Packed.batch_outputs warm ~lane);
          S.check_int
            (Printf.sprintf "lane %d firings" lane)
            (Th.Packed.batch_firings fresh ~lane)
            (Th.Packed.batch_firings warm ~lane))
        inputs

let test_gc () =
  let _, packed, meta = Lazy.force trace_fixture in
  S.with_temp_dir @@ fun dir ->
  let store = open_store dir in
  (match St.save store ~meta packed with
  | Error m -> Alcotest.failf "save failed: %s" m
  | Ok _ -> ());
  (* Dead weight gc must sweep: a stale-format artifact, a quarantined
     file, an orphaned temp file, and header garbage. *)
  write_file (Filename.concat dir "stale.tcmm") (stale_format_bytes ());
  write_file (Filename.concat dir "old.tcmm.corrupt") "quarantined";
  write_file (Filename.concat dir "orphan.tcmm.tmp.12345") "half a write";
  write_file (Filename.concat dir "junk.tcmm") "not an artifact";
  let removed = ref [] in
  let freed = St.gc store ~removed:(fun f -> removed := f :: !removed) in
  S.check_int "gc removed the four dead files" 4 (List.length !removed);
  S.check_bool "gc reports bytes freed" true (freed > 0);
  S.check_bool "the live artifact survives gc" true
    (Sys.file_exists (St.path_of_key store meta.A.m_key));
  match St.list store with
  | [ (_, Ok (h, _)) ] ->
      Alcotest.(check string) "list shows the surviving artifact"
        meta.A.m_key h.A.h_key
  | l -> Alcotest.failf "expected one listed artifact, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Corruption properties: truncation and bit flips                    *)
(* ------------------------------------------------------------------ *)

(* Any truncation must fail cleanly — an Error, never an exception,
   never a mapped read off the end of the file.  The one admissible
   acceptance: a cut confined to the zero padding after the last
   section (sections are page-aligned, so the file carries trailing
   pad), which must still load the identical circuit. *)
let test_truncation =
  S.qcheck_case ~count:80 "every truncation point fails cleanly"
    Gen.(int_bound 0x3FFFFFFF)
    (fun r ->
      let pristine = Lazy.force trace_bytes in
      let _, packed, _ = Lazy.force trace_fixture in
      let len = r mod String.length pristine in
      with_temp_path @@ fun path ->
      let content_end =
        write_file path pristine;
        match A.read_header ~path with
        | Ok (h, _) ->
            List.fold_left
              (fun e s -> max e ((s.A.s_off + s.A.s_len) * 8))
              0 h.A.h_sections
        | Error m -> Test.fail_reportf "pristine header unreadable: %s" m
      in
      write_file path (String.sub pristine 0 len);
      match A.read ~path () with
      | Error _ -> true
      | Ok a when len >= content_end ->
          Th.Packed.structural_equal packed a.A.a_packed
          || Test.fail_reportf
               "pad-only truncation to %d bytes loaded a different circuit"
               len
      | Ok _ ->
          Test.fail_reportf "accepted a %d-byte truncation (content ends at %d)"
            len content_end
      | exception e ->
          Test.fail_reportf "raised on a %d-byte truncation: %s" len
            (Printexc.to_string e))

(* A single flipped bit is either detected (Error) or provably
   harmless: padding bytes and bit 63 of a stored word are outside the
   logical content, so an accepted load must still be structurally
   identical.  A wrong answer or a crash is the one forbidden
   outcome. *)
let test_bit_flips =
  S.qcheck_case ~count:120 "every bit flip is detected or harmless"
    Gen.(pair (int_bound 0x3FFFFFFF) (int_bound 7))
    (fun (r, bit) ->
      let pristine = Lazy.force trace_bytes in
      let _, packed, meta = Lazy.force trace_fixture in
      let pos = r mod String.length pristine in
      let bytes = Bytes.of_string pristine in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
      with_temp_path @@ fun path ->
      write_file path (Bytes.to_string bytes);
      match A.read ~key:meta.A.m_key ~path () with
      | Error _ -> true
      | Ok a ->
          Th.Packed.structural_equal packed a.A.a_packed
          || Test.fail_reportf
               "flip at byte %d bit %d loaded a different circuit" pos bit
      | exception e ->
          Test.fail_reportf "flip at byte %d bit %d raised: %s" pos bit
            (Printexc.to_string e))

(* A flip of any content bit of a stored element — bits 0-31 of an
   int32, bits 0-62 of a word (bit 63 is outside the logical content) —
   is inside CRC-covered content and must always be detected. *)
let test_section_flips_detected =
  S.qcheck_case ~count:80 "in-section content flips are always detected"
    Gen.(
      triple (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF)
        (int_bound 0x3FFFFFFF))
    (fun (rs, re, rb) ->
      let pristine = Lazy.force trace_bytes in
      with_temp_path @@ fun path ->
      write_file path pristine;
      let header =
        match A.read_header ~path with
        | Ok (h, _) -> h
        | Error m -> Test.fail_reportf "pristine header unreadable: %s" m
      in
      let sections =
        List.filter (fun s -> s.A.s_len > 0) header.A.h_sections
      in
      if sections = [] then Test.fail_report "fixture has no sections";
      let s = List.nth sections (rs mod List.length sections) in
      let elem = re mod s.A.s_len in
      let bit = rb mod (if s.A.s_width = 4 then 32 else 63) in
      let pos = (s.A.s_off * 8) + (elem * s.A.s_width) + (bit / 8) in
      let bytes = Bytes.of_string pristine in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl (bit mod 8))));
      write_file path (Bytes.to_string bytes);
      match A.read ~path () with
      | Error _ -> true
      | Ok _ ->
          Test.fail_reportf
            "undetected flip in section %S (element %d, bit %d)" s.A.s_name
            elem bit)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "concurrency",
        [
          Alcotest.test_case "four workers, one store dir" `Quick
            test_concurrent_writers;
        ] );
      ( "crc64",
        [
          Alcotest.test_case "check vector" `Quick test_crc64_check_vector;
          test_crc64_word_vs_bytes;
          test_crc64_i32_vs_bytes;
          test_crc64_bytes_vs_ref;
          test_crc64_ivec_vs_ref;
          Alcotest.test_case "out-of-range feeds refused" `Quick
            test_crc64_bounds;
          Alcotest.test_case "golden section CRCs (mm4 signed 2-bit)" `Quick
            test_crc64_golden_sections;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "trace identity" `Quick test_trace_round_trip;
          Alcotest.test_case "matmul identity (no kernels)" `Quick
            test_matmul_round_trip;
          Alcotest.test_case "no boxed wire loads" `Quick test_no_boxed_loads;
        ] );
      ( "store",
        [
          Alcotest.test_case "save and find" `Quick test_store_save_find;
          Alcotest.test_case "spec-key mismatch quarantined" `Quick
            test_key_mismatch;
          Alcotest.test_case "payload corruption quarantined" `Quick
            test_payload_corruption_quarantined;
          Alcotest.test_case "stale format rejected" `Quick
            test_stale_format_rejected;
          Alcotest.test_case "v3 header quarantined as stale" `Quick
            test_v3_header_quarantined_as_stale;
          Alcotest.test_case "stale kernel revision recompiles" `Quick
            test_stale_kernel_rev_recompiles;
          Alcotest.test_case "gc sweeps dead files" `Quick test_gc;
          Alcotest.test_case "warm load keeps kernels and counts coverage"
            `Quick test_warm_load_coverage;
        ] );
      ( "corruption",
        [ test_truncation; test_bit_flips; test_section_flips_detected ] );
    ]
