module Crc64 = Tcmm_util.Crc64
module Packed = Tcmm_threshold.Packed
module Kernel = Tcmm_threshold.Kernel
module Stats = Tcmm_threshold.Stats
module Encode = Tcmm.Encode
module Repr = Tcmm_arith.Repr

(* v3: wire ids are int32 sections, edges carry no weight of their own,
   and the kernel section is a table of distinct specs plus a
   per-segment index. *)
let format_version = 3
let magic = "TCMMART1"
let page = 4096
let page_words = page / 8

type io =
  | Matmul_io of {
      layout_a : Encode.t;
      layout_b : Encode.t;
      c_grid : Repr.signed_bits array array;
    }
  | Trace_io of { layout : Encode.t; output : Tcmm_threshold.Wire.t; tau : int }

type section = {
  s_name : string;
  s_off : int;
  s_len : int;
  s_width : int;
  s_crc : int * int;
}

type header = {
  h_format : int;
  h_kernel_rev : int;
  h_key : string;
  h_templates : bool;
  h_kernels : bool;
  h_created : float;
  h_build_seconds : float;
  h_num_inputs : int;
  h_num_gates : int;
  h_levels : int;
  h_segments : int;
  h_groups : int;
  h_edges : int;
  h_kern_specs : int;
  h_stats : Stats.t;
  h_io : io;
  h_sections : section list;
}

type t = {
  a_packed : Packed.t;
  a_io : io;
  a_header : header;
  a_path : string;
  a_bytes : int;
  a_kern_recompiled : bool;
}

type meta = {
  m_key : string;
  m_templates : bool;
  m_kernels : bool;
  m_build_seconds : float;
  m_stats : Stats.t;
  m_io : io;
}

(* ------------------------------------------------------------------ *)
(* Header codec                                                       *)
(* ------------------------------------------------------------------ *)

let layout_codec : Encode.t Codec.t =
  Codec.view
    ~inject:(fun (l : Encode.t) ->
      ((l.Encode.rows, l.Encode.cols, l.Encode.entry_bits), (l.Encode.signed, l.Encode.base)))
    ~extract:(fun ((rows, cols, entry_bits), (signed, base)) ->
      match Encode.restore ~rows ~cols ~entry_bits ~signed ~base with
      | l -> l
      | exception Invalid_argument m -> raise (Codec.Error m))
    Codec.(pair (triple int int int) (pair bool int))

let sbits_codec : Repr.signed_bits Codec.t =
  Codec.view
    ~inject:(fun (s : Repr.signed_bits) -> (s.Repr.pos_bits, s.Repr.neg_bits))
    ~extract:(fun (pos_bits, neg_bits) -> { Repr.pos_bits; neg_bits })
    Codec.(pair int_array int_array)

let io_codec : io Codec.t =
  Codec.view
    ~inject:(function
      | Matmul_io { layout_a; layout_b; c_grid } ->
          (0, ((Some (layout_a, layout_b, c_grid) : _ option), (None : _ option)))
      | Trace_io { layout; output; tau } ->
          (1, (None, Some (layout, output, tau))))
    ~extract:(function
      | 0, (Some (layout_a, layout_b, c_grid), None) ->
          Matmul_io { layout_a; layout_b; c_grid }
      | 1, (None, Some (layout, output, tau)) -> Trace_io { layout; output; tau }
      | _ -> raise (Codec.Error "invalid io descriptor"))
    Codec.(
      pair int
        (pair
           (option (triple layout_codec layout_codec (array (array sbits_codec))))
           (option (triple layout_codec int int))))

let stats_codec : Stats.t Codec.t =
  Codec.view
    ~inject:(fun (s : Stats.t) ->
      ( (s.Stats.inputs, s.Stats.outputs, s.Stats.gates),
        (s.Stats.edges, s.Stats.depth, s.Stats.max_fan_in),
        (s.Stats.max_abs_weight, s.Stats.gates_by_depth) ))
    ~extract:(fun
        ( (inputs, outputs, gates),
          (edges, depth, max_fan_in),
          (max_abs_weight, gates_by_depth) )
      ->
      {
        Stats.inputs;
        outputs;
        gates;
        edges;
        depth;
        max_fan_in;
        max_abs_weight;
        gates_by_depth;
      })
    Codec.(
      triple (triple int int int) (triple int int int) (pair int int_array))

let section_codec : section Codec.t =
  Codec.view
    ~inject:(fun s -> ((s.s_name, s.s_off, s.s_len), (s.s_width, s.s_crc)))
    ~extract:(fun ((s_name, s_off, s_len), (s_width, s_crc)) ->
      { s_name; s_off; s_len; s_width; s_crc })
    Codec.(pair (triple string int int) (pair int (pair int int)))

let header_codec : header Codec.t =
  Codec.view
    ~inject:(fun h ->
      ( ( (h.h_format, h.h_kernel_rev, h.h_key),
          (h.h_templates, h.h_kernels),
          (h.h_created, h.h_build_seconds) ),
        ( (h.h_num_inputs, h.h_num_gates, h.h_levels),
          ((h.h_segments, h.h_groups, h.h_edges), h.h_kern_specs) ),
        (h.h_stats, h.h_io, h.h_sections) ))
    ~extract:(fun
        ( ( (h_format, h_kernel_rev, h_key),
            (h_templates, h_kernels),
            (h_created, h_build_seconds) ),
          ( (h_num_inputs, h_num_gates, h_levels),
            ((h_segments, h_groups, h_edges), h_kern_specs) ),
          (h_stats, h_io, h_sections) )
      ->
      {
        h_format;
        h_kernel_rev;
        h_key;
        h_templates;
        h_kernels;
        h_created;
        h_build_seconds;
        h_num_inputs;
        h_num_gates;
        h_levels;
        h_segments;
        h_groups;
        h_edges;
        h_kern_specs;
        h_stats;
        h_io;
        h_sections;
      })
    Codec.(
      triple
        (triple (triple int int string) (pair bool bool) (pair float float))
        (pair (triple int int int) (pair (triple int int int) int))
        (triple stats_codec io_codec (list section_codec)))

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

(* A section's in-memory source: an int32 vector (4-byte elements), or
   an off-heap vector or OCaml int array (8-byte words). *)
type src = I32 of Packed.i32vec | Vec of Packed.ivec | Arr of int array

let width_of = function I32 _ -> 4 | Vec _ | Arr _ -> 8
let round_up_words w = (w + page_words - 1) / page_words * page_words

let sections_of (s : Packed.sections) =
  let nsegs = Array.length s.Packed.sec_seg_off in
  let ngroups = Array.length s.Packed.sec_grp_weight in
  let nedges = s.Packed.sec_grp_off.(ngroups) in
  let ng = s.Packed.sec_num_gates in
  [
    ("pool_wires", nedges, I32 s.Packed.sec_pool_wires);
    ("g_threshold", ng, Vec s.Packed.sec_g_threshold);
    ("g_wire", ng, I32 s.Packed.sec_g_wire);
    ("seg_off", nsegs, Arr s.Packed.sec_seg_off);
    ("seg_fan", nsegs, Arr s.Packed.sec_seg_fan);
    ("seg_gates", nsegs + 1, Arr s.Packed.sec_seg_gates);
    ("seg_grp", nsegs + 1, Arr s.Packed.sec_seg_grp);
    ("grp_off", ngroups + 1, Arr s.Packed.sec_grp_off);
    ("grp_weight", ngroups, Arr s.Packed.sec_grp_weight);
    ("level_segs", Array.length s.Packed.sec_level_segs, Arr s.Packed.sec_level_segs);
    ("outputs", Array.length s.Packed.sec_outputs, Arr s.Packed.sec_outputs);
    ("kern_table", Array.length s.Packed.sec_kern_table, Arr s.Packed.sec_kern_table);
    ("kern_index", Array.length s.Packed.sec_kern_index, Arr s.Packed.sec_kern_index);
  ]

let crc_string s = Crc64.digest (Crc64.feed_string Crc64.init s)

let pack_crc (hi, lo) =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let unpack_crc c =
  ( Int64.to_int (Int64.shift_right_logical c 32),
    Int64.to_int (Int64.logand c 0xFFFFFFFFL) )

(* A section's elements, mapped at its page-aligned offset. *)
let map_section fd ~shared kind s =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int (s.s_off * 8)) kind Bigarray.c_layout
       shared [| s.s_len |])

(* Copy a source into its mapped section and checksum the bytes as
   they now sit in the file — the same bytes a reader verifies. *)
let write_section fd s src =
  let crc feed m = Crc64.digest (feed Crc64.init m ~pos:0 ~len:s.s_len) in
  if s.s_len = 0 then Crc64.digest Crc64.init
  else
    match src with
    | I32 v ->
        let m = map_section fd ~shared:true Bigarray.int32 s in
        Bigarray.Array1.blit (Bigarray.Array1.sub v 0 s.s_len) m;
        crc Crc64.feed_i32vec m
    | Vec v ->
        let m = map_section fd ~shared:true Bigarray.int s in
        Bigarray.Array1.blit (Bigarray.Array1.sub v 0 s.s_len) m;
        crc Crc64.feed_ivec m
    | Arr a ->
        let m = map_section fd ~shared:true Bigarray.int s in
        for i = 0 to s.s_len - 1 do
          Bigarray.Array1.unsafe_set m i a.(i)
        done;
        crc Crc64.feed_ivec m

let write ~path meta packed =
  match
    let secs = Packed.save packed in
    let srcs = sections_of secs in
    let ngroups = Array.length secs.Packed.sec_grp_weight in
    (* Header size does not depend on the values inside it (the codec's
       ints are fixed-width), so encode once with placeholder offsets
       to learn where the payload starts, then re-encode for real. *)
    let mk_header placed =
      {
        h_format = format_version;
        h_kernel_rev = Kernel.format_rev;
        h_key = meta.m_key;
        h_templates = meta.m_templates;
        h_kernels = meta.m_kernels;
        h_created = Unix.time ();
        h_build_seconds = meta.m_build_seconds;
        h_num_inputs = secs.Packed.sec_num_inputs;
        h_num_gates = secs.Packed.sec_num_gates;
        h_levels = secs.Packed.sec_levels;
        h_segments = Array.length secs.Packed.sec_seg_off;
        h_groups = ngroups;
        h_edges = secs.Packed.sec_grp_off.(ngroups);
        h_kern_specs = Array.fold_left max (-1) secs.Packed.sec_kern_index + 1;
        h_stats = meta.m_stats;
        h_io = meta.m_io;
        h_sections = placed;
      }
    in
    let sized =
      List.map
        (fun (s_name, len, src) ->
          { s_name; s_off = 0; s_len = len; s_width = width_of src; s_crc = (0, 0) })
        srcs
    in
    let hlen = String.length (Codec.encode header_codec (mk_header sized)) in
    let cursor = ref (round_up_words ((8 + 8 + hlen + 8 + 7) / 8)) in
    let laid_out =
      List.map
        (fun s ->
          let s = { s with s_off = !cursor } in
          cursor := round_up_words (!cursor + (((s.s_len * s.s_width) + 7) / 8));
          s)
        sized
    in
    let total_words = !cursor in
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd (total_words * 8);
        let placed =
          List.map2
            (fun s (_, _, src) -> { s with s_crc = write_section fd s src })
            laid_out srcs
        in
        let hdr = Codec.encode header_codec (mk_header placed) in
        assert (String.length hdr = hlen);
        let head = Buffer.create (page :> int) in
        Buffer.add_string head magic;
        Buffer.add_int64_le head (Int64.of_int hlen);
        Buffer.add_string head hdr;
        Buffer.add_int64_le head (pack_crc (crc_string hdr));
        let hb = Buffer.to_bytes head in
        let n = Unix.write fd hb 0 (Bytes.length hb) in
        if n <> Bytes.length hb then failwith "short header write";
        Unix.fsync fd;
        total_words * 8)
  with
  | bytes -> Ok bytes
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let read_exact fd buf pos len =
  let got = ref 0 in
  while !got < len do
    let n = Unix.read fd buf (pos + !got) (len - !got) in
    if n = 0 then bad "truncated file (wanted %d more header bytes)" (len - !got);
    got := !got + n
  done

(* Read and authenticate the header; returns it with the file size. *)
let header_of_fd fd =
  let size = (Unix.fstat fd).Unix.st_size in
  if size < 24 then bad "file too small (%d bytes)" size;
  let fixed = Bytes.create 16 in
  read_exact fd fixed 0 16;
  if Bytes.sub_string fixed 0 8 <> magic then bad "bad magic";
  let hlen = Int64.to_int (Bytes.get_int64_le fixed 8) in
  if hlen < 0 || hlen > size - 24 then bad "implausible header length %d" hlen;
  let rest = Bytes.create (hlen + 8) in
  read_exact fd rest 0 (hlen + 8);
  let hdr = Bytes.sub_string rest 0 hlen in
  let stored = unpack_crc (Bytes.get_int64_le rest hlen) in
  if not (Crc64.equal stored (crc_string hdr)) then bad "header checksum mismatch";
  let h =
    match Codec.decode header_codec hdr with
    | h -> h
    | exception Codec.Error m -> bad "header decode: %s" m
  in
  if h.h_format <> format_version then
    bad "stale format version %d (current %d)" h.h_format format_version;
  (h, size)

let read_header ~path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> header_of_fd fd)
  with
  | r -> Ok r
  | exception Bad m -> Error m
  | exception e -> Error (Printexc.to_string e)

let find_section h name ~width =
  match List.find_opt (fun s -> s.s_name = name) h.h_sections with
  | None -> bad "missing section %S" name
  | Some s when s.s_width <> width ->
      bad "section %S has element width %d, expected %d" name s.s_width width
  | Some s -> s

let read ?(kernels = true) ?key ~path () =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let h, size = header_of_fd fd in
        (match key with
        | Some k when k <> h.h_key ->
            bad "spec key mismatch: artifact is for %S, wanted %S" h.h_key k
        | _ -> ());
        List.iter
          (fun s ->
            if s.s_width <> 4 && s.s_width <> 8 then
              bad "section %S has element width %d" s.s_name s.s_width;
            if
              s.s_off < 0 || s.s_len < 0
              || s.s_len > size / s.s_width
              || s.s_off > (size - (s.s_len * s.s_width)) / 8
            then bad "section %S out of bounds (truncated file?)" s.s_name)
          h.h_sections;
        (* Map one section and checksum it through the mapping; returns
           its length and elements.  The evaluators index padded
           vectors, so an empty section still needs one backing
           element. *)
        let mapped kind feed ~width name =
          let s = find_section h name ~width in
          let m =
            if s.s_len > 0 then map_section fd ~shared:false kind s
            else Bigarray.Array1.create kind Bigarray.c_layout 1
          in
          if not (Crc64.equal s.s_crc (Crc64.digest (feed Crc64.init m ~pos:0 ~len:s.s_len)))
          then bad "section %S checksum mismatch" s.s_name;
          (s.s_len, m)
        in
        let i32 name = snd (mapped Bigarray.int32 Crc64.feed_i32vec ~width:4 name) in
        let vec name = snd (mapped Bigarray.int Crc64.feed_ivec ~width:8 name) in
        let arr name =
          let len, v = mapped Bigarray.int Crc64.feed_ivec ~width:8 name in
          Array.init len (Bigarray.Array1.get v)
        in
        let kern_recompiled = h.h_kernel_rev <> Kernel.format_rev in
        let sections =
          {
            Packed.sec_num_inputs = h.h_num_inputs;
            sec_num_gates = h.h_num_gates;
            sec_levels = h.h_levels;
            sec_pool_wires = i32 "pool_wires";
            sec_g_threshold = vec "g_threshold";
            sec_g_wire = i32 "g_wire";
            sec_seg_off = arr "seg_off";
            sec_seg_fan = arr "seg_fan";
            sec_seg_gates = arr "seg_gates";
            sec_seg_grp = arr "seg_grp";
            sec_grp_off = arr "grp_off";
            sec_grp_weight = arr "grp_weight";
            sec_level_segs = arr "level_segs";
            sec_outputs = arr "outputs";
            sec_kern_table = arr "kern_table";
            sec_kern_index = arr "kern_index";
          }
        in
        match
          Packed.load ~kernels ~recompile:(kernels && kern_recompiled) sections
        with
        | Error m -> bad "invalid packed sections: %s" m
        | Ok packed ->
            {
              a_packed = packed;
              a_io = h.h_io;
              a_header = h;
              a_path = path;
              a_bytes = size;
              a_kern_recompiled = kern_recompiled && kernels;
            })
  with
  | a -> Ok a
  | exception Bad m -> Error m
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Inspection                                                         *)
(* ------------------------------------------------------------------ *)

let pp_header ppf h =
  let open Format in
  fprintf ppf "@[<v>format:        v%d (kernel rev %d%s)@," h.h_format h.h_kernel_rev
    (if h.h_kernel_rev = Kernel.format_rev then "" else ", stale: loads recompile kernels");
  fprintf ppf "key:           %s@," h.h_key;
  fprintf ppf "flags:         templates=%b kernels=%b@," h.h_templates h.h_kernels;
  let tm = Unix.gmtime h.h_created in
  fprintf ppf "created:       %04d-%02d-%02dT%02d:%02d:%02dZ (build took %.3fs)@,"
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec h.h_build_seconds;
  fprintf ppf "circuit:       %d inputs, %d gates, %d levels, %d segments, %d groups, %d edges@,"
    h.h_num_inputs h.h_num_gates h.h_levels h.h_segments h.h_groups h.h_edges;
  fprintf ppf "kernel table:  %d distinct specs for %d segments@," h.h_kern_specs
    h.h_segments;
  fprintf ppf "stats:         %a@," Stats.pp h.h_stats;
  (match h.h_io with
  | Matmul_io { layout_a; _ } ->
      fprintf ppf "io:            matmul %dx%d, %d entry bits, signed=%b@,"
        layout_a.Encode.rows layout_a.Encode.cols layout_a.Encode.entry_bits
        layout_a.Encode.signed
  | Trace_io { layout; output; tau } ->
      fprintf ppf "io:            trace %dx%d, %d entry bits, output wire %d, tau %d@,"
        layout.Encode.rows layout.Encode.cols layout.Encode.entry_bits output tau);
  fprintf ppf "sections:@,";
  List.iter
    (fun s ->
      fprintf ppf "  %-14s off %10d  %-5s x %10d  crc %s@," s.s_name s.s_off
        (if s.s_width = 4 then "int32" else "int")
        s.s_len (Crc64.to_hex s.s_crc))
    h.h_sections;
  fprintf ppf "@]"
