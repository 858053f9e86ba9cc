(** One compiled-circuit artifact file: self-describing header + the
    packed CSR sections as page-aligned flat arrays.

    {b Layout} (format v3).  A file is [magic "TCMMART1"], a u64 header
    length, the {!Codec}-encoded {!header}, a CRC-64 of those header
    bytes, zero padding to a 4 KiB boundary, then each section's
    elements at a page-aligned offset recorded in the header's section
    table, zero-padded to the next page.  Wire ids ([pool_wires],
    [g_wire]) are int32 sections; everything else is 8-byte words.
    Edges carry no weight of their own (an edge's weight is its
    group's), and the kernel dispatch is a table of the distinct encoded
    specs ([kern_table]) plus a per-segment index into it
    ([kern_index]).  The header carries
    everything needed to interpret the payload — format/kernel
    revisions, the spec key, builder flags, structural counts, circuit
    stats, the I/O descriptor, and per-section [(offset, length, element
    width, CRC-64)] — so a load is: read + checksum + decode the header,
    one [Unix.map_file] per section (int32 sections as int32
    Bigarrays), checksum each section through its mapping, and adopt
    the big vectors by aliasing ({!Tcmm_threshold.Packed.load}
    re-validates structure and decodes each distinct kernel spec once).
    No per-gate deserialization happens anywhere.  There is no reader
    for older formats: they are refused as stale.

    {b Checksums.}  The header CRC is over its exact bytes.  Section
    CRCs are over every content byte: the four little-endian bytes of
    each int32 element, or the eight of each word — an OCaml int's
    63-bit value with bit 63 as zero, which is precisely what an
    [int]-kind Bigarray view of the file yields, so verification streams
    straight out of the mapping.  (A flip of a stored word's bit 63 is
    the one undetectable corruption, and it is also value-neutral: the
    loaded int is unchanged.)

    {b Atomicity} (temp file + rename) and quarantine policy live in
    {!Store}; this module reads and writes single paths. *)

type io =
  | Matmul_io of {
      layout_a : Tcmm.Encode.t;
      layout_b : Tcmm.Encode.t;
      c_grid : Tcmm_arith.Repr.signed_bits array array;
    }
  | Trace_io of {
      layout : Tcmm.Encode.t;
      output : Tcmm_threshold.Wire.t;
      tau : int;
    }
      (** How to feed and read the circuit — what the serving layer
          needs to answer requests without the original driver value
          (layouts are rebuilt via {!Tcmm.Encode.restore}). *)

type section = {
  s_name : string;
  s_off : int;  (** offset from the start of the file, in 8-byte words *)
  s_len : int;  (** length in elements *)
  s_width : int;  (** bytes per element: 4 (int32) or 8 (word) *)
  s_crc : int * int;
}

type header = {
  h_format : int;
  h_kernel_rev : int;  (** {!Tcmm_threshold.Kernel.format_rev} at write time *)
  h_key : string;  (** spec key the artifact was compiled for *)
  h_templates : bool;  (** builder flags used for the compile *)
  h_kernels : bool;
  h_created : float;  (** unix time of the write *)
  h_build_seconds : float;  (** what the original build cost *)
  h_num_inputs : int;
  h_num_gates : int;
  h_levels : int;
  h_segments : int;
  h_groups : int;
  h_edges : int;
  h_kern_specs : int;  (** distinct kernel specs in [kern_table] *)
  h_stats : Tcmm_threshold.Stats.t;
  h_io : io;
  h_sections : section list;
}

type t = {
  a_packed : Tcmm_threshold.Packed.t;
  a_io : io;
  a_header : header;
  a_path : string;
  a_bytes : int;  (** file size *)
  a_kern_recompiled : bool;
      (** the artifact predated {!Tcmm_threshold.Kernel.format_rev} and
          kernels were recompiled from the CSR pools *)
}

val format_version : int

type meta = {
  m_key : string;
  m_templates : bool;
  m_kernels : bool;
  m_build_seconds : float;
  m_stats : Tcmm_threshold.Stats.t;
  m_io : io;
}

val write :
  path:string -> meta -> Tcmm_threshold.Packed.t -> (int, string) result
(** Write one artifact file at [path] (clobbering it), returning its
    size in bytes.  Not atomic on its own — {!Store.save} writes to a
    temp path and renames. *)

val read :
  ?kernels:bool -> ?key:string -> path:string -> unit -> (t, string) result
(** Load and fully verify an artifact: magic, header CRC + decode,
    format version, [key] match when given, section bounds and widths,
    every section CRC, then {!Tcmm_threshold.Packed.load}.  [Error] is a
    human-readable reason; the file is untouched either way. *)

val read_header : path:string -> (header * int, string) result
(** Header and file size only — no mapping, no payload verification.
    What [tcmm artifacts list] runs per file. *)

val pp_header : Format.formatter -> header -> unit
(** Human-readable dump ([tcmm artifacts inspect]). *)
