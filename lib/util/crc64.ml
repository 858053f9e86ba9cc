(* CRC-64/XZ in C (crc64_stubs.c): carry-less-multiply folding where
   the CPU has it, slicing-by-8 elsewhere.  [t] is the raw 64-bit
   register before the final xorout; it crosses into C unboxed. *)

type t = int64

external init_tables : unit -> unit = "tcmm_crc64_init" [@@noalloc]

let () = init_tables ()

external bytes_stub :
  (int64[@unboxed]) ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int64[@unboxed]) = "tcmm_crc64_bytes_byte" "tcmm_crc64_bytes"
[@@noalloc]

external ivec_stub :
  (int64[@unboxed]) ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int64[@unboxed]) = "tcmm_crc64_ivec_byte" "tcmm_crc64_ivec"
[@@noalloc]

external i32vec_stub :
  (int64[@unboxed]) ->
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int64[@unboxed]) = "tcmm_crc64_i32vec_byte" "tcmm_crc64_i32vec"
[@@noalloc]

let init = -1L

(* Written so that no [pos + len] can overflow past the check. *)
let check_range name ~pos ~len dim =
  if pos < 0 || len < 0 || pos > dim - len then
    invalid_arg (Printf.sprintf "Crc64.%s: range out of bounds" name)

let feed_bytes t b ~pos ~len =
  check_range "feed_bytes" ~pos ~len (Bytes.length b);
  bytes_stub t b pos len

let feed_string t s =
  feed_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let feed_word t w =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.logand (Int64.of_int w) Int64.max_int);
  bytes_stub t b 0 8

let feed_ivec t v ~pos ~len =
  check_range "feed_ivec" ~pos ~len (Bigarray.Array1.dim v);
  ivec_stub t v pos len

let feed_i32vec t v ~pos ~len =
  check_range "feed_i32vec" ~pos ~len (Bigarray.Array1.dim v);
  i32vec_stub t v pos len

let mask32 = 0xFFFFFFFF

let digest t =
  let d = Int64.lognot t in
  (Int64.to_int (Int64.shift_right_logical d 32), Int64.to_int d land mask32)

let to_hex (hi, lo) = Printf.sprintf "%08x%08x" (hi land mask32) (lo land mask32)
let equal (ahi, alo) (bhi, blo) = ahi = bhi && alo = blo
