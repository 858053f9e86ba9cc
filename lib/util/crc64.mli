(** CRC-64 checksums (the "XZ" parameterization: polynomial
    [0x42F0E1EBA9EA3693] reflected, init/xorout all-ones) for the
    artifact store's header and payload integrity checks.

    OCaml's native [int] is 63 bits wide, so a digest is carried as two
    32-bit halves packed in ordinary ints — every operation stays
    unboxed.  Three feeding granularities are provided: byte streams
    (for headers, exact CRC-64/XZ over the bytes), {i word} streams,
    where each 63-bit int contributes its eight little-endian bytes (bit
    63 reads as zero), and int32 streams, where each element contributes
    its four little-endian bytes.  The vector paths run slicing-by-8 —
    one table round per eight bytes instead of per byte — which is what
    makes whole-payload verification cheap enough to sit on the circuit
    warm-load path. *)

type t = private { hi : int; lo : int }
(** A running digest; [hi]/[lo] are the high/low 32 bits. *)

val init : t
(** The empty-message running state. *)

val feed_string : t -> string -> t
(** Byte-wise update over a whole string. *)

val feed_bytes : t -> Bytes.t -> pos:int -> len:int -> t
(** Byte-wise update over [len] bytes of [b] starting at [pos].
    Raises [Invalid_argument] on an out-of-bounds range. *)

val feed_word : t -> int -> t
(** Update with the eight little-endian bytes of [w]'s 63-bit value
    (bit 63 is fed as zero).  Equal to {!feed_bytes} over those bytes —
    the test suite checks the equivalence exhaustively. *)

val feed_ivec :
  t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  pos:int ->
  len:int ->
  t
(** {!feed_word} over [len] consecutive elements starting at [pos],
    with the table lookups inlined into one tight loop.  Raises
    [Invalid_argument] on an out-of-bounds range. *)

val feed_i32vec :
  t ->
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  pos:int ->
  len:int ->
  t
(** Update with the four little-endian bytes of each of [len]
    consecutive elements starting at [pos] — equal to {!feed_bytes} over
    those [4 * len] bytes, all 32 bits of every element included.
    Raises [Invalid_argument] on an out-of-bounds range. *)

val digest : t -> int * int
(** Finalize: the [(hi, lo)] 32-bit halves of the checksum. *)

val to_hex : int * int -> string
(** 16-digit lowercase hex of a finalized digest. *)

val equal : int * int -> int * int -> bool
