(** CRC-64 checksums (the "XZ" parameterization: polynomial
    [0x42F0E1EBA9EA3693] reflected, init/xorout all-ones) for the
    artifact store's header and payload integrity checks.

    Three feeding granularities are provided: byte streams (for
    headers, exact CRC-64/XZ over the bytes), {i word} streams, where
    each 63-bit int contributes its eight little-endian bytes (bit 63
    reads as zero), and int32 streams, where each element contributes
    its four little-endian bytes.  All three run in C: folding with a
    carry-less multiply where the CPU has one (x86-64 [PCLMULQDQ],
    several GB/s, about memory speed), slicing-by-8 tables elsewhere
    and for inputs under 64 bytes.  The path is picked at start-up from
    the CPU and never by a setting, and both give the same values, so
    whole-payload verification stays cheap on the circuit warm-load
    path. *)

type t
(** A running digest. *)

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
(** {!feed_word} over [len] consecutive elements starting at [pos].
    Raises [Invalid_argument] on an out-of-bounds range. *)

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
