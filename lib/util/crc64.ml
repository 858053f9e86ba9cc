(* CRC-64/XZ with the 64-bit register split into two 32-bit halves so
   the whole computation runs in unboxed native ints (OCaml ints are 63
   bits — one bit short).  A right-shift-by-8 of the register moves the
   low byte of [hi] into the top byte of [lo]; everything else is table
   lookups and xors. *)

type t = { hi : int; lo : int }

let mask32 = 0xFFFFFFFF

(* Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693. *)
let poly_hi = 0xC96C5795
let poly_lo = 0xD7870F42

(* Base byte table: t0_hi/t0_lo.(b) is the CRC register after absorbing
   byte [b] into a zero register. *)
let t0_hi = Array.make 256 0
let t0_lo = Array.make 256 0

(* Slicing-by-8: t_hi/t_lo.(k * 256 + b) is the base entry for [b]
   shifted right by [k] further bytes (k = 0 is the base table).  One
   flat array per half keeps the eight tables on adjacent cache lines. *)
let t_hi = Array.make (8 * 256) 0
let t_lo = Array.make (8 * 256) 0

let () =
  for b = 0 to 255 do
    let hi = ref 0 and lo = ref b in
    for _ = 1 to 8 do
      let odd = !lo land 1 = 1 in
      lo := (!lo lsr 1) lor ((!hi land 1) lsl 31);
      hi := !hi lsr 1;
      if odd then begin
        hi := !hi lxor poly_hi;
        lo := !lo lxor poly_lo
      end
    done;
    t0_hi.(b) <- !hi;
    t0_lo.(b) <- !lo;
    t_hi.(b) <- !hi;
    t_lo.(b) <- !lo
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let hi = t_hi.(((k - 1) * 256) + b) and lo = t_lo.(((k - 1) * 256) + b) in
      let idx = lo land 0xff in
      let lo' = (lo lsr 8) lor ((hi land 0xff) lsl 24) in
      let hi' = hi lsr 8 in
      t_hi.((k * 256) + b) <- hi' lxor t0_hi.(idx);
      t_lo.((k * 256) + b) <- lo' lxor t0_lo.(idx)
    done
  done

let init = { hi = mask32; lo = mask32 }

let[@inline] feed_byte hi lo byte =
  let idx = (lo lxor byte) land 0xff in
  let lo' = (lo lsr 8) lor ((hi land 0xff) lsl 24) in
  let hi' = hi lsr 8 in
  (hi' lxor Array.unsafe_get t0_hi idx, lo' lxor Array.unsafe_get t0_lo idx)

let feed_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc64.feed_bytes: range out of bounds";
  let hi = ref t.hi and lo = ref t.lo in
  for i = pos to pos + len - 1 do
    let h, l = feed_byte !hi !lo (Char.code (Bytes.unsafe_get b i)) in
    hi := h;
    lo := l
  done;
  { hi = !hi; lo = !lo }

let feed_string t s =
  feed_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* One slicing-by-8 round: absorb the eight little-endian bytes of
   [w]'s 63-bit value in a single table pass. *)
let[@inline] word_round hi lo w =
  let x_lo = lo lxor (w land mask32) in
  let x_hi = hi lxor (w lsr 32) in
  let i7 = x_lo land 0xff
  and i6 = (x_lo lsr 8) land 0xff
  and i5 = (x_lo lsr 16) land 0xff
  and i4 = (x_lo lsr 24) land 0xff
  and i3 = x_hi land 0xff
  and i2 = (x_hi lsr 8) land 0xff
  and i1 = (x_hi lsr 16) land 0xff
  and i0 = (x_hi lsr 24) land 0xff in
  let hi' =
    Array.unsafe_get t_hi (0x700 + i7)
    lxor Array.unsafe_get t_hi (0x600 + i6)
    lxor Array.unsafe_get t_hi (0x500 + i5)
    lxor Array.unsafe_get t_hi (0x400 + i4)
    lxor Array.unsafe_get t_hi (0x300 + i3)
    lxor Array.unsafe_get t_hi (0x200 + i2)
    lxor Array.unsafe_get t_hi (0x100 + i1)
    lxor Array.unsafe_get t_hi i0
  and lo' =
    Array.unsafe_get t_lo (0x700 + i7)
    lxor Array.unsafe_get t_lo (0x600 + i6)
    lxor Array.unsafe_get t_lo (0x500 + i5)
    lxor Array.unsafe_get t_lo (0x400 + i4)
    lxor Array.unsafe_get t_lo (0x300 + i3)
    lxor Array.unsafe_get t_lo (0x200 + i2)
    lxor Array.unsafe_get t_lo (0x100 + i1)
    lxor Array.unsafe_get t_lo i0
  in
  (hi', lo')

let feed_word t w =
  let hi, lo = word_round t.hi t.lo w in
  { hi; lo }

let feed_ivec t (v : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim v then
    invalid_arg "Crc64.feed_ivec: range out of bounds";
  (* [word_round] unrolled by hand: returning a tuple per element would
     allocate on the non-flambda compiler and halve throughput on the
     warm-load verification path. *)
  let hi = ref t.hi and lo = ref t.lo in
  for i = pos to pos + len - 1 do
    (* No masking: [lsr]/[land mask32] below already read the 63-bit
       pattern with bit 63 as zero.  Masking with [max_int] here would
       clear the {e sign} bit (bit 62) and blind the checksum to the
       one corruption that flips a stored value's sign. *)
    let w = Bigarray.Array1.unsafe_get v i in
    let x_lo = !lo lxor (w land mask32) in
    let x_hi = !hi lxor (w lsr 32) in
    let i7 = x_lo land 0xff
    and i6 = (x_lo lsr 8) land 0xff
    and i5 = (x_lo lsr 16) land 0xff
    and i4 = (x_lo lsr 24) land 0xff
    and i3 = x_hi land 0xff
    and i2 = (x_hi lsr 8) land 0xff
    and i1 = (x_hi lsr 16) land 0xff
    and i0 = (x_hi lsr 24) land 0xff in
    hi :=
      Array.unsafe_get t_hi (0x700 + i7)
      lxor Array.unsafe_get t_hi (0x600 + i6)
      lxor Array.unsafe_get t_hi (0x500 + i5)
      lxor Array.unsafe_get t_hi (0x400 + i4)
      lxor Array.unsafe_get t_hi (0x300 + i3)
      lxor Array.unsafe_get t_hi (0x200 + i2)
      lxor Array.unsafe_get t_hi (0x100 + i1)
      lxor Array.unsafe_get t_hi i0;
    lo :=
      Array.unsafe_get t_lo (0x700 + i7)
      lxor Array.unsafe_get t_lo (0x600 + i6)
      lxor Array.unsafe_get t_lo (0x500 + i5)
      lxor Array.unsafe_get t_lo (0x400 + i4)
      lxor Array.unsafe_get t_lo (0x300 + i3)
      lxor Array.unsafe_get t_lo (0x200 + i2)
      lxor Array.unsafe_get t_lo (0x100 + i1)
      lxor Array.unsafe_get t_lo i0
  done;
  { hi = !hi; lo = !lo }

let feed_i32vec t
    (v : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim v then
    invalid_arg "Crc64.feed_i32vec: range out of bounds";
  (* Two elements are the eight little-endian bytes of one
     slicing-by-8 round, unrolled by hand as in [feed_ivec]. *)
  let hi = ref t.hi and lo = ref t.lo in
  let i = ref pos in
  while !i + 1 < pos + len do
    let x_lo =
      !lo lxor (Int32.to_int (Bigarray.Array1.unsafe_get v !i) land mask32)
    and x_hi =
      !hi lxor (Int32.to_int (Bigarray.Array1.unsafe_get v (!i + 1)) land mask32)
    in
    let i7 = x_lo land 0xff
    and i6 = (x_lo lsr 8) land 0xff
    and i5 = (x_lo lsr 16) land 0xff
    and i4 = (x_lo lsr 24) land 0xff
    and i3 = x_hi land 0xff
    and i2 = (x_hi lsr 8) land 0xff
    and i1 = (x_hi lsr 16) land 0xff
    and i0 = (x_hi lsr 24) land 0xff in
    hi :=
      Array.unsafe_get t_hi (0x700 + i7)
      lxor Array.unsafe_get t_hi (0x600 + i6)
      lxor Array.unsafe_get t_hi (0x500 + i5)
      lxor Array.unsafe_get t_hi (0x400 + i4)
      lxor Array.unsafe_get t_hi (0x300 + i3)
      lxor Array.unsafe_get t_hi (0x200 + i2)
      lxor Array.unsafe_get t_hi (0x100 + i1)
      lxor Array.unsafe_get t_hi i0;
    lo :=
      Array.unsafe_get t_lo (0x700 + i7)
      lxor Array.unsafe_get t_lo (0x600 + i6)
      lxor Array.unsafe_get t_lo (0x500 + i5)
      lxor Array.unsafe_get t_lo (0x400 + i4)
      lxor Array.unsafe_get t_lo (0x300 + i3)
      lxor Array.unsafe_get t_lo (0x200 + i2)
      lxor Array.unsafe_get t_lo (0x100 + i1)
      lxor Array.unsafe_get t_lo i0;
    i := !i + 2
  done;
  let t = { hi = !hi; lo = !lo } in
  if !i < pos + len then begin
    (* An odd count leaves one element: four bytes, byte by byte. *)
    let tail = Bytes.create 4 in
    Bytes.set_int32_le tail 0 (Bigarray.Array1.unsafe_get v !i);
    feed_bytes t tail ~pos:0 ~len:4
  end
  else t

let digest t = (t.hi lxor mask32, t.lo lxor mask32)
let to_hex (hi, lo) = Printf.sprintf "%08x%08x" (hi land mask32) (lo land mask32)
let equal (ahi, alo) (bhi, blo) = ahi = bhi && alo = blo
