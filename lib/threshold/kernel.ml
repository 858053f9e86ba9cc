(* Template-specialized SWAR evaluation kernels.

   [Packed.of_arena] knows each segment's fan-in, weights and
   thresholds once per *template* (39 templates cover 7,459 instances
   at N=16), so anything derivable from those arrays alone can be
   computed at compile time and replayed per instance.  [compile] bakes
   a segment into one of two specialized forms — a truth table over all
   input combinations for narrow segments, a popcount-vs-constant
   compare for wide single-weight segments — and the batched evaluator
   dispatches per segment, falling back to the generic CSR loop
   ([Generic]) where neither applies.

   Safety of baking thresholds in: [Packed] only admits circuits whose
   segment sums provably fit a native int, so the compile-time subset
   sums of [Tt] are the generic path's sums exactly, in any
   accumulation order; [Pop] is only compiled when |weight| * (fan+1)
   cannot exceed max_int, so the compile-time division is exact and
   the count compare is equivalent to the sum compare. *)

(* ------------------------------------------------------------------ *)
(* Lane packing tables (shared with Packed)                           *)
(* ------------------------------------------------------------------ *)

(* Lanes are packed into the low [word_lanes] bits of a native int (62
   keeps every word nonnegative, so isolated bits stay in 1 lsl 0..61). *)
let word_lanes = 62

(* de Bruijn-style bit indexing: [(b * ctz_mul) lsr 56] is distinct for
   every b = 1 lsl e with e in 0..61 (verified at init), so a single
   multiply maps an isolated bit to a 7-bit hash slot — no division in
   the innermost batched loop.  [ctz_table] decodes a slot back to its
   lane; [lane_slot] is the inverse (lane -> slot), letting per-lane
   accumulators live directly at their hash slots so the accumulate
   loop needs no decode at all. *)
let ctz_mul = 0x540ddf87957338eb
let ctz_slots = 128

let ctz_table, lane_slot =
  let t = Array.make ctz_slots (-1) in
  let inv = Array.make word_lanes 0 in
  for e = 0 to word_lanes - 1 do
    let idx = ((1 lsl e) * ctz_mul) lsr 56 in
    assert (t.(idx) = -1);
    t.(idx) <- e;
    inv.(e) <- idx
  done;
  (t, inv)

(* ------------------------------------------------------------------ *)
(* Kernel specifications                                              *)
(* ------------------------------------------------------------------ *)

(* 2^5 = 32 minterms: a gate's firing set fits one immediate and the
   minterm tree stays within a cache line of scratch. *)
let tt_max_fan = 5

type cmp = Ge | Le

type spec =
  | Generic
  | Tt of { k_fan : int; k_tt : int array }
  | Pop of { k_bits : int; k_cmp : cmp; k_c : int array }
  | Csa of { k_widths : int array; k_mbits : int; k_bth : int array }

(* Smallest b >= 1 with n < 2^b. *)
let bits_for n =
  let b = ref 1 in
  while n lsr !b <> 0 do
    incr b
  done;
  !b

(* ceil(a / b) for b > 0, overflow-free. *)
let cdiv a b =
  let q = a / b and r = a mod b in
  if r > 0 then q + 1 else q

(* floor(a / b), overflow-free (used with b < 0). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r < 0 <> (b < 0) then q - 1 else q

let compile ~fan ~weights ~thresholds =
  let count = Array.length thresholds in
  if fan <= tt_max_fan then begin
    (* Subset-sum DP over all 2^fan edge combinations; mod-2^63 adds in
       any order equal the generic path's running sum. *)
    let width = 1 lsl fan in
    let sums = Array.make width 0 in
    for c = 1 to width - 1 do
      let b = c land -c in
      let i = ctz_table.((b * ctz_mul) lsr 56) in
      sums.(c) <- sums.(c lxor b) + weights.(i)
    done;
    let tt =
      Array.init count (fun j ->
          let th = thresholds.(j) in
          let m = ref 0 in
          for c = 0 to width - 1 do
            if sums.(c) >= th then m := !m lor (1 lsl c)
          done;
          !m)
    in
    Tt { k_fan = fan; k_tt = tt }
  end
  else begin
    let wt = weights.(0) in
    if
      wt <> 0
      && Array.for_all (fun w -> w = wt) weights
      && abs wt <= max_int / (fan + 1)
    then begin
      (* sum = wt * popcount; the no-wrap bound makes both the generic
         sum and the threshold division exact, so comparing the count
         against a precomputed bound is equivalent. *)
      let bits = bits_for fan in
      if wt > 0 then
        (* wt*pc >= th  <=>  pc >= ceil(th / wt); clamp into
           [0, fan+1] (0 = always, fan+1 = never). *)
        let k_c =
          Array.map
            (fun th ->
              if th <= 0 then 0 else min (cdiv th wt) (fan + 1))
            thresholds
        in
        Pop { k_bits = bits; k_cmp = Ge; k_c }
      else
        (* wt*pc >= th  <=>  pc <= floor(th / wt) (dividing by a
           negative flips); clamp into [-1, fan] (-1 = never). *)
        let k_c =
          Array.map
            (fun th -> max (-1) (min (fdiv th wt) fan))
            thresholds
        in
        Pop { k_bits = bits; k_cmp = Le; k_c }
    end
    else begin
      (* Multi-weight wide segment: a fully bit-sliced carry-save
         kernel.  Groups are the maximal runs of equal weight in pool
         order (adjacent groups always differ, so run detection
         reconstructs the packed form's grouping exactly); each group's
         per-lane count is folded bit-sliced ([k_widths] fixes the
         branchless ripple depth) and shift-added into a bit-sliced
         master accumulator — one add per set bit of [|weight|].
         Negative groups fold {i complemented} inputs, counting zeros:
         [wt * ones = wt * len + |wt| * zeros], so the master stays
         nonnegative and each threshold is re-biased at compile time by
         [bias = sum of negative wt * len].  The master's maximum is
         [span = sum |wt| * len]; we require it to fit [word_lanes]
         bit-planes and every partial sum is bounded by it, so no carry
         ever leaves the top plane and the (biased) compare is exact. *)
      let runs = ref [] in
      let run0 = ref 0 in
      for i = 1 to fan do
        if i = fan || weights.(i) <> weights.(!run0) then begin
          runs := (weights.(!run0), i - !run0) :: !runs;
          run0 := i
        end
      done;
      let groups = Array.of_list (List.rev !runs) in
      let span = ref 0 and bias = ref 0 and ok = ref true in
      Array.iter
        (fun (wt, len) ->
          let a = abs wt in
          if a = 0 || a > ((max_int / 2) - !span) / len then ok := false
          else begin
            span := !span + (a * len);
            if wt < 0 then bias := !bias + (wt * len)
          end)
        groups;
      if (not !ok) || bits_for !span > word_lanes then Generic
      else
        let span = !span and bias = !bias in
        let k_bth =
          (* Biased thresholds, clamped into [0, span + 1] without
             overflow: the master never exceeds [span], so anything
             above [span + bias] can never fire and anything at most
             [bias] always does. *)
          Array.map
            (fun th ->
              if th > span + bias then span + 1
              else if th <= bias then 0
              else th - bias)
            thresholds
        in
        Csa
          {
            k_widths = Array.map (fun (_, len) -> bits_for len) groups;
            k_mbits = bits_for span;
            k_bth;
          }
    end
  end

(* ------------------------------------------------------------------ *)
(* Word-level evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* Minterm product tree: after edge i, mt.(c) is the word of active
   lanes whose first i edge inputs spell combination c.  Doubling keeps
   the whole pass at 2^(fan+1) word ops for all 62 lanes at once;
   contradictory combinations on duplicated wires become zero words
   automatically (v land lnot v = 0).  Gate outputs are then unions of
   minterm words over the baked firing sets; thresholds ascend, so the
   sets are nested and iterating gates from the highest threshold down
   touches each live minterm exactly once. *)
let eval_tt ~mt ~fan ~tt ~count ~full ~ew ~out =
  Array.unsafe_set mt 0 full;
  let width = ref 1 in
  for i = 0 to fan - 1 do
    let v = Array.unsafe_get ew i in
    let w = !width in
    for c = 0 to w - 1 do
      let m = Array.unsafe_get mt c in
      Array.unsafe_set mt (c + w) (m land v);
      Array.unsafe_set mt c (m land lnot v)
    done;
    width := w * 2
  done;
  let prev = ref 0 and acc = ref 0 in
  for j = count - 1 downto 0 do
    let tj = Array.unsafe_get tt j in
    let m = ref (tj land lnot !prev) in
    while !m <> 0 do
      let b = !m land (- !m) in
      acc :=
        !acc lor Array.unsafe_get mt (Array.unsafe_get ctz_table ((b * ctz_mul) lsr 56));
      m := !m lxor b
    done;
    Array.unsafe_set out j !acc;
    prev := tj
  done

(* Bit-sliced count-vs-constant compares: cnt.(base + j) holds bit j of
   every lane's count; sweep MSB-first tracking which lanes are still
   tied with the constant.  [eq] starts at [full], so dead lanes never
   leak through the lnot. *)

let cmp_ge cnt ~base ~bits ~c ~full =
  if c <= 0 then full
  else if c lsr bits <> 0 then 0
  else begin
    let gt = ref 0 and eq = ref full in
    for j = bits - 1 downto 0 do
      let w = Array.unsafe_get cnt (base + j) in
      if (c lsr j) land 1 = 1 then eq := !eq land w
      else begin
        gt := !gt lor (!eq land w);
        eq := !eq land lnot w
      end
    done;
    !gt lor !eq
  end

let cmp_le cnt ~base ~bits ~c ~full =
  if c < 0 then 0
  else if c lsr bits <> 0 then full
  else begin
    let lt = ref 0 and eq = ref full in
    for j = bits - 1 downto 0 do
      let w = Array.unsafe_get cnt (base + j) in
      if (c lsr j) land 1 = 1 then begin
        lt := !lt lor (!eq land lnot w);
        eq := !eq land w
      end
      else eq := !eq land lnot w
    done;
    !lt lor !eq
  end

(* Flat int-array codec for spec arrays, used by the artifact store to
   persist a circuit's distinct dispatch decisions as one table that
   segments index into (segments stamped from one template share a
   spec, so the table stays small).  The encoding is
   positional — [tag; fields...; payload-length; payload...] per spec —
   so a decoder reading a stream produced by a different compiler
   revision would misparse; [format_rev] guards against that: artifacts
   carry the revision they were encoded under, and a mismatch makes the
   loader recompile from the CSR pools instead of decoding. *)

let format_rev = 1

let tag_generic = 0
let tag_tt = 1
let tag_pop = 2
let tag_csa = 3

let encode_specs specs =
  let size = ref 0 in
  Array.iter
    (fun s ->
      size :=
        !size
        +
        match s with
        | Generic -> 1
        | Tt { k_tt; _ } -> 3 + Array.length k_tt
        | Pop { k_c; _ } -> 4 + Array.length k_c
        | Csa { k_widths; k_bth; _ } -> 4 + Array.length k_widths + Array.length k_bth)
    specs;
  let out = Array.make !size 0 in
  let pos = ref 0 in
  let put v =
    out.(!pos) <- v;
    incr pos
  in
  let put_arr a =
    put (Array.length a);
    Array.iter put a
  in
  Array.iter
    (fun s ->
      match s with
      | Generic -> put tag_generic
      | Tt { k_fan; k_tt } ->
          put tag_tt;
          put k_fan;
          put_arr k_tt
      | Pop { k_bits; k_cmp; k_c } ->
          put tag_pop;
          put k_bits;
          put (match k_cmp with Ge -> 0 | Le -> 1);
          put_arr k_c
      | Csa { k_widths; k_mbits; k_bth } ->
          put tag_csa;
          put_arr k_widths;
          put k_mbits;
          put_arr k_bth)
    specs;
  out

exception Malformed

let decode_specs enc ~count =
  let len = Array.length enc in
  let pos = ref 0 in
  let take () =
    if !pos >= len then raise Malformed;
    let v = enc.(!pos) in
    incr pos;
    v
  in
  let take_arr () =
    let n = take () in
    if n < 0 || n > len - !pos then raise Malformed;
    let a = Array.sub enc !pos n in
    pos := !pos + n;
    a
  in
  match
    let out =
      Array.init count (fun _ ->
          let tag = take () in
          if tag = tag_generic then Generic
          else if tag = tag_tt then
            let k_fan = take () in
            let k_tt = take_arr () in
            if k_fan < 0 || k_fan > tt_max_fan then raise Malformed;
            Tt { k_fan; k_tt }
          else if tag = tag_pop then
            let k_bits = take () in
            let k_cmp = match take () with 0 -> Ge | 1 -> Le | _ -> raise Malformed in
            let k_c = take_arr () in
            if k_bits < 1 || k_bits > word_lanes then raise Malformed;
            Pop { k_bits; k_cmp; k_c }
          else if tag = tag_csa then
            let k_widths = take_arr () in
            let k_mbits = take () in
            let k_bth = take_arr () in
            if k_mbits < 1 || k_mbits > word_lanes then raise Malformed;
            Csa { k_widths; k_mbits; k_bth }
          else raise Malformed)
    in
    if !pos <> len then raise Malformed;
    out
  with
  | out -> Some out
  | exception Malformed -> None
