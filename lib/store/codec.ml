exception Error of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : string -> int ref -> 'a;
}

(* One tag byte per value.  Primitives get distinct letters; composites
   tag themselves and then tag each component, so nesting mismatches
   surface at the exact depth they occur. *)
let tag_unit = 'u'
let tag_bool = 'b'
let tag_int = 'i'
let tag_float = 'f'
let tag_string = 's'
let tag_int_array = 'w'
let tag_pair = 'p'
let tag_triple = 't'
let tag_option = 'o'
let tag_list = 'l'
let tag_array = 'a'

let need s pos n =
  if !pos + n > String.length s then err "truncated value at byte %d" !pos

let get_tag s pos expect =
  need s pos 1;
  let c = s.[!pos] in
  incr pos;
  if c <> expect then
    err "type tag mismatch at byte %d: expected '%c', found %C" (!pos - 1) expect c

let put_tag b t = Buffer.add_char b t

let put_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let get_u64 s pos =
  need s pos 8;
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let unit =
  {
    write = (fun b () -> put_tag b tag_unit);
    read = (fun s pos -> get_tag s pos tag_unit);
  }

let bool =
  {
    write =
      (fun b v ->
        put_tag b tag_bool;
        Buffer.add_char b (if v then '\001' else '\000'));
    read =
      (fun s pos ->
        get_tag s pos tag_bool;
        need s pos 1;
        let c = s.[!pos] in
        incr pos;
        match c with
        | '\000' -> false
        | '\001' -> true
        | c -> err "invalid bool byte %C at %d" c (!pos - 1));
  }

let int =
  {
    write =
      (fun b v ->
        put_tag b tag_int;
        put_u64 b v);
    read =
      (fun s pos ->
        get_tag s pos tag_int;
        get_u64 s pos);
  }

let float =
  {
    write =
      (fun b v ->
        put_tag b tag_float;
        Buffer.add_int64_le b (Int64.bits_of_float v));
    read =
      (fun s pos ->
        get_tag s pos tag_float;
        need s pos 8;
        let v = Int64.float_of_bits (String.get_int64_le s !pos) in
        pos := !pos + 8;
        v);
  }

let get_len s pos =
  let n = get_u64 s pos in
  if n < 0 || n > String.length s - !pos then err "invalid length %d at byte %d" n !pos;
  n

let string =
  {
    write =
      (fun b v ->
        put_tag b tag_string;
        put_u64 b (String.length v);
        Buffer.add_string b v);
    read =
      (fun s pos ->
        get_tag s pos tag_string;
        let n = get_len s pos in
        let v = String.sub s !pos n in
        pos := !pos + n;
        v);
  }

let int_array =
  {
    write =
      (fun b v ->
        put_tag b tag_int_array;
        put_u64 b (Array.length v);
        Array.iter (fun x -> put_u64 b x) v);
    read =
      (fun s pos ->
        get_tag s pos tag_int_array;
        let n = get_u64 s pos in
        if n < 0 || n > (String.length s - !pos) / 8 then
          err "invalid array length %d at byte %d" n !pos;
        Array.init n (fun _ -> get_u64 s pos));
  }

let pair a b =
  {
    write =
      (fun buf (x, y) ->
        put_tag buf tag_pair;
        a.write buf x;
        b.write buf y);
    read =
      (fun s pos ->
        get_tag s pos tag_pair;
        let x = a.read s pos in
        let y = b.read s pos in
        (x, y));
  }

let triple a b c =
  {
    write =
      (fun buf (x, y, z) ->
        put_tag buf tag_triple;
        a.write buf x;
        b.write buf y;
        c.write buf z);
    read =
      (fun s pos ->
        get_tag s pos tag_triple;
        let x = a.read s pos in
        let y = b.read s pos in
        let z = c.read s pos in
        (x, y, z));
  }

let option a =
  {
    write =
      (fun buf v ->
        put_tag buf tag_option;
        match v with
        | None -> Buffer.add_char buf '\000'
        | Some x ->
            Buffer.add_char buf '\001';
            a.write buf x);
    read =
      (fun s pos ->
        get_tag s pos tag_option;
        need s pos 1;
        let c = s.[!pos] in
        incr pos;
        match c with
        | '\000' -> None
        | '\001' -> Some (a.read s pos)
        | c -> err "invalid option byte %C at %d" c (!pos - 1));
  }

let list a =
  {
    write =
      (fun buf v ->
        put_tag buf tag_list;
        put_u64 buf (List.length v);
        List.iter (a.write buf) v);
    read =
      (fun s pos ->
        get_tag s pos tag_list;
        let n = get_len s pos in
        List.init n (fun _ -> a.read s pos));
  }

let array a =
  {
    write =
      (fun buf v ->
        put_tag buf tag_array;
        put_u64 buf (Array.length v);
        Array.iter (a.write buf) v);
    read =
      (fun s pos ->
        get_tag s pos tag_array;
        let n = get_len s pos in
        Array.init n (fun _ -> a.read s pos));
  }

let view ~inject ~extract b =
  {
    write = (fun buf v -> b.write buf (inject v));
    read = (fun s pos -> extract (b.read s pos));
  }

let encode c v =
  let b = Buffer.create 256 in
  c.write b v;
  Buffer.contents b

let decode c s =
  let pos = ref 0 in
  let v = c.read s pos in
  if !pos <> String.length s then err "%d trailing bytes after value" (String.length s - !pos);
  v

let decode_at c s ~pos = c.read s (ref pos)
