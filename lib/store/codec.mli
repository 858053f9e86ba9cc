(** Self-describing binary codec combinators for the artifact header.

    Small typed combinators in the style of Zipperposition's [Bij]: a
    ['a t] pairs an encoder and a decoder, composite codecs are built
    from primitives with [pair] / [array] / [view], and every encoded
    value carries a one-byte type tag.  The tags are what make headers
    {i self-describing}: a reader holding a codec that disagrees with
    the writer's (schema drift, stale format, bit rot the CRC happened
    to miss) fails with {!Error} at the first mismatched tag instead of
    silently misparsing — the store turns that into quarantine +
    rebuild.

    This is a header codec, not a bulk one: the packed circuit's
    megabyte-scale sections are written as raw page-aligned words
    outside it (see {!Artifact}), so decode cost never scales with the
    circuit. *)

type 'a t

exception Error of string
(** Raised by {!decode} on tag mismatch, truncation, trailing bytes, or
    a [view] rejecting a value. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a

val decode_at : 'a t -> string -> pos:int -> 'a
(** The one value encoded at byte [pos] of a longer string, ignoring
    whatever follows it.  Raises {!Error} like {!decode}. *)

val unit : unit t
val bool : bool t

val int : int t
(** Full 63-bit range. *)

val float : float t
val string : string t

val int_array : int array t
(** Raw fixed-width words — no per-element tags, unlike {!array}. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t

val view : inject:('a -> 'b) -> extract:('b -> 'a) -> 'b t -> 'a t
(** Codec for ['a] through its representation as a ['b] (records via
    nested pairs, variants via a tag pairing).  [extract] may raise
    {!Error} to reject representable-but-invalid values. *)
