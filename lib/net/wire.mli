(** Big-endian byte-level accessors shared by all header codecs, plus
    the RFC 1071 Internet checksum. *)

exception Malformed of string
(** Raised by header readers on truncated or inconsistent input. *)

val fail : string -> 'a
(** Raise {!Malformed}. *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
(** 32-bit big-endian value as a non-negative int. *)

val set_u32 : Bytes.t -> int -> int -> unit
val get_u48 : Bytes.t -> int -> int
val set_u48 : Bytes.t -> int -> int -> unit

val need : lim:int -> int -> int -> unit
(** [need ~lim off n] checks that [n] bytes at [off] end at or before
    [lim]. A reader passes the end of the bytes it was handed (a heap
    frame's [offset + length]), never the length of the store around
    them: a frame shares its store with its neighbours. A writer passes
    [Bytes.length]. *)

val checksum : init:int -> Bytes.t -> int -> int -> int
(** [checksum ~init b off len] is the one's-complement Internet checksum
    of the range. [init] folds in a pseudo-header sum computed with
    {!pseudo_sum}, or is 0. A required label, not an optional one: an
    optional argument would box a [Some] at every call. *)

val pseudo_sum : src:int -> dst:int -> proto:int -> len:int -> int
(** Partial sum of the IPv4 pseudo-header used by UDP and TCP. *)
