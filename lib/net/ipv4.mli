(** IPv4 headers (RFC 791), no options. Fragmentation is supported for
    UDP datagrams above the MTU. TCP segments at its effective MSS, so
    its segments fit the MTU; only a data segment that also carries
    SACK blocks fragments. *)

type t = {
  mutable total_length : int;  (** header + payload bytes. *)
  mutable identification : int;
  mutable ttl : int;
  mutable protocol : int;
  mutable src : Addr.Ip.t;
  mutable dst : Addr.Ip.t;
  mutable more_fragments : bool;
  mutable fragment_offset : int;  (** payload offset in bytes; multiple of 8. *)
}
(** A header view: {!read} fills it, {!set} and {!write} build and
    serialize it. An interface keeps one per direction. *)

val create : unit -> t
(** A zeroed view. *)

val size : int
(** 20 bytes. *)

val protocol_udp : int
val protocol_tcp : int

val set :
  t ->
  total_length:int ->
  protocol:int ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  identification:int ->
  more_fragments:bool ->
  fragment_offset:int ->
  unit
(** Fill every field, with a TTL of 64. An unfragmented packet has
    [more_fragments = false] and [fragment_offset = 0] (DF semantics
    are not modelled). *)

val write : Bytes.t -> int -> t -> int
(** Serialize with a correct header checksum. *)

val read : Bytes.t -> int -> lim:int -> t -> int
(** Parse into the view and verify the header checksum; returns the
    transport offset. The whole datagram ([total_length] bytes) must end
    at or before [lim], the end of the frame, so a transport reader
    bounded by the datagram's end stays inside the frame. Raises
    {!Wire.Malformed} on corruption, truncation or options. *)
