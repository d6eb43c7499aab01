(** IPv4 headers (RFC 791), no options. Fragmentation is supported for
    UDP datagrams above the MTU. TCP segments at its effective MSS, so
    its segments fit the MTU; only a data segment that also carries
    SACK blocks fragments. *)

type header = {
  total_length : int;  (** header + payload bytes. *)
  identification : int;
  ttl : int;
  protocol : int;
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  more_fragments : bool;
  fragment_offset : int;  (** payload offset in bytes; multiple of 8. *)
}

val size : int
(** 20 bytes. *)

val protocol_udp : int
val protocol_tcp : int

val write : Bytes.t -> int -> header -> int
(** Serialize with a correct header checksum. *)

val fragment_of : total_length:int -> protocol:int -> src:Addr.Ip.t -> dst:Addr.Ip.t ->
  identification:int -> more_fragments:bool -> fragment_offset:int -> header

val whole : total_length:int -> protocol:int -> src:Addr.Ip.t -> dst:Addr.Ip.t ->
  identification:int -> header
(** An unfragmented packet (DF semantics are not modelled). *)

val read : Bytes.t -> int -> header * int
(** Parse and verify the header checksum; raises {!Wire.Malformed} on
    corruption, truncation or options. *)
