(** ARP for IPv4-over-Ethernet (RFC 826), request/reply only. *)

type operation = Request | Reply

type packet = {
  operation : operation;
  sender_mac : Addr.Mac.t;
  sender_ip : Addr.Ip.t;
  target_mac : Addr.Mac.t;
  target_ip : Addr.Ip.t;
}

val size : int
(** 28 bytes. *)

val write : Bytes.t -> int -> packet -> int
val read : Bytes.t -> int -> lim:int -> packet * int
(** Parse at an offset, bounded by [lim]; returns the packet and the
    offset past it. *)
