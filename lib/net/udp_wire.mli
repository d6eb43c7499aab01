(** UDP headers (RFC 768), with pseudo-header checksum. *)

type t = { mutable src_port : int; mutable dst_port : int; mutable length : int (** incl. header *) }
(** A header view: {!read} fills it and {!write} serializes it. *)

val create : unit -> t
(** A zeroed view. *)

val size : int
(** 8 bytes. *)

val write : Bytes.t -> int -> t -> src_ip:Addr.Ip.t -> dst_ip:Addr.Ip.t -> int
(** Serialize at an offset. The payload ([length - 8] bytes) must
    already be in place after the header so the checksum can cover it. *)

val read : Bytes.t -> int -> lim:int -> t -> src_ip:Addr.Ip.t -> dst_ip:Addr.Ip.t -> int
(** Parse into the view and verify the checksum over header and
    payload; returns the payload offset. The datagram's [length] must
    end at or before [lim]. *)
