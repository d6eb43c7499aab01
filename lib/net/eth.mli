(** Ethernet II framing. *)

type t = { mutable dst : Addr.Mac.t; mutable src : Addr.Mac.t; mutable ethertype : int }
(** A header view: {!read} fills it and {!write} serializes it, so one
    view per direction serves every frame without allocating. *)

val create : unit -> t
(** A zeroed view. *)

val size : int
(** 14 bytes. *)

val ethertype_ipv4 : int
val ethertype_arp : int

val write : Bytes.t -> int -> t -> int
(** Serialize at an offset; returns the offset past the header. *)

val read : Bytes.t -> int -> lim:int -> t -> int
(** Parse at an offset into the view; returns the payload offset.
    [lim] is the end of the frame's bytes. Raises {!Wire.Malformed}
    when truncated. *)
