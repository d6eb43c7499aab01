(** Out-of-order segment reassembly for one TCP connection.

    Holds payload byte ranges keyed by sequence number and releases the
    longest in-order prefix as [rcv_nxt] advances. Overlapping and
    duplicate segments are trimmed, so re-transmissions cannot duplicate
    delivered bytes. *)

type t

val create : rcv_nxt:Seqnum.t -> capacity:int -> t
(** [capacity] bounds buffered out-of-order bytes; segments beyond it
    are dropped (the peer will retransmit). *)

val insert : t -> seq:Seqnum.t -> string -> unit
(** Offer a segment's payload at its sequence number. Bytes at or below
    the in-order point are trimmed away. *)

val take_in_order : t -> seq:Seqnum.t -> len:int -> bool
(** The in-order fast path: when [len] bytes at [seq] are exactly the
    next expected data and nothing is buffered out of order, advance the
    in-order point past them and return [true]; the caller delivers the
    bytes itself, so they are never copied into the reassembly buffer.
    Otherwise change nothing and return [false] (offer them to
    {!insert}). *)

val pop_ready : t -> string option
(** Next in-order chunk, advancing the in-order point; [None] when the
    next byte has not arrived. *)

val rcv_nxt : t -> Seqnum.t
(** The next expected sequence number (what we ack). *)

val buffered_bytes : t -> int
(** Out-of-order bytes currently held (counts against the advertised
    window). *)

val ranges : t -> (Seqnum.t * Seqnum.t) list
(** Coalesced [left, right) sequence ranges of buffered out-of-order
    data, in sequence order — the receiver's SACK blocks (RFC 2018). *)
