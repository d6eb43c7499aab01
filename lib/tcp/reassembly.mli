(** The receive side of one TCP connection: the in-order queue the
    application pops, and the out-of-order ranges held until the gap
    before them fills.

    Every received byte is copied once, from its frame into a buffer of
    the stack's heap, whether it arrives in order or not: a range that
    starts at [rcv_nxt] goes onto the queue at once, any other is held
    as a heap buffer and moves onto the queue, as the same buffer, when
    [rcv_nxt] reaches it. Overlapping and duplicate bytes are trimmed
    by sequence arithmetic before the copy, so retransmissions cannot
    duplicate delivered bytes.

    Ownership: queued buffers pass to the application with {!pop}.
    Held buffers are freed by {!restart} (a FIN moved past them) and
    {!release}; queued ones only by {!release}, once nobody can pop
    them. *)

type t

val create : heap:Memory.Heap.t -> capacity:int -> t
(** An empty receive side at [rcv_nxt] 0 whose buffers come from
    [heap]. [capacity] bounds the held bytes: a segment whose bytes past
    [rcv_nxt] would push them over it is dropped whole (the peer will
    retransmit). *)

val restart : t -> rcv_nxt:Seqnum.t -> unit
(** Move the in-order point to [rcv_nxt] (the peer's ISN + 1, or past
    its FIN) and free every held buffer. The queue is kept. *)

val insert : t -> seq:Seqnum.t -> Bytes.t -> int -> int -> unit
(** [insert t ~seq b off len] offers the [len] payload bytes at [off]
    in the frame [b], at sequence number [seq]. Bytes below [rcv_nxt]
    or already held are skipped; each new range is copied out of [b]
    once, queued if it is in order, and then every held range that
    became in order is queued behind it. The frame is not kept. *)

val is_empty : t -> bool
(** Whether the queue is empty. *)

val pop : t -> Memory.Heap.buffer
(** The next in-order buffer, handed over to the caller. Raises
    [Queue.Empty] when {!is_empty}. *)

val rcv_nxt : t -> Seqnum.t
(** The next expected sequence number (what we ack). *)

val queued_bytes : t -> int
(** Bytes on the queue, not yet popped. *)

val held_bytes : t -> int
(** Out-of-order bytes held (with {!queued_bytes}, they count against
    the advertised window). *)

val ranges : t -> (Seqnum.t * Seqnum.t) list
(** Coalesced [left, right) sequence ranges of the held bytes, in
    sequence order — the receiver's SACK blocks (RFC 2018). *)

val release : t -> unit
(** Free every held and queued buffer. *)
