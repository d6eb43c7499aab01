(** A growable FIFO ring: a power-of-two array with a head index and a
    length, so a push writes one slot instead of allocating a cell (as
    [Queue.add] does). It is the one FIFO under the coroutine run
    queues, the TCP stack's delayed-ack queue and the packet hops: a
    push or pop allocates nothing once the ring has grown to its peak
    occupancy.

    The storage is made at the first push, which also supplies the
    value a vacated slot is overwritten with: that one value stays
    reachable for the ring's lifetime, and no other popped value does
    (the rule {!Eventq} follows). *)

type 'a t

val create : unit -> 'a t
(** An empty ring; the first push allocates 8 slots. *)

val push : 'a t -> 'a -> unit
(** Append at the tail, doubling the capacity when full. *)

val pop : 'a t -> 'a
(** Remove and return the head. Raises [Invalid_argument] when empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
