(** Pending-event set for the simulator: a binary min-heap keyed on
    (time, insertion sequence). The sequence number makes simultaneous
    events fire in insertion order, which keeps runs deterministic.

    The heap is three parallel arrays (times, sequence numbers,
    callbacks), not a record per event: {!add} and {!pop} allocate
    nothing once the arrays have grown to the run's peak backlog. *)

type t

val create : unit -> t

val add : t -> time:Clock.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time below [max_int]
    (which {!top_time} reserves for "empty"). *)

val top_time : t -> Clock.t
(** Earliest pending time, or [max_int] when the queue is empty. *)

val pop : t -> unit -> unit
(** Remove the earliest event (the one {!top_time} names) and return
    its callback. Raises [Invalid_argument] on an empty queue. *)
