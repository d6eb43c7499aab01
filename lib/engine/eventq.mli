(** The one deadline-ordered structure: a binary min-heap keyed on
    (time, insertion sequence). The sequence number makes simultaneous
    entries come out in insertion order, which keeps runs deterministic.
    The simulator's pending-event set is a [(unit -> unit) t]; the TCP
    stack's RTO and TIME_WAIT timers are a [conn t].

    The heap is three parallel arrays (times, sequence numbers,
    payloads), not a record per entry: {!add} and {!pop} allocate
    nothing once the arrays have grown to the run's peak backlog.

    Entries are never removed from the middle. An owner that cancels or
    re-arms keeps the sequence number {!add} returned for its live entry
    and forgets it to cancel; an entry whose sequence number its owner no
    longer holds is {e stale}. {!next_live} and {!expire} take the
    owner's [live] test and drop stale entries as they reach the top. *)

type 'a t

val create : unit -> 'a t
(** An empty heap. Vacated slots are overwritten with the payload of
    the first {!add}, so that one payload stays reachable for the
    heap's lifetime; no other popped payload does. *)

val add : 'a t -> time:Clock.t -> 'a -> int
(** Insert a payload at an absolute virtual time below [max_int] (which
    {!top_time} reserves for "empty") and return its insertion sequence
    number: [0, 1, 2, ...] in call order, never reused. *)

val top_time : 'a t -> Clock.t
(** Earliest pending time, stale entries included, or [max_int] when the
    heap is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest entry (the one {!top_time} names) and return its
    payload. Raises [Invalid_argument] on an empty heap. *)

val next_live : 'a t -> live:('a -> int -> bool) -> Clock.t
(** Exact earliest time of a live entry, or [max_int] when none is left:
    pops the stale entries ([live payload seq] false) on top first. *)

val expire : 'a t -> now:Clock.t -> live:('a -> int -> bool) -> ('a -> int -> unit) -> unit
(** Pop every entry with [time <= now] that was added before this call,
    in (time, seq) order, and pass each one that is still [live] at its
    turn to the callback with its sequence number. The callback may
    cancel entries (a later one it cancels does not fire) and add new
    ones; an entry added during the call waits for a later call, even if
    already due. That needs added entries to be no earlier than [now],
    as every [now + d] with [d >= 0] is: an earlier one would hold the
    due entries behind it until the next call. Not re-entrant. *)
