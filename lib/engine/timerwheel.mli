(** Deterministic hierarchical timing wheel (Varghese & Lauck), keyed on
    the simulator's virtual nanosecond clock.

    The datapath stacks arm one timer per connection per concern (RTO,
    TIME_WAIT); at 10k+ connections a sorted scan per poll is the first
    thing that melts (§5.4's 12-cycle scheduler budget). The wheel makes
    arm/cancel O(1), [next_deadline_ns] an O(1)-amortized exact peek, and
    [expire] proportional to the entries actually due — never to the
    number of entries armed.

    Determinism contract: expiry order is by (deadline, insertion
    sequence) — identical to {!Eventq}'s tie-break — so rewiring a stack
    from a sorted scan onto the wheel cannot reorder same-deadline
    firings across runs. Resolution is 1 virtual ns (tick == ns); no
    rounding of deadlines ever occurs, so [next_deadline_ns] returns
    exactly the earliest armed deadline — required because
    [Runtime.fast_path] parks until that instant and a coarsened bound
    would change virtual time. *)

type 'a t
(** A wheel holding payloads of type ['a]. Not thread-safe (the
    simulator is single-threaded by construction). *)

type 'a handle
(** A cancellable reference to one armed entry. *)

val create : ?start:int -> unit -> 'a t
(** [start] is the initial virtual time (default 0); deadlines below
    the wheel's current time are clamped up to it. *)

val size : 'a t -> int
(** Number of live (armed, not yet fired or cancelled) entries. *)

val add : 'a t -> deadline:int -> 'a -> 'a handle
(** Arm an entry. O(1). [deadline] is clamped to the wheel's current
    time, so a past deadline fires on the next [expire]. *)

val cancel : 'a t -> 'a handle -> unit
(** Disarm. O(1), idempotent; a cancelled entry never fires. *)

val next_deadline_ns : 'a t -> int
(** Exact earliest live deadline, [max_int] when empty. O(1) when the
    cached minimum is valid; otherwise one bounded slot scan
    (re-validated lazily after an expiry or a cancel of the minimum).
    Allocation-free — the steady-state poll loops consult it every
    iteration. *)

val expire : 'a t -> now:int -> ('a -> unit) -> unit
(** Advance the wheel to [now] and fire every live entry with
    [deadline <= now], in (deadline, insertion-sequence) order. The
    callback may arm new entries (they fire on a later [expire], even if
    already due) and may cancel not-yet-fired ones (they are skipped).
    Cost: slots crossed since the last call, plus O(k log k) in the k
    entries fired. The steady-state crossing (every crossed slot empty)
    allocates nothing. Not re-entrant: callbacks must not call [expire]
    on the same wheel. *)

val activity : 'a t -> int
(** Cumulative structural-work counter: advances whenever [expire]
    touches a nonempty crossed bucket (cascade) or fires an entry.
    Unchanged across an [expire] call iff the wheel did nothing — how
    pollers distinguish a steady (allocation-free) poll from a busy
    one. *)

(** {1 Introspection (tests)} *)

val handle_live : 'a handle -> bool
