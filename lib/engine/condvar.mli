(** Broadcast condition variables for fibers.

    Used wherever a simulated component needs to park until "something
    arrived": a NIC rx ring signals its host, a completion queue signals
    a poller. As with pthread condition variables, a waiter must re-check
    its predicate after waking — wakeups are permission to look, not a
    value.

    A wait parks its fiber with {!Fiber.park} and ends at the first of
    its events to {e run}: one signal event per condvar that broadcasts,
    plus the timeout event. The rule is the fiber's wait generation
    ({!Sim.fiber}): each event carries the generation its wait started
    at and resumes the fiber only if that is still current, bumping it.
    A leftover signal or timeout of an ended wait therefore never wakes
    a later wait, a waiter on two condvars that both broadcast resumes
    once, and a timeout and a broadcast at the same ns resolve by event
    order (the one scheduled earlier wins).

    A wait builds at most two small closures, its signal (shared by all
    of its condvars) and its timeout. Each condvar keeps its waiters in
    growable arrays; a waiter whose wait already ended is swept when the
    arrays fill, and kept only as a count. So a condvar that never
    broadcasts — a host's [kick] — holds O(live waiters), not one entry
    per wait ever made. Deliberately preserved: its next {!broadcast}
    still schedules one no-op event per swept waiter, in its original
    place, so {!Sim.events_processed} and every event sequence match the
    one-closure-per-waiter design. Dropping those events would be a
    behaviour change to the event count. *)

type t

val create : Sim.t -> t

val broadcast : t -> unit
(** Wake every currently-parked waiter (in FIFO order, at the current
    virtual time). Waiters arriving after this call are not woken. *)

val wait_many : Sim.t -> t list -> timeout:Clock.t option -> [ `Signaled | `Timeout ]
(** The one wait: park the calling fiber until any of the condition
    variables broadcasts, or until [timeout] (a span from now; [None]
    waits for a broadcast only) elapses. With an empty list and no
    timeout the caller sleeps forever. A steady-state wait on one
    condvar, with its broadcast, allocates about 12 words. *)
