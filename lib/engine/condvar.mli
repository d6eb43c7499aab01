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
    at as its operand and resumes the fiber only if that is still
    current, bumping it. A leftover signal or timeout of an ended wait
    therefore never wakes a later wait, a waiter on two condvars that
    both broadcast resumes once, and a timeout and a broadcast at the
    same ns resolve by event order (the one scheduled earlier wins).

    A wait builds no closure: its signal and timeout events are the
    fiber's [wake] and [timeout] callbacks, built once at
    {!Fiber.spawn}, with the generation as their operand. Each condvar
    keeps its waiters (fiber and generation) in growable arrays; a
    waiter whose wait already ended is swept when the arrays fill. So a
    condvar that never broadcasts — a host's [kick] — holds O(live
    waiters), not one entry per wait ever made. A {!broadcast} schedules
    events only for the waiters still in their wait: a fiber's
    generation only grows, so an ended wait's event could only be a
    no-op, and none is scheduled for it, swept or not. *)

type t

val create : Sim.t -> t

val broadcast : t -> unit
(** Wake every currently-parked waiter (in FIFO order, at the current
    virtual time). Waiters arriving after this call are not woken. *)

val wait_many : Sim.t -> t list -> timeout:Clock.t -> [ `Signaled | `Timeout ]
(** The one wait: park the calling fiber until any of the condition
    variables broadcasts, or until [timeout] (a span from now; [max_int]
    waits for a broadcast only) elapses. With an empty list and no
    timeout the caller sleeps forever. A wait allocates only the
    continuation the effect runtime captures (2 words), with or without
    a timeout. *)
