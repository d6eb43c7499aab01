(** Broadcast condition variables for fibers.

    Used wherever a simulated component needs to park until "something
    arrived": a NIC rx ring signals its host, a completion queue signals
    a poller. As with pthread condition variables, a waiter must re-check
    its predicate after waking — wakeups are permission to look, not a
    value. *)

type t

val create : Sim.t -> t

val broadcast : t -> unit
(** Wake every currently-parked waiter (in FIFO order, at the current
    virtual time). Waiters arriving after this call are not woken. *)

val wait_many : Sim.t -> t list -> timeout:Clock.t option -> [ `Signaled | `Timeout ]
(** The one wait: park the calling fiber until any of the condition
    variables broadcasts, or until [timeout] (a span from now; [None]
    waits for a broadcast only) elapses. With an empty list and no
    timeout the caller sleeps forever. *)
