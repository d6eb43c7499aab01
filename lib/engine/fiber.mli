(** Simulation processes as effect-handler fibers.

    A fiber is a piece of linear code (a host's main loop, a load
    generator, a device model) that can suspend itself — sleeping for a
    span of virtual time or waiting on a {!Condvar} — and is resumed by
    the event loop. This is the simulator-level analogue of the paper's
    observation that coroutines let I/O stacks keep a linear programming
    flow instead of hand-written state machines. *)

val spawn : Sim.t -> ?name:string -> (unit -> unit) -> unit
(** Start a fiber at the current virtual time. Exceptions escaping the
    fiber body are wrapped in [Failure] with the fiber name and re-raised
    out of {!Sim.run}. *)

val sleep : Sim.t -> Clock.t -> unit
(** Suspend the calling fiber for a span of virtual time. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling fiber and hands its resume
    function to [register]. The resume function must be called exactly
    once, from an event callback or another fiber. This is the only
    suspension primitive; everything else is built on it. *)
