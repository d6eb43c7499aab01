(** Simulation processes as effect-handler fibers.

    A fiber is a piece of linear code (a host's main loop, a load
    generator, a device model) that can suspend itself — sleeping for a
    span of virtual time or waiting on a {!Condvar} — and is resumed by
    the event loop. This is the simulator-level analogue of the paper's
    observation that coroutines let I/O stacks keep a linear programming
    flow instead of hand-written state machines.

    Both suspensions are constant effects ([Sleep] and [Park]); their
    operands travel through the {!Sim.fiber} slots, and each fiber's
    handler, resume closure and [Some] handler options are built once at
    {!spawn}; a parked continuation sits in a plain field whose empty
    value is {!Sim.no_cont}. A steady-state sleep allocates only the
    continuation the effect runtime captures: 2 words. There is no general
    "suspend with a resume callback" primitive. *)

val spawn : Sim.t -> ?name:string -> (unit -> unit) -> unit
(** Start a fiber at the current virtual time. Exceptions escaping the
    fiber body are wrapped in [Failure] with the fiber name and re-raised
    out of {!Sim.run}. *)

val sleep : Sim.t -> Clock.t -> unit
(** Suspend the calling fiber for a span of virtual time. *)

val park : unit -> unit
(** Suspend the calling fiber (the {!Sim.running} one) until its
    [resume] closure is called from an event. The primitive under
    {!Condvar.wait_many}, which owns the wakeup rule: whoever resumes a
    parked fiber first bumps its [gen] and sets [signaled]. *)
