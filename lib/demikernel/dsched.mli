(** The Demikernel coroutine scheduler (§3.3, §5.4).

    Coroutines are effect-handler fibers with ns-scale switches. The
    scheduler separates runnable from blocked coroutines: each coroutine
    owns one readiness bit in the {!Waker} blocks; blocking stashes the
    coroutine, and whoever triggers the awaited event sets the bit. The
    run loop drains set bits, then dispatches in priority order —
    runnable application coroutines first, then background coroutines,
    then the always-runnable fast-path coroutines, FIFO within a class.

    A switch allocates only what the effect runtime must: each
    coroutine's handler and the [Some] closures it returns for [Yield]
    and [Block] are built once, at {!spawn}; a parked continuation sits
    in a plain field whose empty value is [Engine.Sim.no_cont]; run
    queues are rings and the running coroutine is a sentinel-initialised
    field. A yield round trip, including its charged switch (a
    {!Host.charge}, i.e. a [Fiber.sleep] the coroutine handler forwards
    to the host fiber), costs 4 words: the two captured continuations.

    Polling without simulated spinning: a fast-path coroutine that finds
    its device rings empty and {!runnable_apps} false parks the whole
    host fiber on the device signals (plus the next protocol timer) and
    charges one poll on wakeup — observable timing matches a spinning
    poller without simulating every empty poll. *)

type t

type kind = App | Background | Fast_path

type handle
(** A spawned coroutine; also the target for {!wake}. *)

val nobody : handle
(** A placeholder handle for an empty waiter slot; it is never
    dispatched, and waking it does nothing. *)

val create : Host.t -> t

val host : t -> Host.t

val spawn : t -> kind -> ?name:string -> (unit -> unit) -> handle
(** Register a coroutine; it becomes runnable immediately. *)

val self : t -> handle
(** The currently running coroutine. Raises [Failure] outside one. *)

val yield : t -> unit
(** Give up the CPU but stay runnable. Must be called from a coroutine. *)

val block : t -> unit
(** Park the current coroutine until someone {!wake}s it. If a wake
    already arrived since the last block, returns immediately (no lost
    wakeups). *)

val wake : t -> handle -> unit
(** Set a coroutine's readiness bit. Safe to call from any coroutine on
    the same host, or from stack event callbacks. *)

val runnable_apps : t -> bool
(** Whether any application or background coroutine is currently
    runnable (fast-path coroutines use this to decide to yield early). *)

val has_pending_wakes : t -> bool
(** Readiness bits set but not yet drained into the run queues. The idle
    path must not park while these exist. *)

val stop : t -> unit
(** Make {!run} return once the current slice finishes. *)

val run : t -> unit
(** The scheduler loop; call from an engine fiber (one per host). Returns
    on {!stop}, or when no coroutine can ever run again (all dead, or
    all blocked with no fast-path coroutine and no idle waits). *)

val context_switches : t -> int
(** Dispatches performed, for the §5.4 microbenchmark. *)
