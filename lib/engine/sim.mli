(** The discrete-event simulation driver.

    A [Sim.t] owns the virtual clock and the pending-event set. All
    hosts, devices and the network fabric of one experiment hang off a
    single [Sim.t]; running it to completion executes the experiment. *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh world at time zero. [seed] (default 1) roots all randomness. *)

val now : t -> Clock.t
(** Current virtual time. *)

val prng : t -> Prng.t
(** The root generator. Components should [Prng.split] their own. *)

val schedule : t -> delay:Clock.t -> (unit -> unit) -> unit
(** Run a callback [delay] ns from now. [delay] must be >= 0. *)

val at : t -> time:Clock.t -> (unit -> unit) -> unit
(** Run a callback at an absolute time (>= [now]). *)

val stop : t -> unit
(** Make [run] return after the current event. *)

val run : ?until:Clock.t -> t -> unit
(** Execute events in time order until the set is empty, [stop] is
    called, or the next event lies beyond [until] (in which case the
    clock is advanced to [until] and the event is left pending). *)

val events_processed : t -> int
(** Total events executed, for sanity checks and reporting. *)

(** {1 Fixed-interval sampling (Demiscope timelines)} *)

val set_sampler : t -> interval:Clock.t -> (Clock.t -> unit) -> unit
(** Install a virtual-time sampler: [f boundary] fires once for every
    multiple of [interval] the clock crosses, from inside the run loop
    {e between} events — nothing is scheduled, so the pending-event set
    and every interleaving are identical with sampling on or off (the
    observer-effect-free discipline). The callback must only read state;
    it sees the world as of its nominal boundary time (no event between
    the boundary and the sample has run yet). Replaces any previous
    sampler; the first boundary is [now + interval]. *)

val clear_sampler : t -> unit

(** {1 Teardown} *)

val at_teardown : t -> (unit -> unit) -> unit
(** Register a hook to run when the experiment is torn down. Hosts use
    this to emit end-of-run reports (e.g. the heap sanitizer's
    leak/double-free summary). *)

val teardown : t -> unit
(** Run the registered hooks in registration order, then clear them
    (calling twice is harmless). Harness entry points call this after
    the final [run]. *)

(** {1 Recorders}

    Each armed stream is its own {!Log.t} ring — the trace, the flight
    recorder, spans (intervals and wire events) and causal contexts —
    so one stream filling up never evicts another's events. Every
    recorder is a pure observer: arming it must not change the event
    interleaving, the clock, or the trace digest ([Harness.Observe.check]
    is the gate). {!teardown} prints one report naming every ring that
    overwrote records. *)

(** {2 Tracing} *)

val enable_trace : ?capacity:int -> t -> Log.t
(** Attach (or return the existing) event trace, a {!Log.text} ring of
    [capacity] events (default 65536). *)

val trace : t -> Log.t option

val trace_event : t -> category:Log.category -> string -> int -> int -> unit
(** [trace_event t ~category template a b] records a trace event whose
    message is [template] with [a] and [b] substituted (see
    {!Log.text}); one branch when tracing is off, allocation-free when
    it is on. *)

val trace_names : t -> category:Log.category -> string -> string -> string -> unit
(** Like {!trace_event} with two string operands ([%s]) instead of
    ints. *)

(** {2 Spans (Demitrace)} *)

val enable_spans : ?capacity:int -> t -> Span.t
(** Attach (or return the existing) span recorder. On first attach a
    teardown hook is registered that reports op spans left open (leaks),
    mirroring the heap sanitizer's report. *)

val spans : t -> Span.t option

(** {2 Flight recorder (Demiflight)} *)

val enable_flight : ?capacity:int -> t -> Log.t
(** Attach (or return the existing) flight recorder — a {!Log.operands}
    ring of [capacity] records (default 4096) cheap enough to stay
    armed in production runs. *)

val flight : t -> Log.t option

(** {2 Causal request contexts (Demifleet)} *)

val enable_causal : ?capacity:int -> t -> Causal.t
(** Attach (or return the existing) causal-context recorder. *)

val causal : t -> Causal.t option

val flight_note : t -> cat:Log.category -> label:string -> int -> int -> unit
(** Record one flight event at the current virtual time; a single
    branch when no recorder is attached, O(1) and allocation-free when
    one is. [label] must be a static string (pass a literal). *)

val span_interval :
  t -> comp:Span.component -> owner:string -> label:string -> t0:Clock.t -> t1:Clock.t -> unit
(** Attribute the absolute virtual interval [\[t0, t1\]] to [comp]; one
    branch when spans are disabled. Use for asynchronous stretches
    (device HW time, wire time) whose endpoints are known when the work
    is scheduled. *)

val span_note : t -> comp:Span.component -> owner:string -> dur:Clock.t -> unit
(** Attribute [\[now, now + dur\]] to [comp] — the shape of every
    synchronous cost-model charge ([Host.charge_as] calls this just
    before sleeping the charged duration). *)
