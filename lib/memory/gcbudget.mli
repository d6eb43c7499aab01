(** Demialloc runtime half: the per-poll GC allocation-budget oracle.

    Asserts that steady-state poll iterations in marked hot regions
    allocate zero words on the OCaml minor heap. Disarmed (the
    default), {!enter}/{!leave_steady}/{!leave_busy} are single
    bool-check no-ops; armed (selfcheck / [dune build @selfcheck]), each
    steady poll's [Gc.minor_words] delta — minus the calibrated
    self-allocation of the counter read itself — must be zero, after a
    per-site warmup that exempts first-use lazy initialisation.

    [Gc.minor_words] is cumulative and monotonic, so deltas depend only
    on the allocation sequence, never on GC timing: the oracle is
    deterministic for a deterministic run and safe to fold into the
    selfcheck fingerprint. The counter is held as an [int] (exact below
    2^53): in native code [Gc.minor_words] returns an unboxed float, so
    the convert-and-store protocol itself allocates nothing. *)

type site
(** One instrumented poll loop, registered by name. *)

type stats = {
  site_name : string;
  polls : int;  (** steady polls observed (including warmup) *)
  measured : int;  (** steady polls actually measured (post-warmup) *)
  site_violations : int;  (** measured polls that allocated > 0 words *)
  worst_words : int;  (** max words allocated by one violating poll *)
}

val set_armed : bool -> unit
(** Arm or disarm the oracle globally. Arming (re)calibrates the
    self-allocation overhead of a [Gc.minor_words] read. *)

val armed : unit -> bool

val site : ?warmup:int -> string -> site
(** Register (or look up — the registry is keyed by name) a poll site.
    The first [warmup] (default 16) steady polls are exempt from the
    zero-allocation assertion. Call once at setup, not per poll. *)

val enter : site -> unit
(** Open the measured window: record the minor-words counter. *)

val leave_steady : site -> unit
(** Close the window as a steady-state poll (nothing happened): the
    delta must be zero; a positive delta is recorded as a violation. *)

val leave_busy : site -> unit
(** Close the window as a busy poll (work was done): no assertion —
    completions, retransmits and deliveries may allocate. *)

val sites : unit -> stats list
(** Per-site statistics, sorted by site name (deterministic). *)

val total_measured : unit -> int

val total_violations : unit -> int

val reset : unit -> unit
(** Zero every site's counters (sites stay registered); used between
    selfcheck fingerprint runs so both runs measure from scratch. *)

val report_lines : unit -> string list
(** One human-readable line per site, sorted by name. *)

val log_teardown : ?fmt:Format.formatter -> unit -> unit
(** Print offender sites (default [err_formatter]); silent when every
    measured poll stayed within budget. Mirrors {!Heap.log_teardown}
    for use in [Engine.Sim.at_teardown]. *)
