(** The GC allocation-budget oracle: the repo's one allocation check.

    Disarmed (the default), {!enter}/{!leave_steady}/{!leave_busy} are
    single bool-check no-ops. Armed (selfcheck, and so [dune runtest]
    and [dune build @selfcheck]), it checks two kinds of window on the
    OCaml minor heap:

    - each steady-state poll of an instrumented poll loop must allocate zero
      words, after a per-site warmup that exempts first-use lazy
      initialisation;
    - a site registered with [~budget] words per unit must allocate at
      most [budget * units] words between {!enter} and
      [{!leave_busy} ~units]. The selfcheck holds each libOS's whole
      echo run to such a per-echo budget.

    [Gc.minor_words] is cumulative and monotonic, so deltas depend only
    on the allocation sequence, never on GC timing: the oracle is
    deterministic for a deterministic run and safe to fold into the
    selfcheck fingerprint. It is also process-wide, so a window must
    not span a fiber switch into work it does not own. The counter is
    held as an [int] (exact below 2^53): in native code
    [Gc.minor_words] returns an unboxed float, so the convert-and-store
    protocol itself allocates nothing. *)

type site
(** One instrumented poll loop or budgeted window, registered by name. *)

type stats = {
  site_name : string;
  polls : int;  (** steady polls observed (including warmup) *)
  measured : int;  (** steady polls actually measured (post-warmup) *)
  site_violations : int;
      (** measured steady polls that allocated, plus busy windows over
          budget *)
  worst_words : int;  (** max words over budget in one violating window *)
}

val set_armed : bool -> unit
(** Arm or disarm the oracle globally. Arming (re)calibrates the
    self-allocation overhead of a [Gc.minor_words] read. *)

val armed : unit -> bool

val site : ?warmup:int -> ?budget:int -> string -> site
(** Register (or look up — the registry is keyed by name) a site. The
    first [warmup] (default 16) steady polls are exempt from the
    zero-allocation assertion. [budget] is the words per unit a busy
    window may allocate; without it busy windows are unchecked. Call
    once at setup, not per poll. *)

val enter : site -> unit
(** Open the measured window: record the minor-words counter. *)

val leave_steady : site -> unit
(** Close the window as a steady-state poll (nothing happened): the
    delta must be zero; a positive delta is recorded as a violation. *)

val leave_busy : ?units:int -> site -> unit
(** Close the window as a busy one (work was done). On a site with a
    [budget], more than [budget * units] words (default [units] 1) is a
    violation; on any other site there is no assertion — completions,
    retransmits and deliveries may allocate. *)

val sites : unit -> stats list
(** Per-site statistics, sorted by site name (deterministic). *)

val total_measured : unit -> int
(** Measured (post-warmup) steady polls, all sites; busy windows are
    not counted. *)

val total_violations : unit -> int
(** Steady polls that allocated plus busy windows over budget, all
    sites. *)

val reset : unit -> unit
(** Zero every site's counters (sites stay registered); used between
    selfcheck fingerprint runs so both runs measure from scratch. *)

val log_teardown : ?fmt:Format.formatter -> unit -> unit
(** Print offender sites (default [err_formatter]); silent when every
    measured window stayed within budget. Mirrors {!Heap.log_teardown}
    for use in [Engine.Sim.at_teardown]. *)
