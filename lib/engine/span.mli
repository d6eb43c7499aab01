(** Demitrace span recorder: per-component virtual-ns attribution.

    Two kinds of record, both pure observations of the simulation:

    - {b component intervals} — a closed [\[t0, t1\]] stretch of virtual
      time attributed to a named component (libOS CPU, device queue,
      fabric wire-time, kernel crossing, ...). Producers note intervals
      for time they have {e already} charged through the cost model;
      the recorder never charges, sleeps or schedules, so enabling it
      cannot perturb the event interleaving (the observer-effect-free
      property [demi trace] asserts).
    - {b op spans} — one span per queue token, opened when a PDPIX
      [push]/[pop]/... is submitted and closed when its completion is
      delivered. Spans left open at teardown are leaks and are reported
      like the heap sanitizer's leak summary.

    Keyed by plain ints (qtokens) so the engine layer stays independent
    of the PDPIX types. Intervals and wire events live in the
    recorder's {!Log.t}; this module keeps the op table, the SLO
    watchdog and the per-component totals. *)

(** Where a nanosecond went. [Proto] is protocol work (TCP/UDP segment
    processing) as distinct from [Libos] glue (scheduling, polling,
    token bookkeeping); [Copy] is payload copies wherever they happen;
    [Softirq] is kernel-path per-frame network processing as distinct
    from [Kernel] syscall crossings and wakeups. *)
type component =
  | App
  | Sched
  | Libos
  | Proto
  | Device
  | Wire
  | Kernel
  | Copy
  | Softirq
  | Storage

val component_name : component -> string
val components : component list
(** All components, in a fixed presentation order. *)

val component_index : component -> int
(** Position in {!components}; stable across runs (used for array
    indexing and deterministic tie-breaks). *)

type interval = {
  comp : component;
  owner : string;  (** host or device name, e.g. ["client"], ["fabric"] *)
  label : string;
  t0 : Clock.t;
  t1 : Clock.t;  (** [t1 >= t0]; attribution is end-exclusive *)
}

type op = {
  op_key : int;
  mutable op_kind : string;  (** "push", "pop", ... (labelled post-hoc) *)
  op_owner : string;
  opened_at : Clock.t;
  mutable closed_at : Clock.t option;
  mutable op_ok : bool;  (** false when the completion was [Failed] *)
}

(** {2 Wire events (Demiscope)}

    One record per frame journey across the fabric, keyed by a
    deterministic flow id (computed by the network layer — the engine
    only stores it). [wire_src]/[wire_dst] are the {e host} owner names
    of the ports involved (empty when unknown, e.g. a frame dropped
    before its destination was resolved), which is what lets the Chrome
    exporter join a frame to the op spans it serviced on both ends. *)

type wire_status = Wire_delivered | Wire_dropped of string  (** reason *)

type wire_event = {
  wire_flow : int;
  wire_src : string;
  wire_dst : string;
  wire_label : string;  (** decoded one-line summary of the frame. *)
  wire_t0 : Clock.t;  (** first bit onto the source uplink. *)
  wire_t1 : Clock.t;  (** arrival at the destination port (= [wire_t0] for drops). *)
  wire_status : wire_status;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 262144) bounds the ring holding intervals and
    wire events; past it the oldest are overwritten (counted by
    {!dropped}) while the per-component totals keep accumulating. *)

val log : t -> Log.t

val note : t -> comp:component -> owner:string -> label:string -> t0:Clock.t -> t1:Clock.t -> unit

val note_wire :
  t -> flow:int -> src:string -> dst:string -> label:string -> t0:Clock.t -> t1:Clock.t -> unit
(** Record one delivered frame journey. It is also the fabric's [Wire]
    interval: it counts toward the [Wire] total, and {!intervals} lists
    it with owner ["fabric"]. *)

val note_wire_drop : t -> flow:int -> src:string -> label:string -> reason:string -> at:Clock.t -> unit
(** Record one dropped frame: it has no destination, and [t0 = t1 = at]. *)

val wire_events : t -> wire_event list
(** Oldest first. *)

val open_op : t -> key:int -> kind:string -> owner:string -> now:Clock.t -> unit
(** Op spans are keyed by [(owner, key)] — qtokens are only unique per
    host, and one recorder observes every host on the sim. *)

val label_op : t -> key:int -> owner:string -> string -> unit
(** Set the op's kind; a no-op for unknown keys. Works on open or
    already-closed spans (an instantly-completed op closes before the
    libcall wrapper learns its kind). *)

val close_op : t -> key:int -> owner:string -> now:Clock.t -> ok:bool -> unit
(** Idempotent; unknown keys are ignored (ops predating [enable_spans]). *)

(** {2 SLO watchdog (Demiflight)}

    Armed via {!set_slo}, the recorder checks every op's latency at
    close time and retains the ops that exceeded the threshold — a
    retroactive outlier capture: by the time the breach is known, the
    flight ring, wire events and sibling spans covering it are still
    retained and can be dumped ([demi slo]). Checking is a compare on
    the already-recorded timestamps, so arming the watchdog cannot
    perturb the run. *)

val set_slo : t -> threshold_ns:int -> unit
(** Arm the watchdog: ops taking strictly longer than [threshold_ns]
    (which must be positive) are captured as outliers. *)

val slo_threshold : t -> int option
(** The armed threshold, or [None] when disarmed (the default). *)

val outliers : t -> op list
(** Ops that breached the SLO, oldest first (at most 1024 retained;
    {!outlier_count} keeps the true total). *)

val outlier_count : t -> int

val intervals : t -> interval list
(** Oldest first. *)

val ops : t -> op list
(** All op spans (open and closed), in open order. *)

val open_ops : t -> op list
(** Spans never closed — leaks, in open order. *)

val dropped : t -> int
(** Intervals overwritten in the ring, delivered frames included. *)

val op_count : t -> int
val total : t -> component -> int
val totals : t -> (component * int) list
(** Per-component virtual-ns totals in {!components} order. *)

val log_teardown : ?fmt:Format.formatter -> t -> unit
(** Print a leak report (to stderr by default) when op spans are still
    open; silent otherwise. Registered by {!Sim.enable_spans} as a
    teardown hook. *)
