(** A deterministic registry of named counters and histograms.

    Find-or-create by name; iteration and {!dump} are name-sorted (via
    {!Engine.Det}), so two runs of the same scenario from one seed
    produce byte-identical reports regardless of hash-table layout or
    registration order — the property the determinism selfcheck digests
    rely on. Naming convention: [<owner>/<subsystem>/<metric>], e.g.
    [client-0/sched/context_switches] or [fabric/frames_delivered]. *)

type entry = Counter of int ref | Hist of Hdr.t

type t

val create : unit -> t

val counter : t -> string -> int ref
(** Find or create. Raises [Invalid_argument] if [name] is registered as
    a histogram. *)

val histogram : t -> string -> Hdr.t
(** Find or create. Raises [Invalid_argument] if [name] is registered as
    a counter. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set : t -> string -> int -> unit

val observe : t -> string -> int -> unit
(** Record a sample into the named histogram. *)

val value : t -> string -> int option
(** The counter's value, or [None] if absent or a histogram. *)

val sorted_names : t -> string list

val iter : t -> (string -> entry -> unit) -> unit
(** Name-sorted. *)

val counters : t -> (string * int) list
val histograms : t -> (string * Hdr.t) list

val dump : t -> unit
(** Print counters and histogram summaries as {!Table}s (stdout),
    name-sorted. *)

val to_json : t -> string
(** The registry as a JSON object:
    [{"counters": {...}, "histograms": {name: {count,p50,p99,p999,max}}}],
    name-sorted for deterministic output ([demi stats --format json]). *)
