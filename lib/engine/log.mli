(** The event ring behind every recorder.

    A {!Sim.t} keeps one ring per armed stream — the event trace behind
    the determinism digest, the flight recorder, spans with wire
    events, causal contexts — so arming one stream never evicts
    another's events. A record is a virtual time, an immediate tag,
    three strings that already exist (a label, an owner, an aux) and
    five int operands; {!record} stores immediates and pointers only,
    so it allocates nothing once the storage exists. Storage starts
    small and doubles up to the capacity; from then on the ring
    overwrites its oldest record, counted by {!dropped}.

    Meaning lives in the stream: a [render] function given at {!create}
    turns a {!row} into a category name and a message, and {!digest}
    and {!dump} are defined over it, so formatting happens only when a
    stream is read. Recording never reads the clock, touches a PRNG or
    schedules anything. *)

(** The datapath layer that produced a trace or flight event. [Custom]
    is the escape hatch for tests and one-off experiment markers. *)
type category = Fabric | Device | Sched | Tcp | Kernel | Storage | Libos | App | Custom of string

val category_name : category -> string
(** Lowercase stable name ([Custom s] prints as [s]). *)

type t

(** One decoded record (decoding allocates: read path only). *)
type row = {
  ts : Clock.t;
  tag : int;
  label : string;
  owner : string;
  aux : string;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
}

val create : ?render:(row -> string * string) -> capacity:int -> unit -> t
(** [capacity] must be positive ([Invalid_argument] otherwise);
    [render] defaults to {!text}. A stream read only through its own
    typed view (spans, causal contexts) is never digested or dumped,
    and keeps the default. *)

val record :
  t ->
  now:Clock.t ->
  tag:int ->
  label:string ->
  owner:string ->
  aux:string ->
  int ->
  int ->
  int ->
  int ->
  int ->
  unit
(** O(1), allocation-free once the storage holds the record. *)

val total : t -> int
(** Records ever written, including overwritten ones. *)

val kept : t -> int
val dropped : t -> int
(** [total - kept]: history lost to wraparound. *)

val rows : t -> row list
(** The retained window, oldest first. *)

val digest : t -> string
(** Stable 64-bit FNV-1a (16 hex chars) of {!total} and, per retained
    row oldest first, its time, rendered category and rendered message.
    Equal runs from one seed give equal digests; the determinism
    selfcheck is built on the trace stream's. *)

val dump : ?categories:string list -> ?last:int -> Format.formatter -> t -> unit
(** Print the retained window oldest first, optionally only rendered
    [categories] and/or the [last] n rows, after a leading line when
    wraparound lost history. *)

val report : name:string -> t -> unit
(** One stderr line when the ring overwrote records; silent otherwise. *)

(** {1 Category-tagged events (trace and flight streams)} *)

val event :
  t ->
  now:Clock.t ->
  category:category ->
  label:string ->
  owner:string ->
  aux:string ->
  int ->
  int ->
  unit
(** Record an event with string operands [owner]/[aux] and int
    operands [a]/[b]. A [Custom name] event stores the name as owner,
    and its label is caller-built text. *)

val text : row -> string * string
(** The trace rendering of an {!event}: its category name, and its
    label read as a template — [%d] prints the next int operand ([a],
    then [b]), [%b] prints it as a bool, [%m] as a MAC address, [%s]
    prints the next string operand ([owner], then [aux]), [%%] a
    percent sign. A [Custom] event's label prints verbatim. *)

val operands : row -> string * string
(** The flight rendering of an {!event}: its category name, and its
    label followed by both int operands. *)
