(** Demifleet causal-context recorder.

    One recorder hangs off the {!Sim.t} (like the trace, flight and
    span streams); every host of the experiment appends into the same
    stream, already in virtual-time order. Apps mint request and
    message ids here and note four event kinds: [Begin]/[End] bracket a
    request on its root host; [Sent]/[Received] bracket each cross-host
    message, carrying the 16-byte wire context ([req], [msg], [parent],
    [hop]) plus the local op-span qtoken — the link from the causal DAG
    back to Demitrace spans. Recording is pure observation: ids are
    only minted when a recorder is attached, and a detached run writes
    all-zero contexts of identical byte length, so the event
    interleaving, the clock and the trace digest are unchanged
    ([demi fleet --check] is the gate). The events live in the
    recorder's own {!Log.t}; this module mints ids and encodes notes. *)

type kind = Begin | Sent | Received | End

val kind_name : kind -> string

type event = {
  ev_kind : kind;
  ev_req : int;  (** request id; 0 = no context. *)
  ev_msg : int;  (** message id ([Sent]/[Received]); 0 on [Begin]/[End]. *)
  ev_parent : int;  (** msg id this message responds to; 0 = request root. *)
  ev_hop : int;  (** hop count: 1 = first cross-host leg. *)
  ev_host : string;  (** recording host ({!Span} owner / port label). *)
  ev_op : int;  (** local op-span qtoken (push/pop/pushto); 0 if none. *)
  ev_time : Clock.t;
}

type t

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] events (default 262144) that overwrites its
    oldest once full. *)

val log : t -> Log.t

val fresh_req : t -> int
(** Mint a request id (from 1; 0 is reserved for "no context"). *)

val fresh_msg : t -> int
(** Mint a message id (from 1). *)

val note :
  t ->
  kind:kind ->
  req:int ->
  msg:int ->
  parent:int ->
  hop:int ->
  host:string ->
  op:int ->
  now:Clock.t ->
  unit

val events : t -> event list
(** The retained events, oldest first (virtual-time order). *)
