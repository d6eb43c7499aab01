(** The SPDK-class NVMe device: asynchronous submission/completion
    queues over a byte-addressed persistent store, with Optane-class
    latency. Commands are submitted without blocking and complete on the
    completion queue — the poll-driven model Cattree's log stack sits
    on. The device executes one command at a time (Optane-like queue
    depth sensitivity is not the point; ordering determinism is). *)

type t

type completion = { id : int; ok : bool; data : string (** read payload, "" for writes *) }

val create : Engine.Sim.t -> cost:Cost.t -> capacity:int -> t

val capacity : t -> int

val submit_write : t -> id:int -> off:int -> string -> unit
(** Persist bytes at a device offset. Completes with [ok = false] when
    the range is out of bounds. *)

val submit_read : t -> id:int -> off:int -> len:int -> unit

val poll_cq : t -> max:int -> completion list
val cq_signal : t -> Engine.Condvar.t

val bytes_written : t -> int
val contents : t -> off:int -> len:int -> string
(** Direct peek at the store, for tests and crash-recovery checks. *)
