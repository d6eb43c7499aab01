(** Shared datapath-OS runtime: queue tokens, the [wait_*] family, queue
    descriptor allocation, and the in-memory [queue()] type — everything
    that is identical across library OSes. Each libOS supplies an
    {!ops} record for its device-specific queues; the runtime assembles
    the full PDPIX {!Pdpix.api}. *)

type t

val create : Host.t -> t

val host : t -> Host.t
val sched : t -> Dsched.t

(** {1 Tokens} *)

val fresh_token : t -> Pdpix.qtoken
val complete : t -> Pdpix.qtoken -> Pdpix.completion -> unit
(** Record a result, put the token on the ready list, and wake the one
    coroutine waiting on it, if any: the latest to register, by [wait]
    on this token or by a blocked [wait_any] whose set contains it.
    Completing a token twice is an error (assertion). *)

val completed_token : t -> Pdpix.completion -> Pdpix.qtoken
(** Allocate and complete in one step — the inline fast path. *)

(** {1 Queue descriptors} *)

val fresh_qd : t -> Pdpix.qd

(** {1 LibOS assembly} *)

type ops = {
  op_name : string;
  op_owns : Pdpix.qd -> bool;  (** does this libOS manage the qd? *)
  op_socket : Pdpix.proto -> Pdpix.qd;
  op_bind : Pdpix.qd -> Net.Addr.endpoint -> unit;
  op_listen : Pdpix.qd -> int -> unit;
  op_accept : Pdpix.qd -> Pdpix.qtoken;
  op_connect : Pdpix.qd -> Net.Addr.endpoint -> Pdpix.qtoken;
  op_close : Pdpix.qd -> unit;
  op_push : Pdpix.qd -> Pdpix.sga -> Pdpix.qtoken;
  op_pushto : Pdpix.qd -> Net.Addr.endpoint -> Pdpix.sga -> Pdpix.qtoken;
  op_pop : Pdpix.qd -> Pdpix.qtoken;
  op_open_log : string -> Pdpix.qd;
  op_seek : Pdpix.qd -> int -> unit;
  op_truncate : Pdpix.qd -> int -> unit;
}

val unsupported : string -> 'a
(** Raise {!Pdpix.Unsupported}; plug into [ops] holes. *)

val combine : net:ops -> storage:ops -> ops
(** The §5.5 network x storage integration: one PDPIX namespace whose
    queue operations dispatch on descriptor ownership; [open_log] goes
    to the storage libOS, sockets to the network libOS. *)

val make_api : t -> ops -> Pdpix.api
(** Build the application-facing API: device queues go to [ops],
    in-memory queues are handled here, and [wait]/[alloc]/[yield] come
    from the runtime. Every libcall charges the datapath bookkeeping
    cost ([Cost.libos_sched_ns]), keeping PDPIX calls ns-scale but not
    free. *)

(** {1 Execution} *)

val spawn_app : t -> ?name:string -> (Pdpix.api -> unit) -> Pdpix.api -> unit
(** Add an application worker coroutine running [main api]. *)

val start : t -> unit
(** Spawn the host's engine fiber running the scheduler loop. Call once,
    after the libOS and app coroutines are set up; {!Engine.Sim.run}
    then drives everything. *)

(** {1 Idle coordination for fast-path coroutines}

    Each fast-path coroutine owns a slot. When it finds no device work
    it marks the slot idle and calls {!maybe_park}: if every other fast
    path is idle too and no application coroutine is runnable, the call
    parks the host fiber on the union of registered device signals
    (bounded by the earliest registered protocol timer) and returns
    [true]; otherwise it returns [false] and the caller should just
    yield. This is how polling libOSes coexist on one CPU without
    simulating billions of empty polls. *)

type fp_slot

val new_fp_slot : t -> fp_slot
val fp_busy : fp_slot -> unit
val register_io_signal : t -> Engine.Condvar.t -> unit
val register_timer_source : t -> (unit -> int) -> unit
(** The source returns its earliest pending deadline in virtual ns, or
    [max_int] for none — int-based so the per-poll peek allocates
    nothing (see [Tcp.Stack.next_timer_ns]). *)

val maybe_park : t -> fp_slot -> bool
