(** Shared datapath-OS runtime: queue tokens, the [wait_*] family, the
    pending-token queues behind every pop and accept, the close rule,
    queue descriptor allocation, the in-memory [queue()] type and the
    fast-path poll loop — everything that is identical across library
    OSes. Each libOS supplies an {!ops} record and a [poll] function
    for its device; the runtime assembles the full PDPIX {!Pdpix.api}. *)

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

(** {1 Pending-token queues}

    The FIFO of a queue's waiting pops (or accepts), built once per
    queue over a [next] source of ready completions. *)

type pending

val pending : t -> (unit -> Pdpix.completion option) -> pending
val enqueue : pending -> Pdpix.qtoken (** Mint a token; queue it last. *)

val serve : pending -> unit
(** Complete the oldest tokens while [next] has a completion (it runs
    only while a token waits); once failed, complete them all failed. *)

val waiting : pending -> bool
(** Whether a token waits on the queue, so that {!serve} has work. *)

val fail : pending -> string -> unit
(** Fail every waiting and every later token with [reason]. Closing a
    qd fails its pending queues with ["queue closed"]. *)

val failed : pending -> string option

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

(** {1 The fast-path loop} *)

val fast_path :
  t -> name:string -> signal:Engine.Condvar.t -> ?timer:(unit -> int) -> (unit -> bool) -> unit
(** [fast_path t ~name ~signal ?timer poll] spawns the device's poll
    coroutine: [poll ()] says whether it found device work; if not, the
    host fiber parks on every registered [signal] until the earliest
    [timer] deadline (virtual ns, [max_int] = none, see
    [Tcp.Stack.next_timer_ns]) — but only when every fast path is idle
    and no application coroutine can run. Either way it then yields.
    This is how polling libOSes share one CPU without simulating
    billions of empty polls. *)
