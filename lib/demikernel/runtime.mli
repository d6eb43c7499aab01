(** Shared datapath-OS runtime: queue tokens, the [wait_*] family, the
    one descriptor table (every qd of the host, its kind, its waiting
    pops or accepts, its in-flight connect and the close rule), the
    in-memory [queue()] type and the fast-path poll loop — everything
    that is identical across library OSes. Each libOS supplies only its
    device halves: a {!net} record of openers (and, with storage, an
    [open_log]), the closures of each queue it opens, and a [poll]
    function; the runtime assembles the full PDPIX {!Pdpix.api}. *)

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

(** {1 The descriptor table}

    One [qd -> queue] table per host. A queue is an unbound or bound
    socket, a listener, a stream, a datagram socket, a log or a
    [queue()]. Pops and accepts that wait for device data sit in the
    queue's FIFO of tokens and complete from its [next] source; a
    libOS opens a queue by installing its device closures. *)

type queue

val qd : queue -> Pdpix.qd

val accepted : t -> queue
(** Mint the descriptor of a connection an accept source is about to
    hand out (an unbound TCP socket until {!open_stream}). *)

val open_stream :
  queue ->
  next:(unit -> Pdpix.completion option) ->
  push:(Pdpix.sga -> Pdpix.qtoken) ->
  close:(unit -> unit) ->
  unit
(** Make the queue a stream: [next] answers its pops, [push] is only
    called while the stream has not failed, [close] is the device's
    close hook. *)

val open_listener : queue -> next:(unit -> Pdpix.completion option) -> close:(unit -> unit) -> unit
(** Make the queue a listener: [next] answers its accepts (minting each
    connection's queue with {!accepted}). *)

val open_datagram :
  queue ->
  next:(unit -> Pdpix.completion option) ->
  pushto:(Net.Addr.endpoint -> Pdpix.sga -> Pdpix.qtoken) ->
  close:(unit -> unit) ->
  unit

type log = {
  append : Pdpix.sga -> Pdpix.qtoken;
  read : unit -> Pdpix.qtoken;  (** a log pop *)
  seek : int -> unit;
  truncate : (int -> unit) option;  (** [None]: the device cannot trim a log's head *)
}

val new_log : t -> log -> queue
(** Mint a log's descriptor. *)

val serve : queue -> unit
(** Complete the oldest waiting tokens while [next] has a completion
    (it runs only while a token waits); once failed, complete them all
    failed. *)

val waiting : queue -> bool
(** Whether a token waits on the queue, so that {!serve} has work. *)

val connect_token : queue -> Pdpix.qtoken
(** Mint the queue's connect token; it completes through {!connected}
    or {!fail}. *)

val connect_pending : queue -> bool

val connected : queue -> Pdpix.completion -> unit
(** Complete the in-flight connect, if any, with the given result. *)

val fail : queue -> string -> unit
(** Fail the in-flight connect, every waiting pop or accept, and every
    later one, with [reason]; a push on a failed stream completes
    [Failed reason] without reaching the device. *)

val failed : queue -> string option

val close : queue -> unit
(** The one close rule: run the device's close hook, fail the queue
    with ["queue closed"] (its in-flight connect included) and drop its
    qd from the table. *)

(** {1 LibOS assembly} *)

type net = {
  listen : queue -> Net.Addr.endpoint -> backlog:int -> unit;
      (** open a listener on a bound TCP socket *)
  connect : queue -> Net.Addr.endpoint -> Pdpix.qtoken;
      (** open a stream on an unbound TCP socket; answers {!connect_token} *)
  bind_udp : (queue -> Net.Addr.endpoint -> unit) option;
      (** open a datagram socket; [None]: the libOS has none, and
          [socket Udp] raises {!Pdpix.Unsupported} *)
  waited : queue -> unit;
      (** a pop or accept now waits on the queue (usually {!serve}) *)
}

val make_api : t -> name:string -> net:net -> logs:(string -> Pdpix.qd) option -> Pdpix.api
(** Build the application-facing API over the host's descriptor table:
    sockets open through [net], logs through [logs] ([None]: no storage
    device, so [open_log], [seek] and [truncate] raise
    {!Pdpix.Unsupported} before any qd is looked up), and
    [wait]/[alloc]/[yield] come from the runtime. An unknown or closed
    qd, or a call the qd's kind does not support, raises
    [Invalid_argument]. Every libcall charges the datapath bookkeeping
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
