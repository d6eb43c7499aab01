(** The Catnip-style deterministic TCP/UDP stack (§6.3).

    One [Stack.t] serves one interface and implements UDP sockets, and
    TCP per RFC 793 with RFC 7323 window scaling and timestamps: the
    SYN / SYN-ACK handshake with listener backlogs, demux, and the full
    close state machine through TIME_WAIT. Each connection is one
    control-block record; its send side is a {!Sender} (zero-copy
    segments, Cubic or NewReno, RFC 6298 timeouts with Karn's rule and
    backoff, fast retransmit, SACK hole repair, zero-window probes) and
    its receive side a {!Reassembly} (out-of-order reassembly, flow
    control).

    Determinism: the stack never reads global time or randomness — the
    clock, the initial-sequence-number generator and every frame are
    inputs, so a recorded trace replays bit-for-bit ({e the Catnip
    debugging story}). *)

type t
type conn
type listener
type udp_socket

type config = {
  mss : int;
  rwnd_capacity : int;  (** receive buffering per connection. *)
  window_scale : int;  (** shift we advertise (RFC 7323). *)
  use_timestamps : bool;
  use_sack : bool;  (** negotiate selective acks (RFC 2018). *)
  cc : Cc.algorithm;
  min_rto_ns : int;
  max_rto_ns : int;
  syn_rto_ns : int;  (** initial handshake retransmit timeout. *)
  time_wait_ns : int;  (** 2*MSL. *)
  max_syn_retries : int;
}

val default_config : config

type event =
  | Udp_readable of udp_socket
  | Accept_ready of listener
  | Established of conn  (** active open completed. *)
  | Readable of conn  (** data or EOF arrived. *)
  | Push_completed of conn * int  (** a [send]'s segments all left once. *)
  | Closed of conn
  | Reset of conn

type tcp_state =
  | Syn_sent
  | Syn_received
  | Established_st
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed_st

val create :
  ?config:config ->
  ?trace:(string -> int -> int -> unit) ->
  iface:Iface.t ->
  heap:Memory.Heap.t ->
  prng:Engine.Prng.t ->
  events:(event -> unit) ->
  unit ->
  t
(** [heap] supplies receive-side buffers (handed to the application with
    ownership, per PDPIX pop semantics). [events] fires synchronously
    during [input]/[on_timer]/API calls. [trace] (default: drop) receives
    the stack's trace events — retransmits, RTO fires, TIME_WAIT entry,
    resets — as a static template and two int operands, formatted only
    when the trace is read; drivers wire it to {!Engine.Sim.trace_event}
    under the [Tcp] category. *)

val input : t -> Memory.Heap.buffer -> unit
(** Process one received Ethernet frame, a buffer of the interface's
    frame heap, and free it: the caller hands over its ownership, and
    whatever the stack keeps of it is copied out first. *)

val next_timer_ns : t -> int
(** Earliest armed timer deadline (ns), [max_int] when no timer is
    armed. Exact and allocation-free: a peek at the top of the stack's
    deadline heap ([Engine.Eventq]) after dropping the cancelled
    entries there, so pollers and the park decision of
    [Runtime.fast_path] can call it every iteration. *)

val timer_activity : t -> int
(** Count of timers fired so far: unchanged across an {!on_timer} call
    iff no timer fired. Dropping cancelled entries is not counted. *)

val on_timer : t -> unit
(** Fire every timer whose deadline is at or before the current clock
    (also flushes pending cumulative acks). Cost is proportional to the
    due entries, cancelled ones included — an idle call with nothing
    due does no per-connection work. Ties fire in arming order, the
    simulator's (time, insertion-seq) discipline; a timer armed by a
    firing one waits for the next call. *)

val flush_acks : t -> unit
(** Emit one cumulative ack per connection that received in-order data
    since the last flush. Dirty-tracked: connections enqueue themselves
    (once) when their ack first becomes pending, so a flush walks only
    those connections, in arming order — never the whole table. Drivers
    call this after each input burst; coalescing acks is what keeps ack
    processing off the bulk-transfer critical path. *)

(** {1 UDP} *)

val udp_bind : t -> port:int -> udp_socket
(** Raises [Invalid_argument] if the port is taken. *)

val udp_unbind : t -> udp_socket -> unit
(** Release the socket's port; datagrams to it are dropped from now on. *)

val udp_socket_port : udp_socket -> int

val udp_sendto : t -> udp_socket -> dst:Net.Addr.endpoint -> Memory.Heap.buffer -> unit
(** Transmit a datagram; the buffer is released back to the caller
    immediately (the frame is serialized inline — UDP sends are
    fire-and-forget). *)

val udp_recv : udp_socket -> (Net.Addr.endpoint * Memory.Heap.buffer) option
val udp_pending : udp_socket -> int

(** {1 TCP} *)

(** [tcp_listen ?backlog t ~port]: [backlog] (default 128) caps pending
    handshakes plus unaccepted connections; SYNs beyond it are silently
    dropped. *)
val tcp_listen : ?backlog:int -> t -> port:int -> listener

val tcp_unlisten : listener -> unit
(** Stop listening and release the port. Connections still waiting in
    the accept queue, and those that finish their handshake later, are
    aborted (RST). *)

val listener_port : listener -> int
val tcp_accept : listener -> conn option
val accept_pending : listener -> int

val tcp_connect : t -> dst:Net.Addr.endpoint -> conn
(** Begin an active open; [Established] fires when the handshake
    completes. *)

val send_mss : conn -> int
(** The payload bytes of a full data segment: the smaller of our and
    the peer's MSS, less the 12-byte timestamp option when timestamps
    were negotiated (RFC 6691), so a full segment is one IP datagram. *)

val tcp_send : conn -> ?push_id:int -> Memory.Heap.buffer list -> unit
(** Queue a scatter-gather list of buffers for transmission, splitting
    it into {!send_mss}-sized segments. Ownership: the stack holds a reference per segment until
    acknowledgment; [Push_completed (conn, push_id)] fires when every
    segment has been transmitted once (the PDPIX push completion).
    Raises [Invalid_argument] if the connection cannot send. *)

val tcp_recv : conn -> [ `Data of Memory.Heap.buffer | `Eof | `Nothing ]
val tcp_close : conn -> unit
(** Graceful close (FIN after queued data). The app is done with the
    connection: received buffers it never popped are freed once the
    connection is [Closed_st]. *)

val tcp_abort : conn -> unit
(** Hard close: send RST, drop state, free the received buffers the app
    never popped. *)

(** {1 Timer arming}

    The calls the stack arms and cancels a connection's two timers
    with, exposed so tests can pin their cost. Arming replaces the
    connection's live entry of that kind; cancelling an unarmed timer
    does nothing. *)

val arm_rto_at : conn -> int -> unit
val cancel_rto : conn -> unit
val arm_time_wait_at : conn -> int -> unit
val cancel_time_wait : conn -> unit

(** {1 Introspection} *)

val conn_id : conn -> int
(** Unique identifier within this stack, never reused (the map key
    libOSes find a connection's completion state by). *)

val conn_state : conn -> tcp_state
val conn_local : conn -> Net.Addr.endpoint
val conn_remote : conn -> Net.Addr.endpoint

(** Once a connection is [Closed_st], {!conn_cwnd} and
    {!conn_bytes_in_flight} read 0, {!conn_srtt} reads [None] and
    {!send_mss} reads the config MSS; {!tcp_send} raises and
    {!tcp_close}/{!tcp_abort} send nothing and only free the received
    buffers still queued. Until the app closes it, the app may pop
    those buffers (a read after a reset). *)

val conn_cwnd : conn -> int
val conn_srtt : conn -> int option
val conn_bytes_in_flight : conn -> int
val conn_retransmits : conn -> int
val conn_recv_queue_bytes : conn -> int

(** [conn_at_eof c]: the peer's FIN has been delivered and the receive
    queue is drained. *)
val conn_at_eof : conn -> bool
val live_connections : t -> int

type conn_stats = { live : int; ever_opened : int; peak : int }

val conn_stats : t -> conn_stats
(** O(1) connection census: currently live, ever opened (active plus
    passive), and the high-water mark of simultaneously live
    connections. *)

val total_retransmits : t -> int
(** Data-segment retransmissions across all connections this stack has
    ever carried. *)

val agg_cwnd : t -> int
(** Sum of congestion windows over live connections — an aggregate gauge
    for Demiscope timelines (0 when idle). *)

val agg_bytes_in_flight : t -> int
(** Sum of unacknowledged bytes over live connections. *)
