(** The Catnip-style deterministic TCP/UDP stack (§6.3).

    One [Stack.t] serves one interface and implements: UDP sockets, and
    TCP per RFC 793 with RFC 7323 window scaling and timestamps — SYN /
    SYN-ACK handshake with listener backlogs, Cubic (or NewReno)
    congestion control, RFC 6298 retransmission timeouts with Karn's
    rule and exponential backoff, fast retransmit on three duplicate
    acks, selective acknowledgments (RFC 2018) with a sender scoreboard
    that retransmits only the holes, out-of-order reassembly, flow
    control with zero-window probing, and the full close state machine
    through TIME_WAIT.

    Determinism: the stack never reads global time or randomness — the
    clock, the initial-sequence-number generator and every frame are
    inputs, so a recorded trace replays bit-for-bit ({e the Catnip
    debugging story}).

    Zero-copy: transmit payloads stay in the application's DMA heap;
    the stack takes a libOS reference per queued segment
    ([Heap.os_incref]) and releases it only when the segment is
    cumulatively acknowledged — retransmissions re-read the buffer, so
    use-after-free protection is load-bearing, not decorative. *)

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

val input : t -> string -> unit
(** Process one received Ethernet frame. *)

val next_timer : t -> int option
(** Earliest pending timer deadline (ns), if any. O(1): an exact peek
    into the stack's timer wheel ([Engine.Timerwheel]), so pollers and
    [Runtime.maybe_park] can call it every iteration for free.
    Allocates the [Some]; per-poll callers use {!next_timer_ns}. *)

val next_timer_ns : t -> int
(** {!next_timer} without the option: [max_int] means no timer armed.
    Allocation-free. *)

val timer_activity : t -> int
(** Cumulative [Engine.Timerwheel.activity] of the stack's wheel:
    unchanged across an {!on_timer} call iff no timer work (cascade or
    fire) happened — how the Catnip poll loop classifies an iteration
    as steady. *)

val on_timer : t -> unit
(** Fire every timer whose deadline is at or before the current clock
    (also flushes pending cumulative acks). Cost is proportional to the
    timers actually due — an idle call with nothing pending does no
    per-connection work. Ties fire in arming order, matching the event
    queue's (time, insertion-seq) discipline. *)

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

val listener_port : listener -> int
val tcp_accept : listener -> conn option
val accept_pending : listener -> int

val tcp_connect : t -> dst:Net.Addr.endpoint -> conn
(** Begin an active open; [Established] fires when the handshake
    completes. *)

val tcp_send : conn -> ?push_id:int -> Memory.Heap.buffer list -> unit
(** Queue a scatter-gather list of buffers for transmission, splitting
    it into MSS-sized segments. Ownership: the stack holds a reference per segment until
    acknowledgment; [Push_completed (conn, push_id)] fires when every
    segment has been transmitted once (the PDPIX push completion).
    Raises [Invalid_argument] if the connection cannot send. *)

val tcp_recv : conn -> [ `Data of Memory.Heap.buffer | `Eof | `Nothing ]
val tcp_close : conn -> unit
(** Graceful close (FIN after queued data). *)

val tcp_abort : conn -> unit
(** Hard close: send RST, drop state. *)

(** {1 Introspection} *)

val conn_id : conn -> int
(** Unique identifier within this stack (stable map key for libOSes). *)

val conn_slot : conn -> int
(** The connection's flat-TCB arena slot: a small dense integer, stable
    for the connection's lifetime, reused only after close. LibOSes use
    it as a direct array index (demux without hashing); [-1] once the
    connection has fully closed and the slot returned to the pool. *)

val conn_state : conn -> tcp_state
val conn_local : conn -> Net.Addr.endpoint
val conn_remote : conn -> Net.Addr.endpoint
val conn_cwnd : conn -> int
val conn_srtt : conn -> int option
val conn_bytes_in_flight : conn -> int
val conn_retransmits : conn -> int
val conn_recv_queue_bytes : conn -> int

(** [conn_at_eof c]: the peer's FIN has been delivered and the receive
    queue is drained. *)
val conn_at_eof : conn -> bool
val stack_iface : t -> Iface.t
val live_connections : t -> int

type conn_stats = { live : int; ever_opened : int; peak : int }

val conn_stats : t -> conn_stats
(** O(1) connection census: currently live, ever opened (active plus
    passive), and the high-water mark of simultaneously live
    connections. *)

val tcb_pool : t -> Memory.Pool.t
(** The flat-TCB arena, exposed for teardown sanitizer reporting and
    scale benchmarks ({!Memory.Pool.log_teardown}). *)

val total_retransmits : t -> int
(** Data-segment retransmissions across all connections this stack has
    ever carried. *)

val agg_cwnd : t -> int
(** Sum of congestion windows over live connections — an aggregate gauge
    for Demiscope timelines (0 when idle). *)

val agg_bytes_in_flight : t -> int
(** Sum of unacknowledged bytes over live connections. *)
