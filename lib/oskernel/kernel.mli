(** The legacy kernel I/O path, for baselines and for Catnap.

    Runs the same deterministic TCP/UDP stack as Catnip, but with the
    costs that make kernel POSIX unaffordable at µs scale: a user/kernel
    crossing per call, a payload copy at every boundary, kernel network
    stack processing per packet, and — for blocking callers — interrupt
    plus scheduler wakeup latency. Polling callers (Catnap's design)
    skip the wakeup latency and pay with a burned core.

    Deferred-drain model: packets wait in the NIC ring until the next
    syscall (or blocking-wait wakeup) drains them through the kernel
    stack; acks and retransmit timers also run at those points. With
    applications in tight I/O loops — the only regime the paper's
    baselines measure — this is equivalent to softirq processing but
    keeps each host strictly single-CPU. *)

type t

type mode =
  | Posix  (** classic syscalls. *)
  | Uring  (** io_uring-style batched submission: cheaper crossings. *)

type fd

val create :
  Engine.Sim.t ->
  ?name:string ->
  cost:Net.Cost.t ->
  nic:Net.Dpdk_sim.t ->
  ?ssd:Net.Ssd_sim.t ->
  ?mode:mode ->
  unit ->
  t

val mode : t -> mode

(** {1 UDP} *)

val udp_socket : t -> port:int -> fd
val sendto : t -> fd -> dst:Net.Addr.endpoint -> string -> unit
val recvfrom : t -> fd -> block:bool -> (Net.Addr.endpoint * string) option
(** [block:true] sleeps until a datagram arrives (charging wakeup
    latency); [block:false] is one non-blocking attempt. *)

(** {1 TCP} *)

val tcp_listen : t -> port:int -> fd
val accept : t -> fd -> fd
(** Blocking accept. *)

val connect : t -> dst:Net.Addr.endpoint -> fd
(** Blocking connect. Raises [Failure] on reset. *)

exception Connection_reset
(** ECONNRESET: {!send} on a connection the peer reset. *)

val send : t -> fd -> string -> unit
(** Copy the payload into the kernel and transmit it. On a connection
    the peer reset (seen after draining the device) it copies and
    allocates nothing and raises {!Connection_reset}. *)

val recv : t -> fd -> block:bool -> string option
(** [None] only in non-blocking mode with nothing pending, on EOF or
    after a reset (distinguish with {!at_eof} and {!was_reset}). *)

val at_eof : t -> fd -> bool

val was_reset : t -> fd -> bool
(** The peer reset this connection: a read fails (ECONNRESET) rather
    than waiting for data that cannot come. *)

val close : t -> fd -> unit
(** Close the fd. A listener or UDP socket frees its port, and a
    listener aborts the connections it had not handed out. *)

val readable : t -> fd -> bool
(** Data, an accepted connection, or EOF is ready (non-blocking check
    after a drain). *)

val ready : t -> fd -> bool
(** Pure readiness check with no drain and no charge — the per-fd bit
    of an epoll ready list the kernel already computed. *)

val wait_readable : t -> fd list -> unit
(** epoll_wait: block (paying wakeup latency) until any fd is readable. *)

(** {1 Files (ext4-style durable log)} *)

val append_sync : t -> string -> unit
(** write(2) + fsync(2) to an append-only file on the SSD: {!pwrite_sync}
    at the file's end. Raises [Failure] without an SSD. *)

val pwrite_sync : t -> off:int -> string -> unit
(** pwrite(2) + fsync(2) at an explicit offset — how a restarted
    process appends past records recovered from a previous boot. Raises
    [Failure] without an SSD. *)

val read_log : t -> off:int -> len:int -> string
(** pread(2) from the append-only file (blocking). *)

val log_size : t -> int
(** Bytes appended so far this boot (the file is larger after a crash;
    readers discover the end by the zero-length framing sentinel). *)

(** {1 Nonblocking primitives (for Catnap's polling design)}

    These never sleep: they charge a crossing, drain pending packets
    through the kernel stack, and return immediately. *)

val poll : t -> unit
(** One nonblocking drain: pull NIC frames through the stack and run
    protocol timers (the work a syscall would do on entry). *)

val try_accept : t -> fd -> fd option
val connect_start : t -> dst:Net.Addr.endpoint -> fd
val connect_status : t -> fd -> [ `Pending | `Ok | `Refused ]
val rx_signal : t -> Engine.Condvar.t
val next_timer_ns : t -> int
(** Earliest protocol-timer deadline (ns), [max_int] when none is armed.
    Allocation-free, for per-poll deadline peeks. *)

(** {1 Introspection} *)

val syscalls : t -> int
val heap : t -> Memory.Heap.t
