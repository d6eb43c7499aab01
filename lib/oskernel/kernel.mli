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

type write = Bytes.t -> int -> unit
(** [write b off] fills [len] bytes of [b] from [off], a fresh kernel
    buffer: the call's one user -> kernel copy, which the kernel charges. *)

type 'a read = Bytes.t -> int -> int -> 'a
(** [read b off len] copies the payload's [len] bytes of [b] from [off]
    out: the call's one kernel -> user copy, which the kernel charges.
    The kernel frees [b] when [read] returns, so [read] must not keep it. *)

(** {1 UDP} *)

val udp_socket : t -> port:int -> fd
val sendto : t -> fd -> dst:Net.Addr.endpoint -> len:int -> write:write -> unit
val recvfrom : t -> fd -> block:bool -> read:'a read -> (Net.Addr.endpoint * 'a) option
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

val send : t -> fd -> len:int -> write:write -> unit
(** Copy the payload into the kernel and transmit it. On a connection
    the peer reset (seen after draining the device) it copies and
    allocates nothing and raises {!Connection_reset}. *)

val recv : t -> fd -> block:bool -> read:'a read -> 'a option
(** [None] only in non-blocking mode with nothing pending, on EOF or
    after a reset (distinguish with {!at_eof} and {!was_reset}). *)

val at_eof : t -> fd -> bool

val was_reset : t -> fd -> bool
(** The peer reset this connection: a read fails (ECONNRESET) rather
    than waiting for data that cannot come. *)

val close : t -> fd -> unit
(** Close the fd. A listener or UDP socket frees its port, and a
    listener aborts the connections it had not handed out. *)

val ready : t -> fd -> bool
(** Pure readiness check with no drain and no charge — the per-fd bit
    of an epoll ready list the kernel already computed. *)

val wait_readable : t -> fd list -> unit
(** epoll_wait: block (paying wakeup latency) until any fd is readable. *)

(** {1 Files (ext4-style durable log)} *)

val append_sync : t -> len:int -> write:write -> unit
(** write(2) + fsync(2) to an append-only file on the SSD: {!pwrite_sync}
    at the file's end. Raises [Failure] without an SSD. *)

val pwrite_sync : t -> off:int -> len:int -> write:write -> unit
(** pwrite(2) + fsync(2) at an explicit offset — how a restarted
    process appends past records recovered from a previous boot. Raises
    [Failure] without an SSD. *)

val read_log : t -> off:int -> len:int -> read:'a read -> 'a
(** pread(2) from the append-only file (blocking); [read] sees no bytes
    when the range is past the device's end. *)

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

val frames_in : t -> int
(** Frames drained from the NIC through the stack so far. A poller
    compares it across a pass: any syscall drains, so a frame taken by
    one fd's call can make another fd ready. *)

val heap : t -> Memory.Heap.t
