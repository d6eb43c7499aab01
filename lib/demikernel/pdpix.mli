(** PDPIX: the portable datapath interface (§4.2).

    Queue-oriented rather than file-oriented: I/O-producing calls return
    a {e queue descriptor}; datapath operations ([push]/[pop]) are
    complete I/O requests returning a {e queue token} that [wait_*]
    redeems for the completion. Zero-copy ownership follows the paper's
    rules — [push] grants buffer ownership to the datapath OS until the
    token completes; [pop] hands the application ownership of buffers
    allocated from the DMA heap.

    Applications are written against the {!api} record and run
    unmodified on every library OS — the portability claim of Table 1
    (I1) made concrete.

    {1 Descriptor lifecycle}

    Every qd of a host lives in one table ({!Runtime}), whichever libOS
    opened it, so every libOS answers the calls below the same way.
    A qd is one of:

    - an {e unbound socket} ([socket]): [bind] makes a TCP socket a
      {e bound socket} and a UDP socket a {e datagram socket};
      [connect] makes an unbound TCP socket a {e stream};
    - a {e bound socket}: [listen] makes it a {e listener};
    - a {e listener}: [accept] (each completes [Accepted] with a new
      stream's qd);
    - a {e stream}: [push] and [pop] (a pop answers [Popped []] at end
      of file; after a peer reset, pushes and pops complete [Failed
      "connection reset"]);
    - a {e datagram socket}: [pushto] and [pop] ([Popped_from]);
    - a {e log} ([open_log]): [push], [pop], [seek], [truncate];
    - a {e [queue()]}: [push] and [pop].

    [close] is valid on every kind. Any other call on a qd — or any
    call on an unknown or closed qd — raises [Invalid_argument].

    {1 Capabilities a libOS lacks}

    {!Unsupported} is raised only for these. A host without storage
    refuses log calls before it looks the qd up; [truncate] on a log
    that cannot be trimmed raises once the qd is known to be a log.

    {t | libOS | lacks |
       |:--|:--|
       | Catnip | logs ([open_log], [seek], [truncate]) on a host without a disk |
       | Catnap | [truncate] (no ext4 head-trim) |
       | Catmint | datagram sockets ([socket Udp]); logs on a host without a disk |
       | Cattree | sockets: it is the storage half of a Catnip or Catmint host |} *)

type qd = int
(** Queue descriptor. *)

type qtoken = int
(** Queue token: the asynchronous result of a datapath operation. *)

type sga = Memory.Heap.buffer list
(** Scatter-gather array. *)

type proto = Tcp | Udp

type completion =
  | Accepted of qd  (** new connection queue. *)
  | Connected
  | Pushed
  | Popped of sga
  | Popped_from of Net.Addr.endpoint * sga  (** datagram pop. *)
  | Failed of string  (** connection reset, device error, ... *)

exception Unsupported of string
(** Raised by a call that needs a capability the libOS declares it
    lacks (the table above), e.g. [open_log] on a host without storage. *)

type api = {
  (* --- queue creation and management (control-path-looking calls that
     stay on the datapath, §4.2) --- *)
  socket : proto -> qd;
  bind : qd -> Net.Addr.endpoint -> unit;
  listen : qd -> backlog:int -> unit;
  accept : qd -> qtoken;
  connect : qd -> Net.Addr.endpoint -> qtoken;
  close : qd -> unit;
      (** Every token still outstanding on the qd — a waiting pop or
          accept, an in-flight connect — completes [Failed "queue
          closed"]; a closed listener or UDP socket releases its port.
          A log's device reads and writes complete from the device. *)
  queue : unit -> qd;  (** lightweight in-memory queue (Go-channel-like). *)
  open_log : string -> qd;  (** append-only log on the storage stack. *)
  seek : qd -> int -> unit;
      (** move a log queue's read cursor to a byte offset (§6.4). *)
  truncate : qd -> int -> unit;
      (** garbage-collect log records below a byte offset (§6.4). *)
  (* --- datapath --- *)
  push : qd -> sga -> qtoken;
  pushto : qd -> Net.Addr.endpoint -> sga -> qtoken;
  pop : qd -> qtoken;
  (* --- scheduling --- *)
  wait : qtoken -> completion;
  wait_any : qtoken array -> int * completion;
      (** Block until a token of the set completes; redeem it and return
          its index. When several are ready the lowest index wins, so
          the caller's array order is its service order. *)
  wait_any_t : qtoken array -> timeout_ns:int -> (int * completion) option;  (** [wait_any] with the timeout the paper's API carries; [None] on
      timeout — tokens stay redeemable. *)

  wait_all : qtoken array -> completion array;
  yield : unit -> unit;
  spin : int -> unit;  (** Busy-wait for a span of ns — how µs-scale load generators pace
      open-loop request streams (the CPU is burned, not yielded). *)

  (* --- memory (DMA-capable heap) --- *)
  alloc : int -> Memory.Heap.buffer;
  alloc_str : string -> Memory.Heap.buffer;
  free : Memory.Heap.buffer -> unit;
  (* --- introspection --- *)
  clock : unit -> int;
  libos_name : string;
  host_name : string;
      (** The simulated machine's name — the {!Engine.Span} owner and
          fabric port label, so causal events join spans and wire
          evidence without translation. *)
  causal : unit -> Engine.Causal.t option;
      (** The world's Demifleet recorder, if one is attached. A thunk so
          arming after api construction is seen; [None] costs callers a
          single branch. *)
}

val sga_length : sga -> int
(** Total payload bytes. *)

val sga_blit : sga -> Bytes.t -> int -> unit
(** [sga_blit sga dst off] gathers the payload into [dst] from [off]
    (one copy; the caller charges it): how a libOS hands a multi-buffer
    sga to the kernel or a device that takes one contiguous range. *)

val sga_to_string : sga -> string
(** Concatenated payload: one {!sga_blit} into a fresh string. For
    tests and app logic, not charged as a datapath copy. *)

(** {1 Runtime ownership oracle}

    The repo's one check of the buffer-ownership protocol, armed on
    every [Boot] node whose heap sanitizes: {!checked} wraps an {!api}
    so every buffer runs a per-slot state machine (App-owned → In-flight →
    back to App-owned when the push token completes; pop completions
    register libOS-handed buffers as App-owned) and every queue token
    is tracked until some [wait*] redeems it. Deviations are recorded,
    not raised, so a whole run can be audited at teardown next to the
    heap sanitizer's leak report. Violation kinds:

    - ["write-in-flight"] — a pushed buffer's payload changed between
      push and the [Pushed] completion (detected by digest; only when
      the buffer window is unchanged, so re-windowing cannot
      false-positive);
    - ["free-in-flight"] — [free] on a buffer whose push token is
      still outstanding;
    - ["dropped-token"] — at {!oracle_finish}, a token that was never
      passed to any [wait*] (tokens merely parked in a wait when the
      run ended do not count). *)

type ownership_violation = { kind : string; detail : string }

type oracle

val oracle : name:string -> unit -> oracle
(** Fresh oracle; [name] labels teardown reports (one oracle per
    wrapped api — token ids are per-runtime). *)

val checked : oracle -> api -> api
(** The same api, with every ownership-relevant operation observed by
    the oracle. Behavior is unchanged — violations are recorded for
    {!oracle_finish}, never raised. *)

val oracle_finish : oracle -> ownership_violation list
(** All violations in program order, closing the books: the first call
    also flags never-waited tokens as ["dropped-token"]. Idempotent. *)

val log_oracle_teardown : ?fmt:Format.formatter -> oracle -> unit
(** {!oracle_finish} and print any violations (default
    [err_formatter]); silent when the run was clean. Mirrors
    [Memory.Heap.log_teardown] for use in [Engine.Sim.at_teardown]. *)
