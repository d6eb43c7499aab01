(** The RDMA-class kernel-bypass NIC.

    Unlike {!Dpdk_sim}, this device implements a network transport in
    "hardware": ordered, reliable, flow-controlled message delivery
    (charged to the device, not the host CPU), plus memory registration
    with rkeys and one-sided remote writes. This is the offload
    asymmetry of §2.1 that forces a portable datapath OS: a libOS on
    this device (Catmint) needs no software transport, while a libOS on
    {!Dpdk_sim} (Catnip) needs a full TCP stack.

    Following Catmint's design (§6.2), there is one queue pair per
    device; connection multiplexing is the libOS's job. RDMA traffic
    rides the lossless fabric class (PFC).

    Each message travels as one frame of the fabric's frame heap
    ({!Fabric.frames}). Posting gathers the caller's byte range into the
    frame: that is the one copy of a message, the device's DMA, and the
    caller may reuse the range as soon as the post returns. A send that
    lands in a posted receive buffer completes as a receive carrying the
    frame itself, narrowed to the payload; the completion queue entry
    holds it, and whoever drains the entry frees it (DESIGN §16). The
    device frees every other frame it receives: RNR drops, one-sided
    writes (copied into their region), write acks, and frames that are
    not RoCE at all. *)

type t

type consumer = {
  batch : int -> unit;
      (** A drain took this many entries (at least one); runs before the
          first of them is handed over. *)
  send_done : int -> unit;
      (** A two-sided send with this [wr_id] left the device. *)
  recv : src_mac:Addr.Mac.t -> imm:int -> Memory.Heap.buffer -> unit;
      (** A two-sided send arrived and consumed a posted recv buffer.
          The frame's window is the message payload; the consumer owns
          the frame and must [Memory.Heap.free] it. *)
  write_done : wr_id:int -> ok:bool -> unit;
      (** A one-sided write was acknowledged by the remote device;
          [ok = false] means the rkey or bounds check failed. *)
}
(** What a completion queue drain does with each kind of entry: built
    once per poller, so a drain allocates nothing. *)

val create : Fabric.t -> mac:Addr.Mac.t -> ip:Addr.Ip.t -> unit -> t

val mac : t -> Addr.Mac.t
val ip : t -> Addr.Ip.t

val max_message_size : int
(** The largest payload whose frame fits one object of the frame heap
    (1 MiB less the RoCE headers). *)

(** {1 Two-sided verbs} *)

val post_send : t -> dst:Addr.Mac.t -> wr_id:int -> imm:int -> Bytes.t -> int -> int -> unit
(** [post_send t ~dst ~wr_id ~imm b off len]: reliable ordered send of
    the [len] bytes of [b] at [off], gathered into the frame at post
    time. Raises [Invalid_argument] beyond {!max_message_size}. *)

val post_recv : t -> unit
(** Post one receive buffer. An arriving message with no posted buffer
    is dropped and counted in {!rnr_drops} — the receiver-not-ready
    failure Catmint's flow-control credits exist to prevent. A frame
    that is not RoCE (another ethertype) is dropped as [not-roce]
    without touching the credits or the completion queue. *)

val recv_credits : t -> int

(** {1 One-sided verbs} *)

val register_region : t -> Bytes.t -> int
(** Expose a local region for remote writes; returns its rkey. *)

val post_write :
  t -> dst:Addr.Mac.t -> wr_id:int -> rkey:int -> offset:int -> Bytes.t -> int -> int -> unit
(** Write a byte range (gathered at post time, like {!post_send}) into a
    remote registered region at [offset]. Completes locally (a
    [write_done] entry) once the remote device acks. *)

(** {1 Completion queue}

    Entries are kept as int operands in rings (the frames of receives
    in a ring of their own), so a completion allocates nothing once the
    rings have grown to their peak depth, and a drain hands each entry
    to its consumer callback in place. *)

val drain_cq : t -> max:int -> consumer -> int
(** [drain_cq t ~max c] takes the oldest [n = min max (cq_pending t)]
    entries, tells [c.batch n] when [n > 0], then hands them to [c]
    oldest first, and returns [n]. The batch is fixed when the drain
    starts: an entry that completes while a callback runs (a callback
    may charge virtual time) waits for the next drain. Drains do not
    nest. *)

val cq_pending : t -> int
(** Entries not yet taken by a drain. *)

val cq_signal : t -> Engine.Condvar.t
val rnr_drops : t -> int
