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
    lands in a posted receive buffer completes as [Recv] carrying the
    frame itself, narrowed to the payload; the completion queue entry
    holds it, and whoever polls the entry frees it (DESIGN §16). The
    device frees every other frame it receives: RNR drops, one-sided
    writes (copied into their region), write acks, and frames that are
    not RoCE at all. *)

type t

type completion =
  | Send_done of { wr_id : int }
      (** A two-sided send left the device. *)
  | Recv of { src_mac : Addr.Mac.t; imm : int; frame : Memory.Heap.buffer }
      (** A two-sided send arrived and consumed a posted recv buffer.
          [frame]'s window is the message payload; the poller owns the
          frame and must [Memory.Heap.free] it. *)
  | Write_done of { wr_id : int; ok : bool }
      (** A one-sided write was acknowledged by the remote device;
          [ok = false] means the rkey or bounds check failed. *)

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
    remote registered region at [offset]. Completes locally with
    [Write_done] once the remote device acks. *)

(** {1 Completion queue} *)

val poll_cq : t -> max:int -> completion list
val cq_pending : t -> int
val cq_signal : t -> Engine.Condvar.t
val rnr_drops : t -> int
