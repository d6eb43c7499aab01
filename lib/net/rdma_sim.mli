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
    ({!Fabric.frames}): the device builds it at post time and the
    receiving device frees it once the payload is copied out. *)

type t

type completion =
  | Send_done of { wr_id : int }
      (** A two-sided send left the device. *)
  | Recv of { src_mac : Addr.Mac.t; imm : int; payload : string }
      (** A two-sided send arrived and consumed a posted recv buffer. *)
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

val post_send : t -> dst:Addr.Mac.t -> wr_id:int -> imm:int -> string -> unit
(** Reliable ordered message send. Raises [Invalid_argument] beyond
    {!max_message_size}. *)

val post_recv : t -> unit
(** Post one receive buffer. An arriving message with no posted buffer
    is dropped and counted in {!rnr_drops} — the receiver-not-ready
    failure Catmint's flow-control credits exist to prevent. *)

val recv_credits : t -> int

(** {1 One-sided verbs} *)

val register_region : t -> Bytes.t -> int
(** Expose a local region for remote writes; returns its rkey. *)

val post_write :
  t -> dst:Addr.Mac.t -> wr_id:int -> rkey:int -> offset:int -> string -> unit
(** Write bytes into a remote registered region. Completes locally with
    [Write_done] once the remote device acks. *)

(** {1 Completion queue} *)

val poll_cq : t -> max:int -> completion list
val cq_pending : t -> int
val cq_signal : t -> Engine.Condvar.t
val rnr_drops : t -> int
