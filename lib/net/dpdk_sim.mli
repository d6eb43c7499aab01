(** The DPDK-class kernel-bypass NIC: a raw Ethernet device with
    user-level tx/rx rings and nothing else — every protocol above L2 is
    the software stack's problem, exactly the offload split Catnip
    builds on (§2.1).

    CPU costs of driving the device ([Cost.dpdk_tx_ns], [dpdk_rx_ns])
    are charged by the calling software; this module charges only the
    NIC hardware pipeline and, on virtualized profiles, the SmartNIC
    vnet translation.

    Both pipelines add the same constant delay, so each is a FIFO
    {!Hop}: a frame crossing the NIC in either direction allocates
    nothing (the rings and the one handler per pipeline are built at
    {!create}). The receive ring is an {!Engine.Ring} too, drained one
    frame at a time: a poll counts its frames once with {!rx_take} and
    then takes exactly that many with {!rx}.

    Frames are buffers of the fabric's frame heap ({!frames}) and move
    by reference: {!tx} takes the caller's frame, and {!rx} gives the
    caller a frame it must free (or hand on) when done with it. A frame
    dropped at a full receive ring is freed there. *)

type t

val create :
  Fabric.t -> mac:Addr.Mac.t -> ip:Addr.Ip.t -> ?rx_ring_size:int -> unit -> t
(** Attach a NIC to the fabric. [rx_ring_size] (default 1024) bounds the
    receive ring; frames arriving at a full ring are dropped, which is
    how overload shows up at µs scale. *)

val mac : t -> Addr.Mac.t
val ip : t -> Addr.Ip.t

val frames : t -> Memory.Heap.t
(** The heap transmitted frames are allocated from: the fabric's
    {!Fabric.frames}. *)

val tx : t -> Memory.Heap.buffer -> unit
(** Hand one frame, and its ownership, to the NIC for transmission
    (rte_tx_burst of one): it reaches the fabric after the pipeline
    delay. *)

val rx_take : t -> max:int -> int
(** Start a poll (rte_rx_burst): count [n = min max (rx_pending t)]
    frames at the head of the receive ring and return [n]. They stop
    counting as pending at once, as if removed; the caller then takes
    them, oldest first, with exactly [n] calls to {!rx}, before the
    next [rx_take] (one poller at a time, asserted). A frame that lands
    after this call waits for the next poll. *)

val rx : t -> Memory.Heap.buffer
(** Take the oldest frame counted by {!rx_take}; the caller owns it and
    frees it. Raises [Invalid_argument] when every counted frame has
    been taken. *)

val rx_pending : t -> int
(** Frames in the receive ring not yet counted by a poll. *)

val rx_signal : t -> Engine.Condvar.t
(** Broadcast whenever a frame lands in the rx ring. Pollers park here
    instead of spinning through idle virtual time. *)

val rx_dropped : t -> int
(** Frames dropped at a full rx ring (one holding [rx_ring_size]
    pending frames). *)
