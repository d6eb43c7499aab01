(** The datacenter network fabric: every host NIC attaches to one
    switch. The fabric charges wire serialization (per-port transmit
    queueing at link rate), propagation and switching latency, and can
    drop or corrupt frames deterministically for fault-injection tests.

    Frames are the serialized bytes produced by the wire codecs; the
    destination is taken from the Ethernet header, so the fabric behaves
    like a learning switch with a full table.

    A frame is a {!Memory.Heap.buffer} of the fabric's one frame heap
    ({!frames}, the DMA-capable memory of §5.3 as the NICs use it): the
    sender allocates it, and from then on exactly one holder owns it at
    a time. Whoever holds a frame either hands it on (to a device
    pipeline, the fabric, a downlink, a receive ring) or frees it.
    {!send} takes ownership; a frame the fabric drops (loss, no route)
    is freed where it dies, and the port's [rx] callback owns every
    frame it is given. A broadcast copies the frame once per extra
    port. Each reader bounds itself by the frame's [offset] and
    [length], never by its store.

    Each port's downlink serializes the frames it carries, so a port's
    arrivals come in the order the fabric accepted them, and the
    downlink is a FIFO {!Hop}: its in-flight frames sit in a ring and
    each arrival runs the one handler built at {!attach}. Moving a
    frame across the fabric allocates nothing once the rings have
    grown. *)

type t

type port

type stats = {
  frames_delivered : int;
  frames_dropped : int;
  bytes_carried : int;
}

val create : Engine.Sim.t -> cost:Cost.t -> ?loss:float -> ?corrupt:float -> unit -> t
(** [loss] is an i.i.d. frame-drop probability (default 0) applied to
    lossy traffic only (RDMA traffic rides a lossless class, as PFC
    provides in the paper's RoCE deployments). [corrupt] flips one
    random payload byte with the given probability — checksums must
    turn corruption into loss. *)

val sim : t -> Engine.Sim.t
val cost : t -> Cost.t

val frames : t -> Memory.Heap.t
(** The frame heap: no headroom, the heap's ordinary size classes, one
    superblock per class at a time, made when first needed. It is not
    any host's heap, so frames never show in a host's heap counts. *)

val attach : t -> mac:Addr.Mac.t -> rx:(Memory.Heap.buffer -> unit) -> port
(** Attach a NIC. [rx] fires (as a simulation event) when a frame
    arrives at this port, and owns that frame. *)

val label_port : t -> mac:Addr.Mac.t -> owner:string -> unit
(** Name the host behind a port. Wire events (Demiscope causal flows)
    carry these names so the Chrome exporter can join a frame to op
    spans on both hosts; unlabelled ports attribute as [""]. A no-op
    for unknown MACs. *)

val send : t -> port -> ?lossless:bool -> Memory.Heap.buffer -> unit
(** Transmit a frame, a buffer of {!frames}, out of a port; the fabric
    takes ownership. Unicast frames go to the port owning the
    destination MAC; broadcast frames go to every other port. *)

(** {1 Demiscope taps}

    Taps are pure observers of frames the fabric was moving anyway:
    they never touch the clock, the PRNG or the event queue, so
    attaching one cannot change the trace {!Engine.Log.digest} (checked by
    [make pcap-smoke]). A tap reads the frame it is shown and keeps
    nothing of it: the frame belongs to someone else and is freed later. *)

type drop_reason =
  | Loss  (** injected i.i.d. frame loss. *)
  | Corrupt
      (** bit rot: the damaged frame {e is} still delivered (checksums
          turn it into loss at the receiver), but the tap sees the
          damage at the instant it happens. *)
  | No_route  (** destination MAC unknown to the switch. *)
  | Nic_drop of string  (** device-side drop (ring overflow, RNR, ...). *)

type tap = {
  tap_deliver : ts:Engine.Clock.t -> Memory.Heap.buffer -> unit;
      (** every frame handed to a port, at arrival time — so capture
          order is timestamp order. *)
  tap_drop : ts:Engine.Clock.t -> reason:drop_reason -> Memory.Heap.buffer -> unit;
}

val set_tap : t -> tap option -> unit

val nic_drop : t -> reason:string -> Memory.Heap.buffer -> unit
(** Report a device-side drop into the tap (and the wire-event record
    when spans are on). Called by the NIC simulators so lost frames are
    visible in the damage capture wherever they die; the caller still
    owns the frame and frees it afterwards. *)

val stats : t -> stats
