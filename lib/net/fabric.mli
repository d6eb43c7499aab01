(** The datacenter network fabric: every host NIC attaches to one
    switch. The fabric charges wire serialization (per-port transmit
    queueing at link rate), propagation and switching latency, and can
    drop or corrupt frames deterministically for fault-injection tests.

    Frames are the serialized bytes produced by the wire codecs; the
    destination is taken from the Ethernet header, so the fabric behaves
    like a learning switch with a full table. *)

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

val attach : t -> mac:Addr.Mac.t -> rx:(string -> unit) -> port
(** Attach a NIC. [rx] fires (as a simulation event) when a frame
    arrives at this port. *)

val label_port : t -> mac:Addr.Mac.t -> owner:string -> unit
(** Name the host behind a port. Wire events (Demiscope causal flows)
    carry these names so the Chrome exporter can join a frame to op
    spans on both hosts; unlabelled ports attribute as [""]. A no-op
    for unknown MACs. *)

val send : t -> port -> ?lossless:bool -> string -> unit
(** Transmit a frame out of a port. Unicast frames go to the port owning
    the destination MAC; broadcast frames go to every other port. *)

val set_loss : t -> float -> unit
(** Change the drop probability mid-run (fault injection). *)

(** {1 Demiscope taps}

    Taps are pure observers of frames the fabric was moving anyway:
    they never touch the clock, the PRNG or the event queue, so
    attaching one cannot change the trace {!Engine.Log.digest} (checked by
    [make pcap-smoke]). *)

type drop_reason =
  | Loss  (** injected i.i.d. frame loss. *)
  | Corrupt
      (** bit rot: the damaged frame {e is} still delivered (checksums
          turn it into loss at the receiver), but the tap sees the
          damage at the instant it happens. *)
  | No_route  (** destination MAC unknown to the switch. *)
  | Nic_drop of string  (** device-side drop (ring overflow, RNR, ...). *)

type tap = {
  tap_deliver : ts:Engine.Clock.t -> string -> unit;
      (** every frame handed to a port, at arrival time — so capture
          order is timestamp order. *)
  tap_drop : ts:Engine.Clock.t -> reason:drop_reason -> string -> unit;
}

val set_tap : t -> tap option -> unit

val nic_drop : t -> reason:string -> string -> unit
(** Report a device-side drop into the tap (and the wire-event record
    when spans are on). Called by the NIC simulators so lost frames are
    visible in the damage capture wherever they die. *)

val stats : t -> stats
