(** Deterministic flow identifiers for cross-host causality (Demiscope).

    A flow id names one conversation on the wire — a TCP connection, a
    UDP port pair, or an RDMA QP pair — and is {e direction-free}: both
    ends of the conversation, and frames travelling either way, map to
    the same id, so a client push span and the matching server pop span
    can be joined by id alone. Ids are pure functions of addresses
    (FNV-1a over the canonicalized tuple), so they are identical across
    runs of the same seed and across hosts — no registry, no handshake. *)

val of_endpoints : proto:int -> Addr.endpoint -> Addr.endpoint -> int
(** [proto] is the IPv4 protocol number ({!Ipv4.protocol_tcp} /
    {!Ipv4.protocol_udp}); the two endpoints are canonically ordered
    before hashing, so argument order does not matter. *)

val of_macs : Addr.Mac.t -> Addr.Mac.t -> int
(** RDMA (RoCE) flows: one id per NIC pair. *)

val of_frame : Memory.Heap.buffer -> int option
(** Derive the id from a heap frame via {!Decode.parse_frame}. [None] for
    frames that carry no conversation (ARP, malformed, unknown
    ethertypes) and for non-first IPv4 fragments (no ports on the
    wire). *)

val evidence :
  src:string ->
  dst:string ->
  t0:int ->
  t1:int ->
  Engine.Span.wire_event list ->
  Engine.Span.wire_event list
(** Flow ↔ request correlation (Demifleet): the wire events that can
    witness one causal edge — frames from host [src] to host [dst]
    (port-label names) whose journey overlaps [\[t0, t1\]], the edge's
    [Sent]→[Received] window. Drops and retransmits inside the window
    are included. *)
