(** One host's network interface as seen by the software stacks: frame
    serialization, IPv4 encapsulation and ARP resolution.

    The interface is parameterized on a [clock] and a [tx_frame] sink,
    never on the simulator — this is what makes the stack deterministic
    and trace-drivable (§6.3): feed [input] a recorded frame sequence
    and every output is a pure function of inputs and clock readings.

    Frames are {!Memory.Heap.buffer}s of a frame heap (on a fabric,
    {!Net.Fabric.frames}): each output allocates its frame there, writes
    the headers and transport bytes in place and hands the frame, with
    its ownership, to [tx_frame]. [input] reads a frame within its
    [offset] and [length] and leaves freeing it to the caller. *)

type t

val create :
  ?arp_retry_ns:int ->
  ?mtu:int ->
  mac:Net.Addr.Mac.t ->
  ip:Net.Addr.Ip.t ->
  clock:(unit -> int) ->
  frames:Memory.Heap.t ->
  tx_frame:(Memory.Heap.buffer -> unit) ->
  unit ->
  t
(** [frames] is the heap transmitted frames come from.
    [arp_retry_ns] (default 1 ms) bounds how often an unanswered ARP
    request is re-sent while packets are parked. [mtu] (default 1500)
    triggers RFC 791 fragmentation for larger datagrams; fragments are
    reassembled on input and presented as one packet. *)

val mac : t -> Net.Addr.Mac.t
val ip : t -> Net.Addr.Ip.t
val clock : t -> int

val output :
  t -> dst_ip:Net.Addr.Ip.t -> protocol:int -> len:int -> write:(Bytes.t -> int -> unit) -> unit
(** Emit an IPv4 packet carrying [len] bytes of transport data; [write]
    fills the transport header and payload at the given offset. If the
    destination MAC is unknown the packet is parked and an ARP request
    goes out; resolution flushes parked packets in order. *)

val input : t -> Memory.Heap.buffer -> deliver:(Net.Ipv4.t -> Bytes.t -> int -> unit) -> unit
(** Classify one received frame. ARP is handled internally (requests
    answered, replies learned); frames not addressed to this interface
    and malformed frames (any header, or the IPv4 datagram, reaching
    past the frame's end) are dropped. An IPv4 packet for this interface
    goes to [deliver header bytes off], its transport data at [off] in
    [bytes], ending [header.total_length - Ipv4.size] bytes later
    (within the frame); a fragment that completes a datagram delivers
    the reassembled payload at offset 0, under a header describing the
    whole datagram. The bytes are only valid during [deliver]: the
    frame is freed after [input] returns. [deliver] is the mirror of {!output}'s [write]: a
    caller builds it once, so a frame's way in allocates nothing.

    [header] is the interface's RX view: the next [input] overwrites
    it, and nothing else writes it. *)
