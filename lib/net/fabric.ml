type port = {
  mac : Addr.Mac.t;
  downlink : Hop.t; (* frames in flight to this port, in arrival order *)
  mutable tx_free : Engine.Clock.t; (* when this port's uplink is next idle *)
  mutable rx_free : Engine.Clock.t; (* when this port's downlink is next idle *)
  mutable owner : string; (* host name for wire-event attribution; "" until labelled *)
}

type stats = {
  frames_delivered : int;
  frames_dropped : int;
  bytes_carried : int;
}

type drop_reason = Loss | Corrupt | No_route | Nic_drop of string

type tap = {
  tap_deliver : ts:Engine.Clock.t -> Memory.Heap.buffer -> unit;
  tap_drop : ts:Engine.Clock.t -> reason:drop_reason -> Memory.Heap.buffer -> unit;
}

type t = {
  sim : Engine.Sim.t;
  cost : Cost.t;
  frames : Memory.Heap.t; (* every frame on this fabric, from its sender to its last holder *)
  loss : float;
  corrupt : float;
  prng : Engine.Prng.t;
  mutable ports : port list;
  by_mac : (Addr.Mac.t, port) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable tap : tap option;
}

let create sim ~cost ?(loss = 0.) ?(corrupt = 0.) () =
  {
    sim;
    cost;
    (* No headroom: a frame is written from its first byte. Superblocks
       come one at a time, on demand, from the ordinary size classes. *)
    frames = Memory.Heap.create ~label:"frames" ~headroom:0 ~mode:Memory.Heap.Pool_backed ();
    loss;
    corrupt;
    prng = Engine.Prng.split (Engine.Sim.prng sim);
    ports = [];
    by_mac = Hashtbl.create 16;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    tap = None;
  }

let sim t = t.sim
let cost t = t.cost
let frames t = t.frames

let deliver t ~mac ~rx frame =
  let len = Memory.Heap.length frame in
  t.delivered <- t.delivered + 1;
  t.bytes <- t.bytes + len;
  Engine.Sim.trace_event t.sim ~category:Engine.Log.Fabric "deliver %dB -> %m" len mac;
  Engine.Sim.flight_note t.sim ~cat:Engine.Log.Fabric ~label:"rx" len t.delivered;
  (* deliver runs at arrival time, so captures are timestamped in event
     order — pcap files come out monotone for free. *)
  (match t.tap with
  | Some tap -> tap.tap_deliver ~ts:(Engine.Sim.now t.sim) frame
  | None -> ());
  rx frame

let attach t ~mac ~rx =
  let downlink = Hop.create t.sim ~deliver:(deliver t ~mac ~rx) in
  let port = { mac; downlink; tx_free = 0; rx_free = 0; owner = "" } in
  t.ports <- port :: t.ports;
  Hashtbl.replace t.by_mac mac port;
  port

let label_port t ~mac ~owner =
  match Hashtbl.find_opt t.by_mac mac with
  | Some port -> port.owner <- owner
  | None -> ()

let set_tap t tap = t.tap <- tap

(* Capture and wire-event hooks are pure observers: they read the frame
   the fabric was moving anyway and never touch the clock, the PRNG or
   the event queue — so enabling them cannot change the trace digest. *)

let on_drop t ?(src = "") ~reason frame =
  (match t.tap with
  | Some tap -> tap.tap_drop ~ts:(Engine.Sim.now t.sim) ~reason frame
  | None -> ());
  Engine.Sim.flight_note t.sim ~cat:Engine.Log.Fabric ~label:"drop" (Memory.Heap.length frame)
    (match reason with Loss -> 1 | Corrupt -> 2 | No_route -> 3 | Nic_drop _ -> 4);
  match Engine.Sim.spans t.sim with
  | None -> ()
  | Some spans ->
      let flow = match Flow.of_frame frame with Some f -> f | None -> 0 in
      let reason =
        match reason with
        | Loss -> "loss"
        | Corrupt -> "corrupt"
        | No_route -> "no-route"
        | Nic_drop why -> why
      in
      Engine.Span.note_wire_drop spans ~flow ~src ~label:(Decode.frame_line frame) ~reason
        ~at:(Engine.Sim.now t.sim)

let nic_drop t ~reason frame = on_drop t ~reason:(Nic_drop reason) frame

(* Queue a frame onto a port's downlink. Store-and-forward: the frame
   serializes again onto the destination link, queueing behind whatever
   that link is already carrying — this is where incast contention
   lives. [rx_free] serializes the link, so a port's arrivals are
   monotone and its downlink is a FIFO. Wire-time attribution runs from
   the instant the frame starts serializing on the source uplink to its
   arrival at the port — propagation, switching and any
   store-and-forward queueing included. *)
let to_port t src p ~at_switch ~wire_t0 ~wire_label frame =
  let arrival =
    max at_switch p.rx_free + Cost.serialization_ns t.cost (Memory.Heap.length frame)
  in
  p.rx_free <- arrival;
  (match Engine.Sim.spans t.sim with
  | None -> ()
  | Some spans ->
      let flow = match Flow.of_frame frame with Some f -> f | None -> 0 in
      Engine.Span.note_wire spans ~flow ~src:src.owner ~dst:p.owner ~label:wire_label
        ~t0:wire_t0 ~t1:arrival);
  Hop.send p.downlink ~at:arrival frame

(* A copy of a frame, for the extra receivers of a broadcast. *)
let copy t frame =
  let len = Memory.Heap.length frame in
  let dup = Memory.Heap.alloc t.frames len in
  (* The switch replicates a broadcast frame per extra port (ARP only, cold path). *)
  Bytes.blit (Memory.Heap.data frame) (Memory.Heap.offset frame) (Memory.Heap.data dup)
    (Memory.Heap.offset dup) len;
  dup

(* Every port but the sender's gets the frame: the first one the frame
   itself, each later one a copy (made before the frame can arrive, so
   it copies the bytes as sent). With no other port the frame dies
   here. *)
let rec broadcast t src ~at_switch ~wire_t0 ~wire_label frame ~sent = function
  | [] -> if not sent then Memory.Heap.free frame
  | p :: rest ->
      if p == src then broadcast t src ~at_switch ~wire_t0 ~wire_label frame ~sent rest
      else begin
        let f = if sent then copy t frame else frame in
        to_port t src p ~at_switch ~wire_t0 ~wire_label f;
        broadcast t src ~at_switch ~wire_t0 ~wire_label frame ~sent:true rest
      end

let send t src ?(lossless = false) frame =
  let now = Engine.Sim.now t.sim in
  let len = Memory.Heap.length frame in
  let depart = max now src.tx_free + Cost.serialization_ns t.cost len in
  src.tx_free <- depart;
  let at_switch = depart + t.cost.Cost.propagation_ns + t.cost.Cost.switch_ns in
  let wire_t0 = depart - Cost.serialization_ns t.cost len in
  if (not lossless) && t.loss > 0. && Engine.Prng.bool t.prng t.loss then begin
    t.dropped <- t.dropped + 1;
    Engine.Sim.trace_event t.sim ~category:Engine.Log.Fabric "drop %dB (injected loss)" len 0;
    on_drop t ~src:src.owner ~reason:Loss frame;
    Memory.Heap.free frame
  end
  else begin
    let b = Memory.Heap.data frame and base = Memory.Heap.offset frame in
    let corrupted =
      (not lossless) && t.corrupt > 0. && Engine.Prng.bool t.prng t.corrupt && len > Eth.size + 1
    in
    if corrupted then begin
      (* Bit rot in flight: flip one byte past the Ethernet header, in
         the frame itself. The damaged frame still travels (the
         receiver's checksum turns it into loss), but the damage tap
         makes the bit rot visible. *)
      let i = base + Eth.size + Engine.Prng.int t.prng (len - Eth.size) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
      match t.tap with Some tap -> tap.tap_drop ~ts:now ~reason:Corrupt frame | None -> ()
    end;
    (* The wire label is decoded once per send, and only when a span
       recorder is attached. *)
    let wire_label =
      match Engine.Sim.spans t.sim with None -> "" | Some _ -> Decode.frame_line frame
    in
    let dst_mac = if len >= 6 then Wire.get_u48 b base else 0 in
    if Addr.Mac.is_broadcast dst_mac then
      broadcast t src ~at_switch ~wire_t0 ~wire_label frame ~sent:false t.ports
    else
      match Hashtbl.find t.by_mac dst_mac with
      | p -> to_port t src p ~at_switch ~wire_t0 ~wire_label frame
      | exception Not_found ->
          t.dropped <- t.dropped + 1;
          on_drop t ~src:src.owner ~reason:No_route frame;
          Memory.Heap.free frame
  end

let stats t = { frames_delivered = t.delivered; frames_dropped = t.dropped; bytes_carried = t.bytes }
