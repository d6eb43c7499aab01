type port = {
  mac : Addr.Mac.t;
  rx : string -> unit;
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
  tap_deliver : ts:Engine.Clock.t -> string -> unit;
  tap_drop : ts:Engine.Clock.t -> reason:drop_reason -> string -> unit;
}

type t = {
  sim : Engine.Sim.t;
  cost : Cost.t;
  mutable loss : float;
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

let attach t ~mac ~rx =
  let port = { mac; rx; tx_free = 0; rx_free = 0; owner = "" } in
  t.ports <- port :: t.ports;
  Hashtbl.replace t.by_mac mac port;
  port

let label_port t ~mac ~owner =
  match Hashtbl.find_opt t.by_mac mac with
  | Some port -> port.owner <- owner
  | None -> ()

let set_loss t loss = t.loss <- loss
let set_tap t tap = t.tap <- tap

(* Capture and wire-event hooks are pure observers: they read the frame
   the fabric was moving anyway and never touch the clock, the PRNG or
   the event queue — so enabling them cannot change the trace digest. *)

let on_drop t ?(src = "") ~reason frame =
  (match t.tap with
  | Some tap -> tap.tap_drop ~ts:(Engine.Sim.now t.sim) ~reason frame
  | None -> ());
  Engine.Sim.flight_note t.sim ~cat:Engine.Log.Fabric ~label:"drop" (String.length frame)
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
      Engine.Span.note_wire_drop spans ~flow ~src ~label:(Decode.line frame) ~reason
        ~at:(Engine.Sim.now t.sim)

let nic_drop t ~reason frame = on_drop t ~reason:(Nic_drop reason) frame

let deliver t frame dst =
  t.delivered <- t.delivered + 1;
  t.bytes <- t.bytes + String.length frame;
  Engine.Sim.trace_event t.sim ~category:Engine.Log.Fabric "deliver %dB -> %m"
    (String.length frame) dst.mac;
  Engine.Sim.flight_note t.sim ~cat:Engine.Log.Fabric ~label:"rx" (String.length frame)
    t.delivered;
  (* deliver runs at arrival time, so captures are timestamped in event
     order — pcap files come out monotone for free. *)
  (match t.tap with
  | Some tap -> tap.tap_deliver ~ts:(Engine.Sim.now t.sim) frame
  | None -> ());
  dst.rx frame

(* dlint-allow: transitive-alloc-in-hotpath scan-in-hotpath -- busy-path TX: a frame is being transmitted, so the delivery scheduling (and the broadcast walk over the fixed port list for ARP) is per-frame fabric work *)
let send t src ?(lossless = false) frame =
  let now = Engine.Sim.now t.sim in
  let len = String.length frame in
  let depart = max now src.tx_free + Cost.serialization_ns t.cost len in
  src.tx_free <- depart;
  let at_switch = depart + t.cost.Cost.propagation_ns + t.cost.Cost.switch_ns in
  (* Store-and-forward: the frame serializes again onto the destination
     link, queueing behind whatever that link is already carrying —
     this is where incast contention lives. *)
  (* Wire-time attribution: from the instant the frame starts
     serializing on the source uplink to its arrival at the port —
     propagation, switching and any store-and-forward queueing
     included. Dropped frames are not attributed (they never arrive). *)
  let wire_t0 = depart - Cost.serialization_ns t.cost len in
  if (not lossless) && t.loss > 0. && Engine.Prng.bool t.prng t.loss then begin
    t.dropped <- t.dropped + 1;
    Engine.Sim.trace_event t.sim ~category:Engine.Log.Fabric "drop %dB (injected loss)" len 0;
    on_drop t ~src:src.owner ~reason:Loss frame
  end
  else begin
    let corrupted =
      (not lossless) && t.corrupt > 0. && Engine.Prng.bool t.prng t.corrupt
      && String.length frame > Eth.size + 1
    in
    let frame =
      (* Bit rot in flight: flip one byte past the Ethernet header. *)
      if corrupted then begin
        let b = Bytes.of_string frame in
        let i = Eth.size + Engine.Prng.int t.prng (Bytes.length b - Eth.size) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
        Bytes.unsafe_to_string b
      end
      else frame
    in
    if corrupted then
      (* The damaged frame still travels (the receiver's checksum turns
         it into loss), but the damage tap makes the bit rot visible. *)
      (match t.tap with
      | Some tap -> tap.tap_drop ~ts:now ~reason:Corrupt frame
      | None -> ());
    (* Flow attribution is computed once per send, lazily: decoding
       costs nothing unless a span recorder is attached. *)
    let wire_info =
      match Engine.Sim.spans t.sim with
      | None -> None
      | Some spans ->
          let flow = match Flow.of_frame frame with Some f -> f | None -> 0 in
          Some (spans, flow, Decode.line frame)
    in
    let to_port p =
      let start = max at_switch p.rx_free in
      let arrival = start + Cost.serialization_ns t.cost len in
      p.rx_free <- arrival;
      (match wire_info with
      | None -> ()
      | Some (spans, flow, label) ->
          Engine.Span.note_wire spans ~flow ~src:src.owner ~dst:p.owner ~label ~t0:wire_t0
            ~t1:arrival);
      arrival - now
    in
    let dst_mac = Wire.get_u48 (Bytes.unsafe_of_string frame) 0 in
    if Addr.Mac.is_broadcast dst_mac then
      List.iter
        (fun p ->
          if p != src then
            Engine.Sim.schedule t.sim ~delay:(to_port p) (fun () -> deliver t frame p))
        t.ports
    else
      match Hashtbl.find_opt t.by_mac dst_mac with
      | Some p -> Engine.Sim.schedule t.sim ~delay:(to_port p) (fun () -> deliver t frame p)
      | None ->
          t.dropped <- t.dropped + 1;
          on_drop t ~src:src.owner ~reason:No_route frame
  end

let stats t = { frames_delivered = t.delivered; frames_dropped = t.dropped; bytes_carried = t.bytes }
