(* The receive ring as software sees it: [claimed] frames at its head
   were counted by a poll ([rx_take]) and not yet taken ([rx]); they no
   longer count as pending, exactly as if the poll had already removed
   them. *)
type rxq = {
  ring : Memory.Heap.buffer Engine.Ring.t;
  size : int;
  mutable claimed : int;
  mutable dropped : int;
  signal : Engine.Condvar.t;
}

type t = {
  fabric : Fabric.t;
  port : Fabric.port;
  mac : Addr.Mac.t;
  ip : Addr.Ip.t;
  rxq : rxq;
  tx_pipe : Hop.t; (* the tx pipeline: frames on their way to the fabric *)
  pipe_ns : int; (* the constant delay of either pipeline *)
  owner : string; (* span owner, precomputed so disabled spans stay allocation-free *)
}

let pending q = Engine.Ring.length q.ring - q.claimed

let land_frame fabric q frame =
  if pending q >= q.size then begin
    q.dropped <- q.dropped + 1;
    Fabric.nic_drop fabric ~reason:"rx-ring-overflow" frame;
    Memory.Heap.free frame
  end
  else begin
    Engine.Ring.push q.ring frame;
    Engine.Condvar.broadcast q.signal
  end

let create fabric ~mac ~ip ?(rx_ring_size = 1024) () =
  let sim = Fabric.sim fabric in
  let cost = Fabric.cost fabric in
  (* The NIC hardware pipeline runs between the wire and software, in
     both directions; virtualized profiles add vnet translation. *)
  let pipe_ns = cost.Cost.nic_hw_ns + cost.Cost.vnet_ns in
  let owner = Format.asprintf "dpdk-%a" Addr.Ip.pp ip in
  let rxq =
    {
      ring = Engine.Ring.create ();
      size = rx_ring_size;
      claimed = 0;
      dropped = 0;
      signal = Engine.Condvar.create sim;
    }
  in
  let rx_pipe = Hop.create sim ~deliver:(land_frame fabric rxq) in
  let rx frame =
    let t0 = Engine.Sim.now sim in
    Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner ~label:"rx" ~t0
      ~t1:(t0 + pipe_ns);
    Hop.send rx_pipe ~at:(t0 + pipe_ns) frame
  in
  let port = Fabric.attach fabric ~mac ~rx in
  let tx_pipe = Hop.create sim ~deliver:(fun frame -> Fabric.send fabric port frame) in
  { fabric; port; mac; ip; rxq; tx_pipe; pipe_ns; owner }

let mac t = t.mac
let ip t = t.ip
let frames t = Fabric.frames t.fabric

let tx t frame =
  let sim = Fabric.sim t.fabric in
  let t0 = Engine.Sim.now sim in
  Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner:t.owner ~label:"tx" ~t0
    ~t1:(t0 + t.pipe_ns);
  Hop.send t.tx_pipe ~at:(t0 + t.pipe_ns) frame

let rx_take t ~max =
  (* One poller at a time: a poll takes all it counted before the next
     one counts, so the frames a poll takes are the ones it counted. *)
  assert (t.rxq.claimed = 0);
  let n = min max (pending t.rxq) in
  t.rxq.claimed <- t.rxq.claimed + n;
  n

let rx t =
  if t.rxq.claimed = 0 then invalid_arg "Dpdk_sim.rx: no frame taken";
  t.rxq.claimed <- t.rxq.claimed - 1;
  Engine.Ring.pop t.rxq.ring

let rx_pending t = pending t.rxq
let rx_signal t = t.rxq.signal
let rx_dropped t = t.rxq.dropped
