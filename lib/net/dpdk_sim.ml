type t = {
  fabric : Fabric.t;
  port : Fabric.port;
  mac : Addr.Mac.t;
  ip : Addr.Ip.t;
  rx_ring : string Queue.t;
  rx_signal : Engine.Condvar.t;
  rx_dropped : int ref;
  owner : string; (* span owner, precomputed so disabled spans stay allocation-free *)
}

let create fabric ~mac ~ip ?(rx_ring_size = 1024) () =
  let sim = Fabric.sim fabric in
  let cost = Fabric.cost fabric in
  let rx_ring = Queue.create () in
  let rx_signal = Engine.Condvar.create sim in
  let rx_dropped = ref 0 in
  let owner = Format.asprintf "dpdk-%a" Addr.Ip.pp ip in
  let rx frame =
    (* The NIC hardware pipeline runs before the frame is visible to
       software; virtualized profiles add vnet translation. *)
    let hw = cost.Cost.nic_hw_ns + cost.Cost.vnet_ns in
    let t0 = Engine.Sim.now sim in
    Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner ~label:"rx" ~t0
      ~t1:(t0 + hw);
    Engine.Sim.schedule sim ~delay:hw (fun () ->
        if Queue.length rx_ring >= rx_ring_size then begin
          incr rx_dropped;
          Fabric.nic_drop fabric ~reason:"rx-ring-overflow" frame
        end
        else begin
          Queue.add frame rx_ring;
          Engine.Condvar.broadcast rx_signal
        end)
  in
  let port = Fabric.attach fabric ~mac ~rx in
  { fabric; port; mac; ip; rx_ring; rx_signal; rx_dropped; owner }

let mac t = t.mac
let ip t = t.ip

(* dlint: hotpath *)
let tx_burst t frames =
  match frames with
  | [] -> ()
  | frames ->
      (* One scheduled event per burst, not per frame: every frame in
         the burst leaves the NIC pipeline at the same virtual instant
         anyway (identical delay), and [Fabric.send] still charges
         per-frame wire serialization in list order — so batching cuts
         event-queue traffic without changing any arrival time. *)
      let cost = Fabric.cost t.fabric in
      let delay = cost.Cost.nic_hw_ns + cost.Cost.vnet_ns in
      let sim = Fabric.sim t.fabric in
      let t0 = Engine.Sim.now sim in
      Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner:t.owner ~label:"tx" ~t0
        ~t1:(t0 + delay);
      Engine.Sim.schedule sim ~delay
        (* dlint-allow: scan-in-hotpath -- the iter walks only this nonempty (busy) burst *)
        (fun () -> List.iter (fun frame -> Fabric.send t.fabric t.port frame) frames)

(* Top-level recursion (not a per-call closure): the empty-ring poll —
   the steady-state case — allocates nothing, because [List.rev []]
   returns [[]] without allocating. *)
(* dlint: hotpath *)
(* dlint-allow: scan-in-hotpath -- List.rev of the local accumulator: bounded by the burst size n, and [] on the steady empty poll *)
let rec take_burst ring n acc =
  (* dlint-allow: scan-in-hotpath -- the reversal walk exists only on busy polls, bounded by the burst; List.rev [] on the empty poll is free *)
  if n = 0 || Queue.is_empty ring then List.rev acc
  else
    take_burst ring (n - 1) (Queue.pop ring :: acc)

(* dlint: hotpath *)
let rx_burst t ~max = take_burst t.rx_ring max []

let rx_pending t = Queue.length t.rx_ring
let rx_signal t = t.rx_signal
let rx_dropped t = !(t.rx_dropped)
