type consumer = {
  batch : int -> unit;
  send_done : int -> unit;
  recv : src_mac:Addr.Mac.t -> imm:int -> Memory.Heap.buffer -> unit;
  write_done : wr_id:int -> ok:bool -> unit;
}

type t = {
  fabric : Fabric.t;
  port : Fabric.port;
  mac : Addr.Mac.t;
  ip : Addr.Ip.t;
  (* The completion queue: entry [i] is the [i]th slot of each of the
     three int rings (its kind and two operands); a receive entry's
     frame waits in [cq_frames], in the same order. *)
  cq_kind : int Engine.Ring.t;
  cq_a : int Engine.Ring.t; (* the wr_id, or a receive's imm *)
  cq_b : int Engine.Ring.t; (* a receive's source MAC, or a write's ok (1 or 0) *)
  cq_frames : Memory.Heap.buffer Engine.Ring.t;
  mutable batch_left : int; (* entries of the drain in progress still in the rings *)
  cq_signal : Engine.Condvar.t;
  mutable recv_credits : int;
  mutable rnr_drops : int;
  regions : (int, Bytes.t) Hashtbl.t;
  mutable next_rkey : int;
  owner : string; (* span owner, precomputed so disabled spans stay allocation-free *)
  eth : Eth.t; (* the header view every frame in or out is read into or built in *)
  send_pipe : Hop.t; (* posted sends crossing the device, toward the fabric *)
  send_ids : int Engine.Ring.t; (* their wr_ids, in the same order *)
  write_pipe : Hop.t; (* posted writes crossing the device *)
}

let ethertype_roce = 0x8915

(* Message types on the wire. *)
let t_send = 0
let t_write = 1
let t_write_ack = 2

let k_send_done = 0
let k_recv = 1
let k_write_done = 2

let complete t kind a b =
  Engine.Ring.push t.cq_kind kind;
  Engine.Ring.push t.cq_a a;
  Engine.Ring.push t.cq_b b;
  Engine.Condvar.broadcast t.cq_signal

let sim t = Fabric.sim t.fabric
let hw_ns t = (Fabric.cost t.fabric).Cost.rdma_hw_ns

let note_hw t label =
  let s = sim t in
  let t0 = Engine.Sim.now s in
  Engine.Sim.span_interval s ~comp:Engine.Span.Device ~owner:t.owner ~label ~t0
    ~t1:(t0 + hw_ns t)

(* A RoCE frame: the Ethernet header, the message type, [words] 32-bit
   header words (filled by the caller at [word_off] past the frame's
   offset) and the body, gathered from the [len] bytes of [src] at
   [src_off]. *)
let word_off = Eth.size + 1

(* The largest message whose frame (a write's: three header words) fits
   the frame heap's largest size class. *)
let max_message_size = Memory.Sizeclass.max_class - (word_off + 12)

let frame_of t ~dst ~msgtype ~words src src_off len =
  let frame = Memory.Heap.alloc (Fabric.frames t.fabric) (word_off + (4 * words) + len) in
  let b = Memory.Heap.data frame and base = Memory.Heap.offset frame in
  t.eth.Eth.dst <- dst;
  t.eth.Eth.src <- t.mac;
  t.eth.Eth.ethertype <- ethertype_roce;
  let off = Eth.write b base t.eth in
  Wire.set_u8 b off msgtype;
  (* Device DMA: the RNIC gathers the posted range from host memory into the wire frame;
     charged per post through Net.Cost. *)
  Bytes.blit src src_off b (base + word_off + (4 * words)) len;
  frame

(* Fill header word [i] of a frame built by [frame_of]. *)
let set_word frame i v =
  Wire.set_u32 (Memory.Heap.data frame) (Memory.Heap.offset frame + word_off + (4 * i)) v

let post_send t ~dst ~wr_id ~imm src off len =
  if len > max_message_size then invalid_arg "Rdma_sim.post_send: message too large";
  let frame = frame_of t ~dst ~msgtype:t_send ~words:1 src off len in
  set_word frame 0 imm;
  (* Device-side transport processing, then the wire; the send
     completion fires once the message has left the device. *)
  note_hw t "send";
  Engine.Ring.push t.send_ids wr_id;
  Hop.send t.send_pipe ~at:(Engine.Sim.now (sim t) + hw_ns t) frame

let post_recv t = t.recv_credits <- t.recv_credits + 1
let recv_credits t = t.recv_credits

let register_region t bytes =
  let rkey = t.next_rkey in
  t.next_rkey <- t.next_rkey + 1;
  Hashtbl.replace t.regions rkey bytes;
  rkey

let post_write t ~dst ~wr_id ~rkey ~offset src off len =
  if len > max_message_size then invalid_arg "Rdma_sim.post_write: message too large";
  let frame = frame_of t ~dst ~msgtype:t_write ~words:3 src off len in
  set_word frame 0 rkey;
  set_word frame 1 offset;
  set_word frame 2 wr_id;
  note_hw t "write";
  Hop.send t.write_pipe ~at:(Engine.Sim.now (sim t) + hw_ns t) frame

(* A two-sided send that finds a posted buffer completes with the frame
   itself, narrowed to its payload: the CQ entry holds it and whoever
   polls it frees it. Every other frame (an RNR drop, a one-sided write
   or its ack, a frame that is not RoCE) is consumed here and freed. *)
let handle_frame t frame =
  let b = Memory.Heap.data frame in
  let lim = Memory.Heap.offset frame + Memory.Heap.length frame in
  let off = Eth.read b (Memory.Heap.offset frame) ~lim t.eth in
  let src_mac = t.eth.Eth.src in
  if t.eth.Eth.ethertype <> ethertype_roce then begin
    Fabric.nic_drop t.fabric ~reason:"not-roce" frame;
    Memory.Heap.free frame
  end
  else begin
    let msgtype = Wire.get_u8 b off in
    let off = off + 1 in
    if msgtype = t_send && t.recv_credits > 0 then begin
      t.recv_credits <- t.recv_credits - 1;
      let imm = Wire.get_u32 b off in
      Memory.Heap.set_bounds frame
        ~offset:(Memory.Heap.rel_offset frame + (off + 4 - Memory.Heap.offset frame))
        ~length:(lim - off - 4);
      Engine.Ring.push t.cq_frames frame;
      complete t k_recv imm src_mac
    end
    else begin
      if msgtype = t_send then begin
        t.rnr_drops <- t.rnr_drops + 1;
        Fabric.nic_drop t.fabric ~reason:"rnr" frame
      end
      else if msgtype = t_write then begin
        let rkey = Wire.get_u32 b off in
        let offset = Wire.get_u32 b (off + 4) in
        let wr_id = Wire.get_u32 b (off + 8) in
        let len = lim - off - 12 in
        let ok =
          match Hashtbl.find_opt t.regions rkey with
          | Some region when offset + len <= Bytes.length region ->
              Bytes.blit b (off + 12) region offset len;
              true
          | Some _ | None -> false
        in
        let ack = frame_of t ~dst:src_mac ~msgtype:t_write_ack ~words:2 Bytes.empty 0 0 in
        set_word ack 0 wr_id;
        set_word ack 1 (if ok then 1 else 0);
        Fabric.send t.fabric t.port ~lossless:true ack;
        (* Doorbell for software polling loops that park instead of
           spinning: memory changed under them. *)
        Engine.Condvar.broadcast t.cq_signal
      end
      else if msgtype = t_write_ack then begin
        let wr_id = Wire.get_u32 b off in
        complete t k_write_done wr_id (Wire.get_u32 b (off + 4))
      end;
      Memory.Heap.free frame
    end
  end

let create fabric ~mac ~ip () =
  let sim = Fabric.sim fabric in
  let cost = Fabric.cost fabric in
  let t_ref = ref None in
  let owner = Format.asprintf "rnic-%a" Addr.Ip.pp ip in
  (* Device processing takes the constant [rdma_hw_ns] each way, so the
     rx and post pipelines are FIFO hops. *)
  let rx_pipe =
    Hop.create sim ~deliver:(fun frame ->
        match !t_ref with Some t -> handle_frame t frame | None -> ())
  in
  let rx frame =
    let t0 = Engine.Sim.now sim in
    Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner ~label:"rx" ~t0
      ~t1:(t0 + cost.Cost.rdma_hw_ns);
    Hop.send rx_pipe ~at:(t0 + cost.Cost.rdma_hw_ns) frame
  in
  let port = Fabric.attach fabric ~mac ~rx in
  let send_ids = Engine.Ring.create () in
  let t =
    {
      fabric;
      port;
      mac;
      ip;
      cq_kind = Engine.Ring.create ();
      cq_a = Engine.Ring.create ();
      cq_b = Engine.Ring.create ();
      cq_frames = Engine.Ring.create ();
      batch_left = 0;
      cq_signal = Engine.Condvar.create sim;
      recv_credits = 0;
      rnr_drops = 0;
      regions = Hashtbl.create 8;
      next_rkey = 1;
      owner;
      eth = Eth.create ();
      send_ids;
      (* The send completion fires once the message has left the
         device. *)
      send_pipe =
        Hop.create sim ~deliver:(fun frame ->
            let wr_id = Engine.Ring.pop send_ids in
            Fabric.send fabric port ~lossless:true frame;
            match !t_ref with Some t -> complete t k_send_done wr_id 0 | None -> ());
      write_pipe =
        Hop.create sim ~deliver:(fun frame -> Fabric.send fabric port ~lossless:true frame);
    }
  in
  t_ref := Some t;
  t

let mac t = t.mac
let ip t = t.ip

(* The whole batch is taken when the drain starts: [cq_pending] leaves
   it out while the callbacks run (and may charge, letting new
   completions land behind it). *)
let rec drain_batch t c =
  if t.batch_left > 0 then begin
    t.batch_left <- t.batch_left - 1;
    let kind = Engine.Ring.pop t.cq_kind in
    let a = Engine.Ring.pop t.cq_a in
    let b = Engine.Ring.pop t.cq_b in
    if kind = k_recv then c.recv ~src_mac:b ~imm:a (Engine.Ring.pop t.cq_frames)
    else if kind = k_send_done then c.send_done a
    else c.write_done ~wr_id:a ~ok:(b = 1);
    drain_batch t c
  end

let drain_cq t ~max c =
  assert (t.batch_left = 0);
  let n = min max (Engine.Ring.length t.cq_kind) in
  if n > 0 then begin
    t.batch_left <- n;
    c.batch n;
    drain_batch t c
  end;
  n

let cq_pending t = Engine.Ring.length t.cq_kind - t.batch_left
let cq_signal t = t.cq_signal
let rnr_drops t = t.rnr_drops
