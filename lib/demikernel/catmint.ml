(* Control-message types carried in the imm field: (type << 28) | chan. *)
let m_connect = 1
let m_accept = 2
let m_refuse = 3
let m_data = 4
let m_close = 5

let imm_of ~msg ~chan = (msg lsl 28) lor (chan land 0x0FFF_FFFF)
let msg_of imm = imm lsr 28
let chan_of imm = imm land 0x0FFF_FFFF

type chan = {
  id : int;
  q : Runtime.queue; (* its stream *)
  peer_mac : Net.Addr.Mac.t;
  cell : Bytes.t; (* peer one-sided-writes cumulative grants here *)
  grant : Bytes.t; (* our grants to the peer are gathered from here *)
  mutable peer_chan : int;
  mutable peer_cell_rkey : int;
  mutable sent : int;
  mutable consumed : int;
  mutable granted_to_peer : int;
  pending_qts : Pdpix.qtoken Engine.Ring.t;
  pending_sgas : Pdpix.sga Engine.Ring.t;
      (* pushes awaiting grant, token and sga in parallel rings; each
         buffer holds a libOS reference until the device gathers it *)
  recv_q : Memory.Heap.buffer Engine.Ring.t;
  mutable eof : bool;
  mutable flow : Dsched.handle option;
  mutable stalled : bool; (* on the retry list (sends queued behind the grant window) *)
}

type listener = {
  lq : Runtime.queue;
  backlog : chan Engine.Ring.t; (* connected, not yet accepted *)
}

type t = {
  rt : Runtime.t;
  rnic : Net.Rdma_sim.t;
  window : int;
  chans : (int, chan) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t; (* port -> its listener *)
  mutable next_chan : int;
  mutable stalled_chans : chan list;
      (* ascending chan id — the channels with queued sends awaiting
         grant, retried each poll round. Persistent across polls so the
         steady-state retry pass allocates nothing (the old per-poll
         sorted snapshot of every channel was the dominant idle
         garbage). *)
}

let host t = Runtime.host t.rt
let cost t = (host t).Host.cost
let charge t ns = Host.charge (host t) ns
let charge_dev t ns = Host.charge_as (host t) Engine.Span.Device ns

let grant_available ch = Net.Wire.get_u32 ch.cell 0 - ch.sent
let live ch = Runtime.failed ch.q = None

(* ---------- message emission ---------- *)

let u32s values =
  let b = Bytes.create (4 * List.length values) in
  List.iteri (fun i v -> Net.Wire.set_u32 b (4 * i) v) values;
  b

let post_control t ~dst ~msg ~chan payload =
  charge_dev t (cost t).Net.Cost.rdma_post_ns;
  Net.Rdma_sim.post_send t.rnic ~dst ~wr_id:0 ~imm:(imm_of ~msg ~chan) payload 0
    (Bytes.length payload)

(* The device gathers a one-buffer sga straight from the heap; a longer
   one is joined first. *)
let send_data t ch qt sga =
  (* One combined charge: the doorbell post dominates, so the whole
     stretch is attributed to the device-queue component. *)
  charge_dev t ((cost t).Net.Cost.rdma_post_ns + (2 * (cost t).Net.Cost.libos_sched_ns));
  ch.sent <- ch.sent + 1;
  let imm = imm_of ~msg:m_data ~chan:ch.peer_chan in
  match sga with
  | [ buf ] ->
      Net.Rdma_sim.post_send t.rnic ~dst:ch.peer_mac ~wr_id:qt ~imm (Memory.Heap.data buf)
        (Memory.Heap.offset buf) (Memory.Heap.length buf)
  | bufs ->
      let joined = Pdpix.sga_to_string bufs in
      Net.Rdma_sim.post_send t.rnic ~dst:ch.peer_mac ~wr_id:qt ~imm
        (Bytes.unsafe_of_string joined) 0 (String.length joined)

(* Top-level recursion (not a per-call closure): this runs for every
   stalled channel on every poll round, and a still-blocked channel —
   the steady case — must cost nothing. *)
let rec flush_pending_loop t ch =
  if (not (Engine.Ring.is_empty ch.pending_qts)) && grant_available ch > 0 && ch.peer_chan >= 0
  then begin
    let qt = Engine.Ring.pop ch.pending_qts in
    let sga = Engine.Ring.pop ch.pending_sgas in
    send_data t ch qt sga;
    List.iter Memory.Heap.os_decref sga;
    flush_pending_loop t ch
  end

let flush_pending t ch = if live ch then flush_pending_loop t ch

(* ---------- the stalled-sender retry list ----------

   Grant updates land silently in credit cells (one-sided writes raise
   no local completion), so blocked senders must be retried every poll
   round. The list holds exactly the channels with queued sends, in
   ascending channel id — the same firing order the old full-table
   sorted iteration produced — and is only rebuilt when a channel
   drains or fails, so the no-progress retry pass allocates nothing. *)

let rec insert_stalled ch chans =
  match chans with
  | [] -> [ ch ]
  | c :: rest -> if ch.id < c.id then ch :: chans else c :: insert_stalled ch rest

let mark_stalled t ch =
  if (not ch.stalled) && live ch then begin
    ch.stalled <- true;
    t.stalled_chans <- insert_stalled ch t.stalled_chans
  end

(* Flush every listed channel; returns whether any is now drained or
   failed (and flags it for removal). *)
let rec flush_stalled t chans =
  match chans with
  | [] -> false
  | ch :: rest ->
      flush_pending t ch;
      let unstalled = Engine.Ring.is_empty ch.pending_qts || not (live ch) in
      if unstalled then ch.stalled <- false;
      let rest_unstalled = flush_stalled t rest in
      unstalled || rest_unstalled

(* Retry every stalled channel; drop the drained or failed ones from
   the list. *)
let retry_stalled t =
  match t.stalled_chans with
  | [] -> ()
  | chans -> if flush_stalled t chans then t.stalled_chans <- List.filter (fun ch -> ch.stalled) chans

(* ---------- flow control (§6.2): a per-connection coroutine grants the
   peer more send window by one-sided writes once the application has
   consumed half a window, and replenishes device recv buffers. ---------- *)

let flow_coroutine t ch () =
  let sched = Runtime.sched t.rt in
  let rec loop () =
    Dsched.block sched;
    if live ch && not ch.eof then begin
      let outstanding = ch.granted_to_peer - ch.consumed in
      if outstanding <= t.window / 2 && ch.peer_cell_rkey >= 0 then begin
        let new_grant = ch.consumed + t.window in
        Net.Wire.set_u32 ch.grant 0 new_grant;
        charge_dev t (cost t).Net.Cost.rdma_post_ns;
        Net.Rdma_sim.post_write t.rnic ~dst:ch.peer_mac ~wr_id:0 ~rkey:ch.peer_cell_rkey
          ~offset:0 ch.grant 0 4;
        ch.granted_to_peer <- new_grant
      end;
      loop ()
    end
  in
  loop ()

(* ---------- channel bookkeeping ---------- *)

(* The pops' source: a received message, then end-of-file. Consuming a
   message may let the flow-control coroutine grant more window. *)
let pop_next t ch () =
  if not (Engine.Ring.is_empty ch.recv_q) then begin
    let buf = Engine.Ring.pop ch.recv_q in
    ch.consumed <- ch.consumed + 1;
    (match ch.flow with Some h -> Dsched.wake (Runtime.sched t.rt) h | None -> ());
    Some (Pdpix.Popped [ buf ])
  end
  else if ch.eof then Some (Pdpix.Popped [])
  else None

let charge_sga t sga =
  (* Zero-copy for DMA-eligible buffers (the device gathers directly
     from registered memory, exercising get_rkey); small buffers are
     copied into the command, per the 1 kB threshold (§5.3). *)
  List.iter
    (fun buf ->
      if Memory.Heap.is_dma_capable buf then ignore (Memory.Heap.rkey buf)
      else Host.charge_copy (host t) (Memory.Heap.length buf))
    sga

let push t ch sga =
  charge_sga t sga;
  if Pdpix.sga_length sga > Net.Rdma_sim.max_message_size then
    invalid_arg "catmint: message exceeds device limit";
  let qt = Runtime.fresh_token t.rt in
  if ch.peer_chan >= 0 && grant_available ch > 0 && Engine.Ring.is_empty ch.pending_qts then
    send_data t ch qt sga
  else begin
    (* The device gathers a queued push later: the libOS reference
       keeps an early app free from recycling it. *)
    List.iter Memory.Heap.os_incref sga;
    Engine.Ring.push ch.pending_qts qt;
    Engine.Ring.push ch.pending_sgas sga;
    mark_stalled t ch
  end;
  qt

let rec fail_pending_sends t ch reason =
  if not (Engine.Ring.is_empty ch.pending_qts) then begin
    let qt = Engine.Ring.pop ch.pending_qts in
    List.iter Memory.Heap.os_decref (Engine.Ring.pop ch.pending_sgas);
    Runtime.complete t.rt qt (Pdpix.Failed reason);
    fail_pending_sends t ch reason
  end

let wake_flow t ch = match ch.flow with Some h -> Dsched.wake (Runtime.sched t.rt) h | None -> ()

let fail_chan t ch reason =
  Runtime.fail ch.q reason;
  fail_pending_sends t ch reason;
  wake_flow t ch

(* The stream's close hook; the runtime then fails its connect and
   pops. *)
let close_chan t ch () =
  if live ch && ch.peer_chan >= 0 then
    post_control t ~dst:ch.peer_mac ~msg:m_close ~chan:ch.peer_chan Bytes.empty;
  fail_pending_sends t ch "queue closed";
  wake_flow t ch;
  Hashtbl.remove t.chans ch.id

let make_chan t q ~peer_mac =
  let id = t.next_chan in
  t.next_chan <- t.next_chan + 1;
  let ch =
    {
      id;
      q;
      peer_mac;
      cell = Bytes.make 4 '\000';
      grant = Bytes.create 4;
      peer_chan = -1;
      peer_cell_rkey = -1;
      sent = 0;
      consumed = 0;
      granted_to_peer = t.window;
      pending_qts = Engine.Ring.create ();
      pending_sgas = Engine.Ring.create ();
      recv_q = Engine.Ring.create ();
      eof = false;
      flow = None;
      stalled = false;
    }
  in
  Hashtbl.replace t.chans id ch;
  Runtime.open_stream q ~next:(pop_next t ch) ~push:(push t ch) ~close:(close_chan t ch);
  ch.flow <-
    Some
      (Dsched.spawn (Runtime.sched t.rt) Dsched.Background
         ~name:(Printf.sprintf "catmint-flow-%d" id)
         (flow_coroutine t ch));
  ch

let cell_rkey t ch = Net.Rdma_sim.register_region t.rnic ch.cell

(* ---------- completion handling ---------- *)

(* Control messages are read in place from the arrived frame. *)
let handle_connect t ~src_mac frame =
  let b = Memory.Heap.data frame and off = Memory.Heap.offset frame in
  let port = Net.Wire.get_u32 b off in
  let requester_chan = Net.Wire.get_u32 b (off + 4) in
  let requester_rkey = Net.Wire.get_u32 b (off + 8) in
  let grant = Net.Wire.get_u32 b (off + 12) in
  match Hashtbl.find_opt t.listeners port with
  | None ->
      post_control t ~dst:src_mac ~msg:m_refuse ~chan:requester_chan Bytes.empty
  | Some l ->
      let ch = make_chan t (Runtime.accepted t.rt) ~peer_mac:src_mac in
      ch.peer_chan <- requester_chan;
      ch.peer_cell_rkey <- requester_rkey;
      Net.Wire.set_u32 ch.cell 0 grant;
      post_control t ~dst:src_mac ~msg:m_accept ~chan:requester_chan
        (u32s [ ch.id; cell_rkey t ch; t.window ]);
      Engine.Ring.push l.backlog ch;
      Runtime.serve l.lq

(* [frame] is the arrived message (its window is the payload); the
   caller frees it once this returns. *)
let handle_recv t ~src_mac ~imm frame =
  Net.Rdma_sim.post_recv t.rnic (* replenish the buffer we consumed *);
  match msg_of imm with
  | 1 (* connect *) -> handle_connect t ~src_mac frame
  | 2 (* accept *) -> (
      match Hashtbl.find_opt t.chans (chan_of imm) with
      | Some ch ->
          let b = Memory.Heap.data frame and off = Memory.Heap.offset frame in
          ch.peer_chan <- Net.Wire.get_u32 b off;
          ch.peer_cell_rkey <- Net.Wire.get_u32 b (off + 4);
          Net.Wire.set_u32 ch.cell 0 (Net.Wire.get_u32 b (off + 8));
          Runtime.connected ch.q Pdpix.Connected;
          flush_pending t ch
      | None -> ())
  | 3 (* refuse *) -> (
      match Hashtbl.find_opt t.chans (chan_of imm) with
      | Some ch -> fail_chan t ch "connection refused"
      | None -> ())
  | 4 (* data *) -> (
      match Hashtbl.find_opt t.chans (chan_of imm) with
      | Some ch ->
          charge t (3 * (cost t).Net.Cost.libos_sched_ns);
          (* The device DMAed the message into a posted buffer in the
             DMA heap: allocate the application's buffer, no CPU copy. *)
          let len = Memory.Heap.length frame in
          let buf = Memory.Heap.alloc (host t).Host.heap (max 1 len) in
          (* Device DMA: the RNIC writes the arrived payload into the posted host-heap
             buffer; charged per completion through Net.Cost. *)
          Bytes.blit (Memory.Heap.data frame) (Memory.Heap.offset frame) (Memory.Heap.data buf)
            (Memory.Heap.offset buf) len;
          Memory.Heap.set_length buf len;
          Engine.Ring.push ch.recv_q buf;
          Runtime.serve ch.q
      | None -> ())
  | 5 (* close *) -> (
      match Hashtbl.find_opt t.chans (chan_of imm) with
      | Some ch ->
          ch.eof <- true;
          Runtime.serve ch.q
      | None -> ())
  | _ -> ()

(* A batch is charged one libOS poll, and every completion in it one CQ
   poll; built once per libOS. *)
let consumer t =
  let polled () = charge_dev t (cost t).Net.Cost.rdma_poll_ns in
  {
    Net.Rdma_sim.batch = (fun _ -> charge t (cost t).Net.Cost.libos_poll_ns);
    send_done =
      (fun wr_id ->
        polled ();
        if wr_id > 0 then Runtime.complete t.rt wr_id Pdpix.Pushed);
    recv =
      (fun ~src_mac ~imm frame ->
        polled ();
        handle_recv t ~src_mac ~imm frame;
        Memory.Heap.free frame);
    write_done = (fun ~wr_id:_ ~ok:_ -> polled ());
  }

(* One poll: drain the completion queue, then retry stalled senders.
   Device work means a nonempty CQ. *)
let poll t consumer () =
  let busy = Net.Rdma_sim.cq_pending t.rnic > 0 in
  if busy then ignore (Net.Rdma_sim.drain_cq t.rnic ~max:16 consumer : int);
  retry_stalled t;
  busy

(* ---------- device halves ---------- *)

let listen t q (ep : Net.Addr.endpoint) ~backlog:_ =
  let port = ep.Net.Addr.port in
  let l = { lq = q; backlog = Engine.Ring.create () } in
  let next () =
    if Engine.Ring.is_empty l.backlog then None
    else Some (Pdpix.Accepted (Runtime.qd (Engine.Ring.pop l.backlog).q))
  in
  Runtime.open_listener q ~next ~close:(fun () ->
      Hashtbl.remove t.listeners port;
      (* Channels connected but never accepted close with it. *)
      while not (Engine.Ring.is_empty l.backlog) do
        Runtime.close (Engine.Ring.pop l.backlog).q
      done);
  Hashtbl.replace t.listeners port l

(* Endpoint IPs map to device MACs 1:1 in our fabric; resolve by index. *)
let mac_of_endpoint (ep : Net.Addr.endpoint) =
  Net.Addr.Mac.of_index ((ep.Net.Addr.ip land 0xffff) - 1)

let connect t q (dst : Net.Addr.endpoint) =
  let ch = make_chan t q ~peer_mac:(mac_of_endpoint dst) in
  let qt = Runtime.connect_token q in
  Net.Wire.set_u32 ch.cell 0 0 (* cannot send until ACCEPT grants *);
  post_control t ~dst:ch.peer_mac ~msg:m_connect ~chan:0
    (u32s [ dst.Net.Addr.port; ch.id; cell_rkey t ch; t.window ]);
  qt

let create rt ~rnic ?(window = 64) () =
  let t =
    {
      rt;
      rnic;
      window;
      chans = Hashtbl.create 32;
      listeners = Hashtbl.create 8;
      next_chan = 1;
      stalled_chans = [];
    }
  in
  (* Pre-post a pool of receive buffers; the fast path reposts one per
     arrival, so the pool never drains under flow control. *)
  for _ = 1 to 4 * window do
    Net.Rdma_sim.post_recv rnic
  done;
  Runtime.fast_path rt ~name:"catmint-fast-path" ~signal:(Net.Rdma_sim.cq_signal rnic)
    (poll t (consumer t));
  t

(* RDMA is message-based: no datagram sockets. *)
let net t =
  { Runtime.listen = listen t; connect = connect t; bind_udp = None; waited = Runtime.serve }
