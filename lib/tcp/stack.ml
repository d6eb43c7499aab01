type config = {
  mss : int;
  rwnd_capacity : int;
  window_scale : int;
  use_timestamps : bool;
  use_sack : bool;
  cc : Cc.algorithm;
  min_rto_ns : int;
  max_rto_ns : int;
  syn_rto_ns : int;
  time_wait_ns : int;
  max_syn_retries : int;
}

let default_config =
  {
    mss = 1460;
    rwnd_capacity = 256 * 1024;
    window_scale = 7;
    use_timestamps = true;
    use_sack = true;
    cc = Cc.Cubic;
    min_rto_ns = 1_000_000;
    max_rto_ns = 4_000_000_000;
    syn_rto_ns = 2_000_000;
    time_wait_ns = 20_000_000;
    max_syn_retries = 8;
  }

type tcp_state =
  | Syn_sent
  | Syn_received
  | Established_st
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed_st

(* One MSS-or-smaller slice of an application buffer queued for
   transmission. The stack holds a heap reference per segment (taken in
   [tcp_send], dropped on cumulative ack) because retransmission re-reads
   the buffer — this is the UAF-protection contract of §5.3. *)
type tx_seg = {
  seg_seq : Seqnum.t;
  seg_len : int;
  seg_buf : Memory.Heap.buffer;
  seg_buf_off : int;
  seg_push_id : int; (* the push's id on its last segment, -1 on the others *)
  mutable first_tx : int; (* -1 until first transmission *)
  mutable retransmitted : bool;
  mutable sacked : bool; (* covered by a peer SACK block (RFC 2018) *)
}

(* The connection control block. Everything the state machine reads or
   writes per segment is a plain mutable field; the estimator and the
   controller are small records of their own ([Rto], [Cc]). A closed
   connection keeps its record (applications may still read the
   receive queue and counters); the introspection functions below
   report a closed connection's window, flight and RTT as empty. *)
type conn = {
  stack : t;
  uid : int;
  local_ip : Net.Addr.Ip.t;
  local_port : int;
  remote_ip : Net.Addr.Ip.t;
  remote_port : int;
  mutable state : tcp_state;
  (* --- send side --- *)
  iss : Seqnum.t;
  mutable snd_una : Seqnum.t;
  mutable snd_nxt : Seqnum.t;
  mutable snd_wnd : int;
  mutable peer_wscale : int;
  mutable peer_mss : int;
  mutable dupacks : int;
  mutable syn_retries : int;
  mutable fin_seq : Seqnum.t; (* -1 = no FIN queued *)
  mutable fin_pending : bool;
  mutable ts_on : bool; (* RFC 7323 timestamps negotiated *)
  mutable sack_on : bool; (* RFC 2018 SACK negotiated *)
  mutable ts_recent : int;
  rto : Rto.t;
  cc : Cc.t;
  unacked : tx_seg Queue.t;
  unsent : tx_seg Queue.t;
  mutable unsent_end : Seqnum.t; (* after [unsent]'s last byte, while it is nonempty *)
  mutable rto_seq : int; (* seq of the live RTO entry in [stack.timers], -1 = none *)
  mutable retransmit_count : int;
  (* --- receive side --- *)
  mutable reasm : Reassembly.t option; (* None until sequence space known *)
  recv_q : Memory.Heap.buffer Queue.t;
  mutable recv_q_bytes : int;
  mutable eof_delivered_to_q : bool;
  mutable ack_pending : bool;
  mutable tw_seq : int; (* seq of the live TIME_WAIT entry, -1 = none *)
  (* --- passive-open bookkeeping --- *)
  parent_listener : listener option;
  readable : event; (* [Readable] of this conn, built once: raised per delivery *)
}

and listener = {
  l_stack : t;
  l_port : int;
  backlog : int;
  accept_q : conn Queue.t;
  mutable syn_pending : int; (* connections in SYN_RCVD for this listener *)
  mutable l_open : bool; (* false once [tcp_unlisten]ed *)
}

and udp_socket = {
  u_port : int;
  udp_q : (Net.Addr.endpoint * Memory.Heap.buffer) Queue.t;
}

and event =
  | Udp_readable of udp_socket
  | Accept_ready of listener
  | Established of conn
  | Readable of conn
  | Push_completed of conn * int
  | Closed of conn
  | Reset of conn

and t = {
  config : config;
  iface : Iface.t;
  heap : Memory.Heap.t;
  prng : Engine.Prng.t;
  events : event -> unit;
  conns : conn Conntab.t; (* packed-key demux: (local port, remote ip, remote port) *)
  listeners : (int, listener) Hashtbl.t;
  udp_socks : (int, udp_socket) Hashtbl.t;
  timers : conn Engine.Eventq.t; (* RTO and TIME_WAIT deadlines, see [arm_rto_at] *)
  mutable timers_fired : int;
  ack_q : conn Engine.Ring.t; (* conns with [ack_pending], in arming order *)
  mutable next_ephemeral : int;
  mutable next_conn_uid : int;
  mutable retransmit_total : int;
  mutable conns_opened : int;
  mutable conns_peak : int;
  trace : string -> int -> int -> unit;
      (* Demitrace hook: a static template and its int operands; drivers
         wire it to [Sim.trace_event]. *)
  (* Header views, one per direction, so that neither parsing nor
     emitting a segment allocates. [input] alone writes the RX views,
     and it is never re-entered ([in_input]). An emit fills the TX
     views and the payload fields below, and [Iface.output] serializes
     them through [tcp_write]/[udp_write] before [tx_frame] can charge
     and suspend — so an emit from another coroutine during that
     suspension finds them free. *)
  rx_th : Net.Tcp_wire.t;
  rx_uh : Net.Udp_wire.t;
  mutable in_input : bool;
  tx_th : Net.Tcp_wire.t;
  tx_uh : Net.Udp_wire.t;
  mutable tx_dst_ip : Net.Addr.Ip.t;
  mutable tx_src : Bytes.t; (* payload: [tx_len] bytes at [tx_src_off], none when 0 *)
  mutable tx_src_off : int;
  mutable tx_len : int;
  mutable tcp_write : Bytes.t -> int -> unit; (* built once, at [create] *)
  mutable udp_write : Bytes.t -> int -> unit;
  mutable deliver : Net.Ipv4.t -> Bytes.t -> int -> unit; (* [Iface.input]'s, built once *)
}

type conn_stats = { live : int; ever_opened : int; peak : int }

let now t = Iface.clock t.iface
let live_connections t = Conntab.length t.conns
let total_retransmits t = t.retransmit_total
let conn_stats t = { live = Conntab.length t.conns; ever_opened = t.conns_opened; peak = t.conns_peak }

(* 32-bit millisecond timestamp for the RFC 7323 option. *)
let ts_now t = now t / 1_000_000 land 0xFFFF_FFFF

(* ---------- UDP ---------- *)

let udp_bind t ~port =
  if Hashtbl.mem t.udp_socks port then invalid_arg "Stack.udp_bind: port in use";
  let sock = { u_port = port; udp_q = Queue.create () } in
  Hashtbl.replace t.udp_socks port sock;
  sock

let udp_unbind t sock = Hashtbl.remove t.udp_socks sock.u_port
let udp_socket_port sock = sock.u_port

let udp_sendto t sock ~dst buf =
  let payload_len = Memory.Heap.length buf in
  if payload_len > 65507 then invalid_arg "Stack.udp_sendto: datagram exceeds UDP limit";
  let len = Net.Udp_wire.size + payload_len in
  t.tx_uh.Net.Udp_wire.src_port <- sock.u_port;
  t.tx_uh.Net.Udp_wire.dst_port <- dst.Net.Addr.port;
  t.tx_uh.Net.Udp_wire.length <- len;
  t.tx_dst_ip <- dst.Net.Addr.ip;
  t.tx_src <- Memory.Heap.data buf;
  t.tx_src_off <- Memory.Heap.offset buf;
  t.tx_len <- payload_len;
  Iface.output t.iface ~dst_ip:dst.Net.Addr.ip ~protocol:Net.Ipv4.protocol_udp ~len
    ~write:t.udp_write

let udp_recv sock = if Queue.is_empty sock.udp_q then None else Some (Queue.pop sock.udp_q)
let udp_pending sock = Queue.length sock.udp_q

(* A transport reader is bounded by its datagram's end, which
   [Ipv4.read] checked against the frame's. *)
let handle_udp t header b off =
  let src_ip = header.Net.Ipv4.src and dst_ip = header.Net.Ipv4.dst in
  let uh = t.rx_uh in
  let lim = off + header.Net.Ipv4.total_length - Net.Ipv4.size in
  match Net.Udp_wire.read b off ~lim uh ~src_ip ~dst_ip with
  | exception Net.Wire.Malformed _ -> ()
  | payload_off -> (
      match Hashtbl.find_opt t.udp_socks uh.Net.Udp_wire.dst_port with
      | None -> () (* no ICMP in this datacenter *)
      | Some sock ->
          let payload_len = uh.Net.Udp_wire.length - Net.Udp_wire.size in
          let buf = Memory.Heap.alloc t.heap (max 1 payload_len) in
          (* Device DMA: the NIC writes the received datagram into a DMA-heap buffer;
             charged per frame through Net.Cost. *)
          Bytes.blit b payload_off (Memory.Heap.data buf) (Memory.Heap.offset buf) payload_len;
          Memory.Heap.set_length buf payload_len;
          Queue.add (Net.Addr.endpoint src_ip uh.Net.Udp_wire.src_port, buf) sock.udp_q;
          t.events (Udp_readable sock))

(* The transport writers [Iface.output] calls: the TX view, then the
   payload after it (the NIC's gather DMA). *)
let write_tcp t b off =
  let hsize = Net.Tcp_wire.header_size t.tx_th in
  (* Device DMA: the NIC gathers the segment payload into the wire frame; charged per
     segment through Net.Cost. *)
  Bytes.blit t.tx_src t.tx_src_off b (off + hsize) t.tx_len;
  ignore
    (Net.Tcp_wire.write b off t.tx_th ~payload_len:t.tx_len ~src_ip:(Iface.ip t.iface)
       ~dst_ip:t.tx_dst_ip)

let write_udp t b off =
  (* Device DMA: the NIC gathers the datagram from the app's heap buffer into the wire
     frame; charged per frame through Net.Cost. *)
  Bytes.blit t.tx_src t.tx_src_off b (off + Net.Udp_wire.size) t.tx_len;
  ignore (Net.Udp_wire.write b off t.tx_uh ~src_ip:(Iface.ip t.iface) ~dst_ip:t.tx_dst_ip)

(* ---------- TCP segment emission ---------- *)

let my_wscale t = t.config.window_scale

let advertised_window conn =
  let t = conn.stack in
  let buffered =
    conn.recv_q_bytes + match conn.reasm with Some r -> Reassembly.buffered_bytes r | None -> 0
  in
  max 0 (t.config.rwnd_capacity - buffered)

let window_field conn ~syn =
  let w = advertised_window conn in
  if syn then min w 0xffff else min 0xffff (w lsr my_wscale conn.stack)

let rcv_nxt conn =
  match conn.reasm with Some r -> Reassembly.rcv_nxt r | None -> 0

(* Up to 3 blocks of buffered out-of-order data (the most that fit
   beside timestamps). *)
let rec fill_sack th i = function
  | (left, right) :: rest when i < 3 ->
      th.Net.Tcp_wire.sack_edges.(2 * i) <- left;
      th.Net.Tcp_wire.sack_edges.((2 * i) + 1) <- right;
      fill_sack th (i + 1) rest
  | _ -> th.Net.Tcp_wire.sack_count <- i

(* Emit one segment whose payload, if any, the caller has put in the
   stack's [tx_src]/[tx_src_off]/[tx_len]. *)
let emit conn ~seq ~syn ~ack_flag ~fin ~rst ~psh =
  let t = conn.stack in
  let th = t.tx_th in
  Net.Tcp_wire.set th ~src_port:conn.local_port ~dst_port:conn.remote_port ~seq
    ~ack:(if ack_flag then rcv_nxt conn else 0)
    ~syn ~ack_flag ~fin ~rst ~psh ~window:(window_field conn ~syn);
  if syn then begin
    th.Net.Tcp_wire.mss <- t.config.mss;
    th.Net.Tcp_wire.window_scale <- my_wscale t;
    th.Net.Tcp_wire.has_ts <- t.config.use_timestamps;
    th.Net.Tcp_wire.sack_permitted <- t.config.use_sack
  end
  else begin
    th.Net.Tcp_wire.has_ts <- conn.ts_on;
    if conn.sack_on && ack_flag then
      match conn.reasm with Some reasm -> fill_sack th 0 (Reassembly.ranges reasm) | None -> ()
  end;
  if th.Net.Tcp_wire.has_ts then begin
    th.Net.Tcp_wire.ts_val <- ts_now t;
    th.Net.Tcp_wire.ts_ecr <- conn.ts_recent
  end;
  t.tx_dst_ip <- conn.remote_ip;
  Iface.output t.iface ~dst_ip:conn.remote_ip ~protocol:Net.Ipv4.protocol_tcp
    ~len:(Net.Tcp_wire.header_size th + t.tx_len)
    ~write:t.tcp_write

let emit_segment conn ~seq ~syn ~ack_flag ~fin ~rst =
  conn.stack.tx_len <- 0;
  emit conn ~seq ~syn ~ack_flag ~fin ~rst ~psh:false

let send_ack conn =
  conn.ack_pending <- false;
  emit_segment conn ~seq:conn.snd_nxt ~syn:false ~ack_flag:true ~fin:false ~rst:false

(* Delayed-ack dirty tracking: a connection enters the stack-wide FIFO
   exactly when its flag flips to pending, so [flush_acks] visits only
   dirty connections, in arming order. [send_ack] clears the flag, which
   turns any still-queued entry into a pop-and-skip no-op. *)
let mark_ack_pending conn =
  if not conn.ack_pending then begin
    conn.ack_pending <- true;
    Engine.Ring.push conn.stack.ack_q conn
  end

let send_data_segment conn seg =
  let t = conn.stack in
  if seg.first_tx < 0 then seg.first_tx <- now t;
  t.tx_src <- Memory.Heap.data seg.seg_buf;
  t.tx_src_off <- Memory.Heap.offset seg.seg_buf + seg.seg_buf_off;
  t.tx_len <- seg.seg_len;
  emit conn ~seq:seg.seg_seq ~syn:false ~ack_flag:true ~fin:false ~rst:false ~psh:true

(* A raw RST for segments that match no connection (RFC 793 p.36);
   [th] is the offending segment's (RX) header. *)
let send_rst_for t ~src_ip ~th ~seg_len =
  let seq, ack, ack_flag =
    if th.Net.Tcp_wire.ack_flag then (th.Net.Tcp_wire.ack, 0, false)
    else
      ( 0,
        Seqnum.add th.Net.Tcp_wire.seq
          (seg_len + (if th.Net.Tcp_wire.syn then 1 else 0) + if th.Net.Tcp_wire.fin then 1 else 0),
        true )
  in
  Net.Tcp_wire.set t.tx_th ~src_port:th.Net.Tcp_wire.dst_port ~dst_port:th.Net.Tcp_wire.src_port
    ~seq ~ack ~syn:false ~ack_flag ~fin:false ~rst:true ~psh:false ~window:0;
  t.tx_dst_ip <- src_ip;
  t.tx_len <- 0;
  Iface.output t.iface ~dst_ip:src_ip ~protocol:Net.Ipv4.protocol_tcp
    ~len:(Net.Tcp_wire.header_size t.tx_th) ~write:t.tcp_write

(* ---------- timers ----------

   Both per-connection timers are entries of the stack's deadline heap
   ({!Engine.Eventq}). A connection holds the sequence number of its
   live RTO entry and of its live TIME_WAIT entry; arming overwrites
   it, cancelling forgets it, and an entry whose number its connection
   no longer holds is stale and is dropped when it reaches the top. So
   at most one RTO and one TIME_WAIT entry are live per connection. *)

let cancel_rto conn = conn.rto_seq <- -1
let arm_rto_at conn deadline = conn.rto_seq <- Engine.Eventq.add conn.stack.timers ~time:deadline conn
let cancel_time_wait conn = conn.tw_seq <- -1

let arm_time_wait_at conn deadline =
  conn.tw_seq <- Engine.Eventq.add conn.stack.timers ~time:deadline conn

let arm_rto conn =
  let t = conn.stack in
  let need =
    match conn.state with
    | Syn_sent | Syn_received -> true
    | Closed_st | Time_wait -> false
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        (not (Queue.is_empty conn.unacked))
        || (let fs = conn.fin_seq in
            fs >= 0 && Seqnum.lt conn.snd_una (Seqnum.add fs 1))
        || ((not (Queue.is_empty conn.unsent)) && conn.snd_wnd = 0)
  in
  if need then arm_rto_at conn (now t + Rto.rto conn.rto) else cancel_rto conn

(* ---------- transmission ---------- *)

let bytes_in_flight conn = Seqnum.sub conn.snd_nxt conn.snd_una

(* A PDPIX push completes when its last segment leaves the stack once:
   segments leave [unsent] in order, so the one carrying the push id
   goes last. Every other segment carries -1. *)
let note_push_progress conn push_id =
  if push_id >= 0 then conn.stack.events (Push_completed (conn, push_id))

let may_send_fin conn =
  conn.fin_pending
  && Queue.is_empty conn.unsent
  && (match conn.state with
     | Fin_wait_1 | Last_ack | Closing -> true
     | Syn_sent | Syn_received | Established_st | Fin_wait_2 | Close_wait | Time_wait | Closed_st
       -> false)
  && conn.fin_seq = -1

let try_transmit conn =
  let progress = ref true in
  while !progress do
    progress := false;
    if not (Queue.is_empty conn.unsent) then begin
      let seg = Queue.peek conn.unsent in
      let wnd = min (Cc.cwnd conn.cc) conn.snd_wnd in
      let in_flight = bytes_in_flight conn in
      (* Always allow at least one segment when nothing is in flight,
         so a window smaller than MSS cannot deadlock the connection. *)
      if in_flight + seg.seg_len <= wnd || (in_flight = 0 && wnd > 0) then begin
        let seg = Queue.pop conn.unsent in
        send_data_segment conn seg;
        conn.snd_nxt <- Seqnum.add conn.snd_nxt seg.seg_len;
        Queue.add seg conn.unacked;
        note_push_progress conn seg.seg_push_id;
        progress := true
      end
    end
  done;
  if may_send_fin conn then begin
    conn.fin_seq <- conn.snd_nxt;
    emit_segment conn ~seq:conn.snd_nxt ~syn:false ~ack_flag:true ~fin:true ~rst:false;
    conn.snd_nxt <- Seqnum.add conn.snd_nxt 1
  end;
  arm_rto conn

(* ---------- connection lifecycle ---------- *)

let fresh_iss t = Int64.to_int (Engine.Prng.int64 t.prng) land 0xFFFF_FFFF

(* Demux keys: (local port, remote port) packed in [ka], remote ip in
   [kb] — the three fields are 64 bits together, one too many for an
   OCaml int, hence the pair. *)
let conn_ka conn = (conn.local_port lsl 16) lor conn.remote_port

let make_conn t ~local_ip ~local_port ~remote_ip ~remote_port ~state ~parent_listener =
  let iss = fresh_iss t in
  let uid = t.next_conn_uid in
  t.next_conn_uid <- t.next_conn_uid + 1;
  t.conns_opened <- t.conns_opened + 1;
  (* Every [make_conn] is followed by a table insert; peak counts the
     table high-water mark including this connection. *)
  let live_after = Conntab.length t.conns + 1 in
  if live_after > t.conns_peak then t.conns_peak <- live_after;
  let rec conn =
    {
      stack = t;
      uid;
      local_ip;
      local_port;
      remote_ip;
      remote_port;
      state;
      iss;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = t.config.mss;
      peer_wscale = 0;
      peer_mss = t.config.mss;
      dupacks = 0;
      syn_retries = 0;
      fin_seq = -1;
      fin_pending = false;
      ts_on = false;
      sack_on = false;
      ts_recent = 0;
      rto = Rto.create ~min_rto:t.config.min_rto_ns ~max_rto:t.config.max_rto_ns;
      cc = Cc.create t.config.cc ~mss:t.config.mss;
      unacked = Queue.create ();
      unsent = Queue.create ();
      unsent_end = iss;
      rto_seq = -1;
      retransmit_count = 0;
      reasm = None;
      recv_q = Queue.create ();
      recv_q_bytes = 0;
      eof_delivered_to_q = false;
      ack_pending = false;
      tw_seq = -1;
      parent_listener;
      readable = Readable conn;
    }
  in
  conn

let release_tx_resources conn =
  let release seg = Memory.Heap.os_decref seg.seg_buf in
  Queue.iter release conn.unacked;
  Queue.iter release conn.unsent;
  Queue.clear conn.unacked;
  Queue.clear conn.unsent

let destroy conn =
  release_tx_resources conn;
  cancel_rto conn;
  cancel_time_wait conn;
  (* Any queued delayed-ack entry becomes a no-op. *)
  conn.ack_pending <- false;
  Conntab.remove conn.stack.conns ~ka:(conn_ka conn) ~kb:conn.remote_ip

let to_closed conn ~reset =
  let was_closed = conn.state = Closed_st in
  (if conn.state = Syn_received then
     match conn.parent_listener with
     | Some l -> l.syn_pending <- max 0 (l.syn_pending - 1)
     | None -> ());
  conn.state <- Closed_st;
  destroy conn;
  if not was_closed then begin
    if reset then
      conn.stack.trace "conn %d: reset" conn.uid 0;
    if reset then conn.stack.events (Reset conn) else conn.stack.events (Closed conn)
  end

let enter_time_wait conn =
  conn.state <- Time_wait;
  conn.stack.trace "conn %d: TIME_WAIT" conn.uid 0;
  cancel_rto conn;
  arm_time_wait_at conn (now conn.stack + conn.stack.config.time_wait_ns)

let tcp_listen ?(backlog = 128) t ~port =
  if Hashtbl.mem t.listeners port then invalid_arg "Stack.tcp_listen: port in use";
  let l =
    { l_stack = t; l_port = port; backlog; accept_q = Queue.create (); syn_pending = 0;
      l_open = true }
  in
  Hashtbl.replace t.listeners port l;
  l

let listener_port l = l.l_port
let tcp_accept l = if Queue.is_empty l.accept_q then None else Some (Queue.pop l.accept_q)
let accept_pending l = Queue.length l.accept_q

let send_syn conn =
  emit_segment conn ~seq:conn.iss ~syn:true ~ack_flag:false ~fin:false ~rst:false

let send_syn_ack conn =
  emit_segment conn ~seq:conn.iss ~syn:true ~ack_flag:true ~fin:false ~rst:false

let tcp_connect t ~dst =
  let port = t.next_ephemeral in
  t.next_ephemeral <- (if t.next_ephemeral >= 65535 then 49152 else t.next_ephemeral + 1);
  let conn =
    make_conn t ~local_ip:(Iface.ip t.iface) ~local_port:port ~remote_ip:dst.Net.Addr.ip
      ~remote_port:dst.Net.Addr.port ~state:Syn_sent ~parent_listener:None
  in
  Conntab.replace t.conns ~ka:(conn_ka conn) ~kb:conn.remote_ip conn;
  send_syn conn;
  conn.snd_nxt <- Seqnum.add conn.iss 1;
  arm_rto_at conn (now t + t.config.syn_rto_ns);
  conn

(* The MSS bounds the payload of a segment with no TCP options (RFC
   9293 §3.7.1, RFC 6691), so options every data segment carries come
   out of it: with timestamps negotiated a full segment holds 12 bytes
   less (the 10-byte option padded to a word) and still fits one
   MTU-sized IP datagram. SACK blocks ride along only while out-of-order
   data is buffered (loss recovery) and are not subtracted; a data
   segment carrying them may IP-fragment. *)
let send_mss conn =
  if conn.state = Closed_st then conn.stack.config.mss
  else
    let mss = min conn.stack.config.mss conn.peer_mss in
    if conn.ts_on then mss - 12 else mss

let tcp_send conn ?(push_id = 0) bufs =
  (match conn.state with
  | Established_st | Close_wait -> ()
  | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait
  | Closed_st ->
      invalid_arg "Stack.tcp_send: connection cannot send");
  let mss = send_mss conn in
  let push_len = List.fold_left (fun n buf -> n + Memory.Heap.length buf) 0 bufs in
  if push_len = 0 then invalid_arg "Stack.tcp_send: empty scatter-gather array";
  (* [unsent] is contiguous from [snd_nxt]: transmission pops its head
     as it advances [snd_nxt]. *)
  let base_seq = if Queue.is_empty conn.unsent then conn.snd_nxt else conn.unsent_end in
  let push_end = Seqnum.add base_seq push_len in
  let queue_buf base_seq buf =
    let total = Memory.Heap.length buf in
    let rec split off seq =
      if off < total then begin
        let len = min mss (total - off) in
        let seq_end = Seqnum.add seq len in
        Memory.Heap.os_incref buf;
        Queue.add
          {
            seg_seq = seq;
            seg_len = len;
            seg_buf = buf;
            seg_buf_off = off;
            seg_push_id = (if seq_end = push_end then push_id else -1);
            first_tx = -1;
            retransmitted = false;
            sacked = false;
          }
          conn.unsent;
        split (off + len) seq_end
      end
    in
    split 0 base_seq;
    Seqnum.add base_seq total
  in
  conn.unsent_end <- List.fold_left queue_buf base_seq bufs;
  try_transmit conn

let tcp_close conn =
  match conn.state with
  | Established_st ->
      conn.state <- Fin_wait_1;
      conn.fin_pending <- true;
      try_transmit conn
  | Close_wait ->
      conn.state <- Last_ack;
      conn.fin_pending <- true;
      try_transmit conn
  | Syn_sent -> to_closed conn ~reset:false
  | Syn_received ->
      conn.state <- Fin_wait_1;
      conn.fin_pending <- true;
      try_transmit conn
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed_st -> ()

let tcp_abort conn =
  (match conn.state with
  | Closed_st -> ()
  | Syn_sent | Syn_received | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
      emit_segment conn ~seq:conn.snd_nxt ~syn:false ~ack_flag:true ~fin:false ~rst:true);
  to_closed conn ~reset:false

let tcp_unlisten l =
  l.l_open <- false;
  Hashtbl.remove l.l_stack.listeners l.l_port;
  Queue.iter tcp_abort l.accept_q;
  Queue.clear l.accept_q

let tcp_recv conn =
  if not (Queue.is_empty conn.recv_q) then begin
    let buf = Queue.pop conn.recv_q in
    conn.recv_q_bytes <- conn.recv_q_bytes - Memory.Heap.length buf;
    `Data buf
  end
  else if conn.eof_delivered_to_q then `Eof
  else `Nothing

(* ---------- ack processing ---------- *)

let fin_acked conn =
  let fs = conn.fin_seq in
  fs >= 0 && Seqnum.le (Seqnum.add fs 1) conn.snd_una

(* First unacknowledged segment the peer has not selectively acked:
   with SACK this skips delivered data and retransmits only the holes. *)
let first_retransmit_candidate conn =
  Queue.fold
    (fun acc seg -> match acc with Some _ -> acc | None -> if seg.sacked then None else Some seg)
    None conn.unacked

let retransmit_head conn =
  match first_retransmit_candidate conn with
  | Some seg ->
      seg.retransmitted <- true;
      conn.retransmit_count <- conn.retransmit_count + 1;
      conn.stack.retransmit_total <- conn.stack.retransmit_total + 1;
      conn.stack.trace "conn %d: retransmit seq=%d" conn.uid seg.seg_seq;
      send_data_segment conn seg
  | None ->
      (* Nothing unacked: the timer was armed for a FIN or a zero-window
         probe. *)
      let fs = conn.fin_seq in
      if fs >= 0 && not (fin_acked conn) then begin
        conn.retransmit_count <- conn.retransmit_count + 1;
        emit_segment conn ~seq:fs ~syn:false ~ack_flag:true ~fin:true ~rst:false
      end
      else if not (Queue.is_empty conn.unsent) then begin
        (* Zero-window probe: force out the head segment. *)
        let seg = Queue.pop conn.unsent in
        send_data_segment conn seg;
        conn.snd_nxt <- Seqnum.max conn.snd_nxt (Seqnum.add seg.seg_seq seg.seg_len);
        Queue.add seg conn.unacked;
        note_push_progress conn seg.seg_push_id
      end

(* Whether one of the segment's SACK blocks, from block [i] on, covers
   [lo, hi). At most {!Net.Tcp_wire.max_sack_blocks} blocks. *)
let rec sack_covers th lo hi i =
  i < th.Net.Tcp_wire.sack_count
  && ((Seqnum.le th.Net.Tcp_wire.sack_edges.(2 * i) lo
      && Seqnum.le hi th.Net.Tcp_wire.sack_edges.((2 * i) + 1))
     || sack_covers th lo hi (i + 1))

let apply_sack_blocks conn th =
  if th.Net.Tcp_wire.sack_count > 0 && conn.sack_on then
    Queue.iter
      (fun seg ->
        if not seg.sacked then
          let seg_end = Seqnum.add seg.seg_seq seg.seg_len in
          if sack_covers th seg.seg_seq seg_end 0 then seg.sacked <- true)
      conn.unacked

(* Retire the fully-acked segments at the head of [unacked], dropping
   the stack's buffer refs. Returns the RTT sample of the last retired
   segment that was sent only once (Karn's rule), or [sample]. *)
let rec retire conn ack sample =
  if Queue.is_empty conn.unacked then sample
  else
    let seg = Queue.peek conn.unacked in
    if Seqnum.le (Seqnum.add seg.seg_seq seg.seg_len) ack then begin
      ignore (Queue.pop conn.unacked);
      let sample =
        if (not seg.retransmitted) && seg.first_tx >= 0 then now conn.stack - seg.first_tx
        else sample
      in
      Memory.Heap.os_decref seg.seg_buf;
      retire conn ack sample
    end
    else sample

let process_ack conn th ~payload_len =
  let t = conn.stack in
  let ack = th.Net.Tcp_wire.ack in
  apply_sack_blocks conn th;
  (* Update the peer's advertised window (scaled outside of SYNs). *)
  conn.snd_wnd <- th.Net.Tcp_wire.window lsl conn.peer_wscale;
  if Seqnum.lt conn.snd_una ack && Seqnum.le ack conn.snd_nxt then begin
    let acked_bytes = Seqnum.sub ack conn.snd_una in
    conn.snd_una <- ack;
    conn.dupacks <- 0;
    Rto.reset_backoff conn.rto;
    let rtt_sample = retire conn ack (-1) in
    if rtt_sample >= 0 then Rto.observe conn.rto rtt_sample;
    Cc.on_ack conn.cc ~acked:acked_bytes ~now:(now t);
    (* FIN progress. *)
    if fin_acked conn then begin
      match conn.state with
      | Fin_wait_1 -> conn.state <- Fin_wait_2
      | Closing -> enter_time_wait conn
      | Last_ack -> to_closed conn ~reset:false
      | Syn_sent | Syn_received | Established_st | Fin_wait_2 | Close_wait | Time_wait
      | Closed_st -> ()
    end;
    if conn.state <> Closed_st then try_transmit conn
  end
  else if Seqnum.le ack conn.snd_una then begin
    (* Duplicate ack (RFC 5681 §2): same ack, outstanding data, and the
       segment carries no payload — data segments of the reverse stream
       must not count, or bidirectional traffic fakes losses. *)
    if
      ack = conn.snd_una
      && (not (Queue.is_empty conn.unacked))
      && th.Net.Tcp_wire.syn = false
      && th.Net.Tcp_wire.fin = false
      && payload_len = 0
    then begin
      conn.dupacks <- conn.dupacks + 1;
      if conn.dupacks = 3 then begin
        Cc.on_fast_retransmit conn.cc;
        (* With SACK, every unsacked segment below the highest selective
           ack is presumed lost (RFC 6675): repair all the holes now
           instead of one per round trip. *)
        let sack_high =
          Queue.fold
            (fun acc seg ->
              if seg.sacked then Seqnum.max acc (Seqnum.add seg.seg_seq seg.seg_len) else acc)
            conn.snd_una conn.unacked
        in
        if conn.sack_on && Seqnum.lt conn.snd_una sack_high then
          Queue.iter
            (fun seg ->
              if (not seg.sacked) && Seqnum.lt seg.seg_seq sack_high then begin
                seg.retransmitted <- true;
                conn.retransmit_count <- conn.retransmit_count + 1;
                conn.stack.retransmit_total <- conn.stack.retransmit_total + 1;
                conn.stack.trace "conn %d: fast retransmit seq=%d" conn.uid seg.seg_seq;
                send_data_segment conn seg
              end)
            conn.unacked
        else retransmit_head conn;
        arm_rto conn
      end
    end
  end

(* ---------- receive path ---------- *)

(* Copy [len] received bytes into a fresh heap buffer at the tail of
   the receive queue — the one receive-side copy. *)
let enqueue_recv conn src off len =
  let buf = Memory.Heap.alloc conn.stack.heap len in
  (* Device DMA: the NIC writes the in-order payload into a DMA-heap buffer, the one
     receive-side copy; charged per frame through Net.Cost. *)
  Bytes.blit src off (Memory.Heap.data buf) (Memory.Heap.offset buf) len;
  Memory.Heap.set_length buf len;
  Queue.add buf conn.recv_q;
  conn.recv_q_bytes <- conn.recv_q_bytes + len

let deliver_ready conn reasm =
  let delivered = ref false in
  let rec drain () =
    match Reassembly.pop_ready reasm with
    | Some chunk ->
        enqueue_recv conn (Bytes.unsafe_of_string chunk) 0 (String.length chunk);
        delivered := true;
        drain ()
    | None -> ()
  in
  drain ();
  if !delivered then conn.stack.events conn.readable

(* Take the peer's SYN options from its (RX) header [th]. *)
let establish conn th =
  let t = conn.stack in
  conn.reasm <-
    Some
      (Reassembly.create
         ~rcv_nxt:(Seqnum.add th.Net.Tcp_wire.seq 1)
         ~capacity:t.config.rwnd_capacity);
  if th.Net.Tcp_wire.mss >= 0 then conn.peer_mss <- th.Net.Tcp_wire.mss;
  conn.peer_wscale <-
    (if th.Net.Tcp_wire.window_scale >= 0 then min th.Net.Tcp_wire.window_scale 14 else 0);
  if th.Net.Tcp_wire.has_ts && t.config.use_timestamps then begin
    conn.ts_on <- true;
    conn.ts_recent <- th.Net.Tcp_wire.ts_val
  end
  else conn.ts_on <- false;
  conn.sack_on <- t.config.use_sack && th.Net.Tcp_wire.sack_permitted

(* [len] payload bytes at [off] in the frame [b]. The next in-order
   segment with nothing buffered out of order (the steady stream) is
   copied straight from the frame into the receive queue; every other
   segment goes through [Reassembly] as a string. *)
let process_payload conn th b off len =
  if conn.ts_on && th.Net.Tcp_wire.has_ts then conn.ts_recent <- th.Net.Tcp_wire.ts_val;
  match conn.reasm with
  | None -> ()
  | Some reasm ->
      let seq = th.Net.Tcp_wire.seq in
      let had_payload = len > 0 in
      let expected = Reassembly.rcv_nxt reasm in
      if had_payload then begin
        if Reassembly.take_in_order reasm ~seq ~len then begin
          enqueue_recv conn b off len;
          conn.stack.events conn.readable
        end
        else begin
          (* Uncharged host copy of the simulator's representation: an out-of-order
             segment is held as a string until the gap fills (loss recovery only). *)
          Reassembly.insert reasm ~seq (Bytes.sub_string b off len);
          deliver_ready conn reasm
        end
      end;
      let advanced = Seqnum.lt expected (Reassembly.rcv_nxt reasm) in
      (* FIN consumes one sequence number after the payload. *)
      if th.Net.Tcp_wire.fin then begin
        let fin_seq = Seqnum.add seq len in
        if fin_seq = Reassembly.rcv_nxt reasm && not conn.eof_delivered_to_q then begin
          (* All data before the FIN has been delivered. *)
          conn.reasm <-
            Some
              (Reassembly.create
                 ~rcv_nxt:(Seqnum.add fin_seq 1)
                 ~capacity:conn.stack.config.rwnd_capacity);
          conn.eof_delivered_to_q <- true;
          (match conn.state with
          | Established_st -> conn.state <- Close_wait
          | Fin_wait_1 -> if fin_acked conn then enter_time_wait conn else conn.state <- Closing
          | Fin_wait_2 -> enter_time_wait conn
          | Syn_sent | Syn_received | Close_wait | Closing | Last_ack | Time_wait | Closed_st ->
              ());
          conn.stack.events conn.readable;
          send_ack conn
        end
        else send_ack conn
      end
      else if had_payload then begin
        if advanced then mark_ack_pending conn
          (* In-order data: cumulative ack at the end of the poll burst. *)
        else send_ack conn (* duplicate or out-of-order: dup-ack now *)
      end

let handle_existing conn th b off len =
  let t = conn.stack in
  if th.Net.Tcp_wire.rst then begin
    match conn.state with
    | Syn_sent | Syn_received | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack ->
        to_closed conn ~reset:true
    | Time_wait -> to_closed conn ~reset:false
    | Closed_st -> ()
  end
  else
    match conn.state with
    | Syn_sent ->
        if th.Net.Tcp_wire.syn && th.Net.Tcp_wire.ack_flag then begin
          if th.Net.Tcp_wire.ack = Seqnum.add conn.iss 1 then begin
            conn.snd_una <- th.Net.Tcp_wire.ack;
            establish conn th;
            conn.snd_wnd <- th.Net.Tcp_wire.window (* SYN windows are unscaled *);
            conn.state <- Established_st;
            cancel_rto conn;
            send_ack conn;
            t.events (Established conn)
          end
          else send_rst_for t ~src_ip:conn.remote_ip ~th ~seg_len:len
        end
    | Syn_received ->
        if th.Net.Tcp_wire.ack_flag && th.Net.Tcp_wire.ack = Seqnum.add conn.iss 1 then begin
          conn.snd_una <- th.Net.Tcp_wire.ack;
          conn.snd_wnd <- th.Net.Tcp_wire.window lsl conn.peer_wscale;
          conn.state <- Established_st;
          cancel_rto conn;
          match conn.parent_listener with
          | Some l when not l.l_open ->
              (* Its listener closed mid-handshake: nobody can accept it. *)
              tcp_abort conn
          | Some l ->
              l.syn_pending <- max 0 (l.syn_pending - 1);
              Queue.add conn l.accept_q;
              t.events (Accept_ready l);
              (* The handshake ACK may carry data. *)
              process_payload conn th b off len
          | None -> process_payload conn th b off len
        end
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        (* A retransmitted SYN/SYN-ACK means our handshake ACK was lost:
           re-ack so the peer can leave SYN_RCVD (RFC 793 p.69). *)
        if th.Net.Tcp_wire.syn then send_ack conn;
        if th.Net.Tcp_wire.ack_flag then process_ack conn th ~payload_len:len;
        if conn.state <> Closed_st then process_payload conn th b off len
    | Time_wait ->
        (* A retransmitted FIN: re-ack and restart the 2MSL clock. *)
        if th.Net.Tcp_wire.fin then begin
          send_ack conn;
          arm_time_wait_at conn (now t + t.config.time_wait_ns)
        end
    | Closed_st -> ()

let handle_syn_for_listener t l th ~src_ip =
  if l.syn_pending + Queue.length l.accept_q >= l.backlog then
    (* Backlog full: drop the SYN; the client retries (RFC 793 allows
       silently discarding). *)
    ()
  else begin
  l.syn_pending <- l.syn_pending + 1;
  let conn =
    make_conn t ~local_ip:(Iface.ip t.iface) ~local_port:l.l_port ~remote_ip:src_ip
      ~remote_port:th.Net.Tcp_wire.src_port ~state:Syn_received ~parent_listener:(Some l)
  in
  establish conn th;
  conn.snd_wnd <- th.Net.Tcp_wire.window;
  Conntab.replace t.conns ~ka:(conn_ka conn) ~kb:conn.remote_ip conn;
  send_syn_ack conn;
  conn.snd_nxt <- Seqnum.add conn.iss 1;
  arm_rto_at conn (now t + t.config.syn_rto_ns)
  end

let handle_tcp t header b off =
  let src_ip = header.Net.Ipv4.src in
  let seg_total = header.Net.Ipv4.total_length - Net.Ipv4.size in
  let th = t.rx_th in
  match
    Net.Tcp_wire.read b off ~lim:(off + seg_total) th ~seg_len:seg_total ~src_ip
      ~dst_ip:header.Net.Ipv4.dst
  with
  | exception Net.Wire.Malformed _ -> ()
  | payload_off ->
      let payload_len = seg_total - (payload_off - off) in
      let ka = (th.Net.Tcp_wire.dst_port lsl 16) lor th.Net.Tcp_wire.src_port in
      (match Conntab.find t.conns ~ka ~kb:src_ip with
      | Some conn -> handle_existing conn th b payload_off payload_len
      | None -> (
          match Hashtbl.find_opt t.listeners th.Net.Tcp_wire.dst_port with
          | Some l when th.Net.Tcp_wire.syn && not th.Net.Tcp_wire.ack_flag ->
              handle_syn_for_listener t l th ~src_ip
          | Some _ | None ->
              if not th.Net.Tcp_wire.rst then send_rst_for t ~src_ip ~th ~seg_len:payload_len))

(* ---------- input and timers ---------- *)

(* Delayed ACKs, visiting only the connections whose flag flipped since
   the last flush, in arming order (FIFO) — never a table scan. Arming
   order follows segment-processing order, which is itself
   deterministic, so emission order cannot depend on hashing. A conn
   whose flag was already cleared (early [send_ack], or teardown) pops
   as a no-op. *)
let flush_acks t =
  while not (Engine.Ring.is_empty t.ack_q) do
    let conn = Engine.Ring.pop t.ack_q in
    if conn.ack_pending then send_ack conn
  done

(* The dispatch itself is allocation-free; the per-protocol handlers it
   calls are busy-path work (a frame arrived). *)
let dispatch t header b off =
  if header.Net.Ipv4.protocol = Net.Ipv4.protocol_udp then handle_udp t header b off
  else if header.Net.Ipv4.protocol = Net.Ipv4.protocol_tcp then handle_tcp t header b off

(* ---------- creation ---------- *)

(* Defined after the handlers: the transport writers and [Iface.input]'s
   deliver callback are built here, once per stack. *)
let create ?(config = default_config) ?(trace = fun _ _ _ -> ()) ~iface ~heap ~prng ~events () =
  let t =
    {
      config;
      iface;
      heap;
      prng;
      events;
      conns = Conntab.create ~initial:64 ();
      listeners = Hashtbl.create 8;
      udp_socks = Hashtbl.create 8;
      timers = Engine.Eventq.create ();
      timers_fired = 0;
      ack_q = Engine.Ring.create ();
      next_ephemeral = 49152;
      next_conn_uid = 1;
      retransmit_total = 0;
      conns_opened = 0;
      conns_peak = 0;
      trace;
      rx_th = Net.Tcp_wire.create ();
      rx_uh = Net.Udp_wire.create ();
      in_input = false;
      tx_th = Net.Tcp_wire.create ();
      tx_uh = Net.Udp_wire.create ();
      tx_dst_ip = 0;
      tx_src = Bytes.empty;
      tx_src_off = 0;
      tx_len = 0;
      tcp_write = (fun _ _ -> ());
      udp_write = (fun _ _ -> ());
      deliver = (fun _ _ _ -> ());
    }
  in
  t.tcp_write <- write_tcp t;
  t.udp_write <- write_udp t;
  t.deliver <- dispatch t;
  t

(* The one writer of the RX views: a frame is parsed and handled to the
   end before the next is taken, even when a handler's transmit charges
   and suspends, so input must never be re-entered. Input is the
   frame's last holder: every handler copies what it keeps, so the
   frame is freed on the way out. *)
let input t frame =
  assert (not t.in_input);
  t.in_input <- true;
  match Iface.input t.iface frame ~deliver:t.deliver with
  | () ->
      t.in_input <- false;
      Memory.Heap.free frame
  | exception e ->
      t.in_input <- false;
      Memory.Heap.free frame;
      raise e

let timer_live conn seq = seq = conn.rto_seq || seq = conn.tw_seq

let next_timer_ns t = Engine.Eventq.next_live t.timers ~live:timer_live

let timer_activity t = t.timers_fired

let handshake_timeout conn =
  let t = conn.stack in
  conn.syn_retries <- conn.syn_retries + 1;
  if conn.syn_retries > t.config.max_syn_retries then to_closed conn ~reset:true
  else begin
    (match conn.state with
    | Syn_sent -> send_syn conn
    | Syn_received -> send_syn_ack conn
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack | Time_wait
    | Closed_st -> ());
    arm_rto_at conn (now t + (t.config.syn_rto_ns lsl min conn.syn_retries 10))
  end

let rto_fire conn =
  let t = conn.stack in
  t.trace "conn %d: RTO fired" conn.uid 0;
  match conn.state with
  | Syn_sent | Syn_received -> handshake_timeout conn
  | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      Cc.on_timeout conn.cc;
      Rto.backoff conn.rto;
      retransmit_head conn;
      arm_rto conn
  | Time_wait | Closed_st -> ()

(* The heap hands over only live due entries, in (deadline,
   insertion-seq) order; [seq] says which of the connection's two
   timers it is. Top-level (not a per-call closure) so the nothing-due
   [on_timer] stays allocation-free. *)
let timer_fired conn seq =
  conn.stack.timers_fired <- conn.stack.timers_fired + 1;
  if seq = conn.tw_seq then begin
    conn.tw_seq <- -1;
    to_closed conn ~reset:false
  end
  else begin
    conn.rto_seq <- -1;
    rto_fire conn
  end

let on_timer t =
  flush_acks t;
  (* [now] is read once: a firing callback charges the host, which
     moves the clock, and what it re-arms waits for the next call. *)
  Engine.Eventq.expire t.timers ~now:(now t) ~live:timer_live timer_fired

(* ---------- introspection ---------- *)

let conn_id conn = conn.uid
let conn_state conn = conn.state
let conn_local conn = Net.Addr.endpoint conn.local_ip conn.local_port
let conn_remote conn = Net.Addr.endpoint conn.remote_ip conn.remote_port

(* A closed connection has no window, nothing in flight and no RTT
   estimate, whatever its fields last held. *)
let conn_cwnd conn = if conn.state = Closed_st then 0 else Cc.cwnd conn.cc
let conn_srtt conn = if conn.state = Closed_st then None else Rto.srtt conn.rto
let conn_bytes_in_flight conn = if conn.state = Closed_st then 0 else bytes_in_flight conn
let conn_retransmits conn = conn.retransmit_count
let conn_recv_queue_bytes conn = conn.recv_q_bytes
let conn_at_eof conn = conn.eof_delivered_to_q && Queue.is_empty conn.recv_q

(* Aggregate gauges for Demiscope timelines: summed over live
   connections in sorted-key order: (local port, remote ip, remote
   port). *)
let key_order (ka1, kb1) (ka2, kb2) =
  let c = compare (ka1 lsr 16) (ka2 lsr 16) in
  if c <> 0 then c
  else
    let c = compare kb1 kb2 in
    if c <> 0 then c else compare (ka1 land 0xffff) (ka2 land 0xffff)

let agg_cwnd t =
  Conntab.fold_sorted t.conns ~cmp:key_order (fun _ conn acc -> acc + conn_cwnd conn) 0

let agg_bytes_in_flight t =
  Conntab.fold_sorted t.conns ~cmp:key_order
    (fun _ conn acc -> acc + conn_bytes_in_flight conn)
    0
