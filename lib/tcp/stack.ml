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

(* ---------- the flat TCB ----------

   Every integer of per-connection hot state — sequence numbers,
   windows, the RTO estimator, congestion control, the state machine —
   lives in one [Memory.Pool] slot of unboxed ints (plus a float
   section for cubic), not in the [conn] record. At 10^5..10^6
   connections this is the difference between the GC tracing two flat
   arrays and tracing a million boxed records; it is also what makes
   connection churn cheap (slot alloc/free is a free-list pop/push).

   The [conn] record keeps only what must stay boxed — queues, buffers,
   reassembly, timer handles — plus the fields applications may read
   after close (receive queue, retransmit count). A closed connection's
   slot is released back to the pool and [tcb] goes to -1; accessors
   below degrade gracefully so late introspection cannot hit the
   sanitizer. *)

let f_state = 0
let f_iss = 1
let f_snd_una = 2
let f_snd_nxt = 3
let f_snd_wnd = 4
let f_peer_wscale = 5
let f_peer_mss = 6
let f_dupacks = 7
let f_syn_retries = 8
let f_ts_recent = 9
let f_fin_seq = 10 (* Seqnum, -1 = no FIN queued *)
let f_flags = 11
let f_rto = 12 (* Rto.Flat section *)
let f_cc = 12 + 5 (* Cc.Flat integer section; Rto.Flat.words = 5 *)
let f_push0_id = f_cc + 3 (* Cc.Flat.int_words = 3 *)
let f_push0_left = f_push0_id + 1
let f_push1_id = f_push0_id + 2
let f_push1_left = f_push0_id + 3
let tcb_words = f_push0_id + 4
let cc_fbase = 0

let flag_fin_pending = 1
let flag_use_ts = 2
let flag_use_sack = 4

let state_code s =
  match s with
  | Syn_sent -> 0
  | Syn_received -> 1
  | Established_st -> 2
  | Fin_wait_1 -> 3
  | Fin_wait_2 -> 4
  | Close_wait -> 5
  | Closing -> 6
  | Last_ack -> 7
  | Time_wait -> 8
  | Closed_st -> 9

let state_of_code c =
  match c with
  | 0 -> Syn_sent
  | 1 -> Syn_received
  | 2 -> Established_st
  | 3 -> Fin_wait_1
  | 4 -> Fin_wait_2
  | 5 -> Close_wait
  | 6 -> Closing
  | 7 -> Last_ack
  | 8 -> Time_wait
  | _ -> Closed_st

(* One MSS-or-smaller slice of an application buffer queued for
   transmission. The stack holds a heap reference per segment (taken in
   [tcp_send], dropped on cumulative ack) because retransmission re-reads
   the buffer — this is the UAF-protection contract of §5.3. *)
type tx_seg = {
  seg_seq : Seqnum.t;
  seg_len : int;
  seg_buf : Memory.Heap.buffer;
  seg_buf_off : int;
  seg_push_id : int;
  mutable first_tx : int; (* -1 until first transmission *)
  mutable retransmitted : bool;
  mutable sacked : bool; (* covered by a peer SACK block (RFC 2018) *)
}

type conn = {
  stack : t;
  uid : int;
  mutable tcb : int; (* Memory.Pool slot of the flat TCB; -1 once released *)
  local_ip : Net.Addr.Ip.t;
  local_port : int;
  remote_ip : Net.Addr.Ip.t;
  remote_port : int;
  (* --- send side (boxed remainder) --- *)
  unacked : tx_seg Queue.t;
  unsent : tx_seg Queue.t;
  mutable rto_timer : timer option;
  mutable retransmit_count : int;
  (* --- receive side --- *)
  mutable reasm : Reassembly.t option; (* None until sequence space known *)
  recv_q : Memory.Heap.buffer Queue.t;
  mutable recv_q_bytes : int;
  mutable eof_delivered_to_q : bool;
  mutable ack_pending : bool;
  mutable tw_timer : timer option;
  (* --- push completion overflow ---
     The first two concurrent push ids track inline in the TCB; only a
     third concurrent multi-segment push spills here. *)
  mutable push_spill : (int, int) Hashtbl.t option;
  (* --- passive-open bookkeeping --- *)
  parent_listener : listener option;
}

and listener = {
  l_stack : t;
  l_port : int;
  backlog : int;
  accept_q : conn Queue.t;
  mutable syn_pending : int; (* connections in SYN_RCVD for this listener *)
}

and udp_socket = {
  u_port : int;
  udp_q : (Net.Addr.endpoint * Memory.Heap.buffer) Queue.t;
}

(* A wheel entry's payload: which connection, and which of its two
   timers ([true] = TIME_WAIT, [false] = RTO / handshake). The firing
   callback needs both because the wheel owns the schedule — the
   connection only holds cancellable handles. *)
and timer = (conn * bool) Engine.Timerwheel.handle

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
  tcbs : Memory.Pool.t; (* flat TCB arena *)
  conns : conn Conntab.t; (* packed-key demux: (local port, remote ip, remote port) *)
  listeners : (int, listener) Hashtbl.t;
  udp_socks : (int, udp_socket) Hashtbl.t;
  timers : (conn * bool) Engine.Timerwheel.t;
  ack_q : conn Queue.t; (* conns with [ack_pending], in arming order *)
  mutable next_ephemeral : int;
  mutable next_conn_uid : int;
  mutable retransmit_total : int;
  mutable conns_opened : int;
  mutable conns_peak : int;
  trace : string -> int -> int -> unit;
      (* Demitrace hook: a static template and its int operands; drivers
         wire it to [Sim.trace_event]. *)
}

type conn_stats = { live : int; ever_opened : int; peak : int }

let create ?(config = default_config) ?(trace = fun _ _ _ -> ()) ~iface ~heap ~prng ~events () =
  {
    config;
    iface;
    heap;
    prng;
    events;
    tcbs =
      Memory.Pool.create ~label:"tcp-tcb"
        ~sanitize:(Memory.Heap.sanitizing heap)
        ~slot_words:tcb_words ~float_words:Cc.Flat.float_words ();
    conns = Conntab.create ~initial:64 ();
    listeners = Hashtbl.create 8;
    udp_socks = Hashtbl.create 8;
    (* Start at virtual 0 even if created mid-run: the wheel only ever
       advances (deadlines clamp upward), and catching up to the current
       clock on the first [expire] is one bounded slot walk. Reading the
       clock here would also break trace-driven harnesses that tie the
       clock closure to the not-yet-constructed driver. *)
    timers = Engine.Timerwheel.create ();
    ack_q = Queue.create ();
    next_ephemeral = 49152;
    next_conn_uid = 1;
    retransmit_total = 0;
    conns_opened = 0;
    conns_peak = 0;
    trace;
  }

let now t = Iface.clock t.iface
let stack_iface t = t.iface
let live_connections t = Conntab.length t.conns
let total_retransmits t = t.retransmit_total
let conn_stats t = { live = Conntab.length t.conns; ever_opened = t.conns_opened; peak = t.conns_peak }
let tcb_pool t = t.tcbs

(* TCB field access. Reads of a released TCB ([tcb = -1]) return the
   values a closed connection would have; writes are dropped. Pool
   liveness is still checked on every live access — a stale slot id is
   a use-after-free and the pool raises. *)
(* dlint: hotpath *)
let tget conn f = Memory.Pool.get conn.stack.tcbs conn.tcb f

(* dlint: hotpath *)
let tset conn f v = Memory.Pool.set conn.stack.tcbs conn.tcb f v

(* dlint: hotpath *)
let state conn = if conn.tcb < 0 then Closed_st else state_of_code (tget conn f_state)

let set_state conn s = if conn.tcb >= 0 then tset conn f_state (state_code s)
let snd_una conn = tget conn f_snd_una
let snd_nxt conn = tget conn f_snd_nxt
let fin_seq conn = tget conn f_fin_seq
let get_flag conn bit = tget conn f_flags land bit <> 0

let set_flag conn bit on =
  let f = tget conn f_flags in
  tset conn f_flags (if on then f lor bit else f land lnot bit)

(* RTO / congestion control over the flat TCB: the estimator and the
   controller are stateless field transformers ([Rto.Flat], [Cc.Flat]);
   the per-stack constants come from the config. *)
let rto_observe conn sample =
  Rto.Flat.observe conn.stack.tcbs conn.tcb ~base:f_rto ~min_rto:conn.stack.config.min_rto_ns
    ~max_rto:conn.stack.config.max_rto_ns sample

let rto_current conn =
  Rto.Flat.rto conn.stack.tcbs conn.tcb ~base:f_rto ~max_rto:conn.stack.config.max_rto_ns

let rto_backoff conn =
  Rto.Flat.backoff conn.stack.tcbs conn.tcb ~base:f_rto ~max_rto:conn.stack.config.max_rto_ns

let rto_reset_backoff conn = Rto.Flat.reset_backoff conn.stack.tcbs conn.tcb ~base:f_rto

let cc_cwnd conn = Cc.Flat.cwnd conn.stack.tcbs conn.tcb ~ibase:f_cc conn.stack.config.cc

let cc_on_ack conn ~acked ~now =
  Cc.Flat.on_ack conn.stack.tcbs conn.tcb ~ibase:f_cc ~fbase:cc_fbase conn.stack.config.cc
    ~mss:conn.stack.config.mss ~acked ~now

let cc_on_fast_retransmit conn ~now =
  Cc.Flat.on_fast_retransmit conn.stack.tcbs conn.tcb ~ibase:f_cc ~fbase:cc_fbase
    conn.stack.config.cc ~mss:conn.stack.config.mss ~now

let cc_on_timeout conn ~now =
  Cc.Flat.on_timeout conn.stack.tcbs conn.tcb ~ibase:f_cc ~fbase:cc_fbase conn.stack.config.cc
    ~mss:conn.stack.config.mss ~now

(* 32-bit millisecond timestamp for the RFC 7323 option. *)
let ts_now t = now t / 1_000_000 land 0xFFFF_FFFF

(* ---------- UDP ---------- *)

let udp_bind t ~port =
  if Hashtbl.mem t.udp_socks port then invalid_arg "Stack.udp_bind: port in use";
  let sock = { u_port = port; udp_q = Queue.create () } in
  Hashtbl.replace t.udp_socks port sock;
  sock

let udp_socket_port sock = sock.u_port

let udp_sendto t sock ~dst buf =
  let payload_len = Memory.Heap.length buf in
  if payload_len > 65507 then invalid_arg "Stack.udp_sendto: datagram exceeds UDP limit";
  let len = Net.Udp_wire.size + payload_len in
  Iface.output t.iface ~dst_ip:dst.Net.Addr.ip ~protocol:Net.Ipv4.protocol_udp ~len
    ~write:(fun b off ->
      Bytes.blit (Memory.Heap.data buf) (Memory.Heap.offset buf) b (off + Net.Udp_wire.size)
        payload_len;
      ignore
        (Net.Udp_wire.write b off
           { Net.Udp_wire.src_port = sock.u_port; dst_port = dst.Net.Addr.port; length = len }
           ~src_ip:(Iface.ip t.iface) ~dst_ip:dst.Net.Addr.ip))

let udp_recv sock = if Queue.is_empty sock.udp_q then None else Some (Queue.pop sock.udp_q)
let udp_pending sock = Queue.length sock.udp_q

(* dlint-allow: transitive-alloc-in-hotpath -- busy-path RX: a datagram arrived, so the payload buffer alloc and socket lookup are per-frame work the paper's datapath also does; steady polls never reach the handler *)
let handle_udp t header b off =
  let src_ip = header.Net.Ipv4.src and dst_ip = header.Net.Ipv4.dst in
  match Net.Udp_wire.read b off ~src_ip ~dst_ip with
  | exception Net.Wire.Malformed _ -> ()
  | uh, payload_off -> (
      match Hashtbl.find_opt t.udp_socks uh.Net.Udp_wire.dst_port with
      | None -> () (* no ICMP in this datacenter *)
      | Some sock ->
          let payload_len = uh.Net.Udp_wire.length - Net.Udp_wire.size in
          let buf = Memory.Heap.alloc t.heap (max 1 payload_len) in
          Bytes.blit b payload_off (Memory.Heap.data buf) (Memory.Heap.offset buf) payload_len;
          Memory.Heap.set_length buf payload_len;
          Queue.add (Net.Addr.endpoint src_ip uh.Net.Udp_wire.src_port, buf) sock.udp_q;
          t.events (Udp_readable sock))

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

(* dlint-allow: transitive-alloc-in-hotpath -- busy-path TX: a segment exists to be sent, so per-segment header/options construction is per-frame work, not steady-poll work (the gc-budget oracle bounds the empty poll) *)
let emit_segment conn ~seq ~syn ~ack_flag ~fin ~rst ~payload =
  let t = conn.stack in
  let options =
    if syn then
      {
        Net.Tcp_wire.no_options with
        Net.Tcp_wire.mss = Some t.config.mss;
        window_scale = Some (my_wscale t);
        timestamp =
          (if t.config.use_timestamps then Some (ts_now t, tget conn f_ts_recent) else None);
        sack_permitted = t.config.use_sack;
      }
    else begin
      let sack_blocks =
        (* Up to 3 blocks of buffered out-of-order data on acks. *)
        if get_flag conn flag_use_sack && ack_flag then
          match conn.reasm with
          | Some reasm -> (
              match Reassembly.ranges reasm with
              | a :: b :: c :: _ -> [ a; b; c ]
              | blocks -> blocks)
          | None -> []
        else []
      in
      {
        Net.Tcp_wire.no_options with
        Net.Tcp_wire.timestamp =
          (if get_flag conn flag_use_ts then Some (ts_now t, tget conn f_ts_recent) else None);
        sack_blocks;
      }
    end
  in
  let header =
    {
      Net.Tcp_wire.src_port = conn.local_port;
      dst_port = conn.remote_port;
      seq;
      ack = (if ack_flag then rcv_nxt conn else 0);
      syn;
      ack_flag;
      fin;
      rst;
      psh = (match payload with Some _ -> true | None -> false);
      window = window_field conn ~syn;
      options;
    }
  in
  let hsize = Net.Tcp_wire.header_size header in
  let payload_len = match payload with Some (_, _, len) -> len | None -> 0 in
  Iface.output t.iface ~dst_ip:conn.remote_ip ~protocol:Net.Ipv4.protocol_tcp
    ~len:(hsize + payload_len) ~write:(fun b off ->
      (match payload with
      | Some (src, src_off, len) -> Bytes.blit src src_off b (off + hsize) len
      | None -> ());
      ignore
        (Net.Tcp_wire.write b off header ~payload_len ~src_ip:(Iface.ip t.iface)
           ~dst_ip:conn.remote_ip))

let send_ack conn =
  conn.ack_pending <- false;
  emit_segment conn ~seq:(snd_nxt conn) ~syn:false ~ack_flag:true ~fin:false ~rst:false
    ~payload:None

(* Delayed-ack dirty tracking: a connection enters the stack-wide FIFO
   exactly when its flag flips to pending, so [flush_acks] visits only
   dirty connections, in arming order. [send_ack] clears the flag, which
   turns any still-queued entry into a pop-and-skip no-op. *)
let mark_ack_pending conn =
  if not conn.ack_pending then begin
    conn.ack_pending <- true;
    Queue.add conn conn.stack.ack_q
  end

let send_data_segment conn seg =
  let t = conn.stack in
  if seg.first_tx < 0 then seg.first_tx <- now t;
  emit_segment conn ~seq:seg.seg_seq ~syn:false ~ack_flag:true ~fin:false ~rst:false
    ~payload:
      (Some
         ( Memory.Heap.data seg.seg_buf,
           Memory.Heap.offset seg.seg_buf + seg.seg_buf_off,
           seg.seg_len ))

(* A raw RST for segments that match no connection (RFC 793 p.36). *)
let send_rst_for t ~src_ip ~th ~seg_len =
  let seq, ack, ack_flag =
    if th.Net.Tcp_wire.ack_flag then (th.Net.Tcp_wire.ack, 0, false)
    else
      ( 0,
        Seqnum.add th.Net.Tcp_wire.seq
          (seg_len + (if th.Net.Tcp_wire.syn then 1 else 0) + if th.Net.Tcp_wire.fin then 1 else 0),
        true )
  in
  let header =
    {
      Net.Tcp_wire.src_port = th.Net.Tcp_wire.dst_port;
      dst_port = th.Net.Tcp_wire.src_port;
      seq;
      ack;
      syn = false;
      ack_flag;
      fin = false;
      rst = true;
      psh = false;
      window = 0;
      options = Net.Tcp_wire.no_options;
    }
  in
  let hsize = Net.Tcp_wire.header_size header in
  Iface.output t.iface ~dst_ip:src_ip ~protocol:Net.Ipv4.protocol_tcp ~len:hsize
    ~write:(fun b off ->
      ignore
        (Net.Tcp_wire.write b off header ~payload_len:0 ~src_ip:(Iface.ip t.iface) ~dst_ip:src_ip))

(* ---------- timers ----------

   Both per-connection timers live on the stack's {!Engine.Timerwheel}:
   arming replaces (cancels) the previous handle, so at most one RTO and
   one TIME_WAIT entry are live per connection and a fired entry is
   always the connection's current one. *)

let cancel_rto conn =
  match conn.rto_timer with
  | Some h ->
      Engine.Timerwheel.cancel conn.stack.timers h;
      conn.rto_timer <- None
  | None -> ()

let arm_rto_at conn deadline =
  cancel_rto conn;
  conn.rto_timer <- Some (Engine.Timerwheel.add conn.stack.timers ~deadline (conn, false))

let cancel_time_wait conn =
  match conn.tw_timer with
  | Some h ->
      Engine.Timerwheel.cancel conn.stack.timers h;
      conn.tw_timer <- None
  | None -> ()

let arm_time_wait_at conn deadline =
  cancel_time_wait conn;
  conn.tw_timer <- Some (Engine.Timerwheel.add conn.stack.timers ~deadline (conn, true))

let arm_rto conn =
  let t = conn.stack in
  let need =
    match state conn with
    | Syn_sent | Syn_received -> true
    | Closed_st | Time_wait -> false
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        (not (Queue.is_empty conn.unacked))
        || (let fs = fin_seq conn in
            fs >= 0 && Seqnum.lt (snd_una conn) (Seqnum.add fs 1))
        || ((not (Queue.is_empty conn.unsent)) && tget conn f_snd_wnd = 0)
  in
  if need then arm_rto_at conn (now t + rto_current conn) else cancel_rto conn

(* ---------- transmission ---------- *)

let bytes_in_flight conn = Seqnum.sub (snd_nxt conn) (snd_una conn)

(* ---------- push completion tracking ----------

   PDPIX pushes complete when every segment of the push has left the
   stack once. Two concurrent pushes per connection track inline in the
   TCB ([left = 0] marks a free inline lane); a third concurrent push
   spills into a lazily created side table. Echo servers and KV stores
   keep at most one or two pushes outstanding, so at 10^6 connections
   the old per-connection Hashtbl was pure dead weight. *)

let push_register conn push_id nsegs =
  let left0 = tget conn f_push0_left in
  if left0 > 0 && tget conn f_push0_id = push_id then tset conn f_push0_left (left0 + nsegs)
  else
    let left1 = tget conn f_push1_left in
    if left1 > 0 && tget conn f_push1_id = push_id then tset conn f_push1_left (left1 + nsegs)
    else
      match conn.push_spill with
      | Some spill when Hashtbl.mem spill push_id ->
          Hashtbl.replace spill push_id (Hashtbl.find spill push_id + nsegs)
      | Some _ | None ->
          if left0 = 0 then begin
            tset conn f_push0_id push_id;
            tset conn f_push0_left nsegs
          end
          else if left1 = 0 then begin
            tset conn f_push1_id push_id;
            tset conn f_push1_left nsegs
          end
          else begin
            let spill =
              match conn.push_spill with
              | Some s -> s
              | None ->
                  let s = Hashtbl.create 4 in
                  conn.push_spill <- Some s;
                  s
            in
            Hashtbl.replace spill push_id nsegs
          end

let note_push_progress conn push_id =
  let left0 = tget conn f_push0_left in
  if left0 > 0 && tget conn f_push0_id = push_id then begin
    tset conn f_push0_left (left0 - 1);
    if left0 = 1 then conn.stack.events (Push_completed (conn, push_id))
  end
  else
    let left1 = tget conn f_push1_left in
    if left1 > 0 && tget conn f_push1_id = push_id then begin
      tset conn f_push1_left (left1 - 1);
      if left1 = 1 then conn.stack.events (Push_completed (conn, push_id))
    end
    else
      match conn.push_spill with
      | None -> ()
      | Some spill -> (
          match Hashtbl.find_opt spill push_id with
          | None -> ()
          | Some n ->
              if n <= 1 then begin
                Hashtbl.remove spill push_id;
                conn.stack.events (Push_completed (conn, push_id))
              end
              else Hashtbl.replace spill push_id (n - 1))

let may_send_fin conn =
  get_flag conn flag_fin_pending
  && Queue.is_empty conn.unsent
  && (match state conn with
     | Fin_wait_1 | Last_ack | Closing -> true
     | Syn_sent | Syn_received | Established_st | Fin_wait_2 | Close_wait | Time_wait | Closed_st
       -> false)
  && fin_seq conn = -1

let try_transmit conn =
  let progress = ref true in
  while !progress do
    progress := false;
    if not (Queue.is_empty conn.unsent) then begin
      let seg = Queue.peek conn.unsent in
      let wnd = min (cc_cwnd conn) (tget conn f_snd_wnd) in
      let in_flight = bytes_in_flight conn in
      (* Always allow at least one segment when nothing is in flight,
         so a window smaller than MSS cannot deadlock the connection. *)
      if in_flight + seg.seg_len <= wnd || (in_flight = 0 && wnd > 0) then begin
        let seg = Queue.pop conn.unsent in
        send_data_segment conn seg;
        tset conn f_snd_nxt (Seqnum.add (snd_nxt conn) seg.seg_len);
        Queue.add seg conn.unacked;
        note_push_progress conn seg.seg_push_id;
        progress := true
      end
    end
  done;
  if may_send_fin conn then begin
    tset conn f_fin_seq (snd_nxt conn);
    emit_segment conn ~seq:(snd_nxt conn) ~syn:false ~ack_flag:true ~fin:true ~rst:false
      ~payload:None;
    tset conn f_snd_nxt (Seqnum.add (snd_nxt conn) 1)
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
  let tcb = Memory.Pool.alloc t.tcbs in
  Memory.Pool.set t.tcbs tcb f_state (state_code state);
  Memory.Pool.set t.tcbs tcb f_iss iss;
  Memory.Pool.set t.tcbs tcb f_snd_una iss;
  Memory.Pool.set t.tcbs tcb f_snd_nxt iss;
  Memory.Pool.set t.tcbs tcb f_snd_wnd t.config.mss;
  Memory.Pool.set t.tcbs tcb f_peer_mss t.config.mss;
  Memory.Pool.set t.tcbs tcb f_fin_seq (-1);
  Rto.Flat.init t.tcbs tcb ~base:f_rto ~min_rto:t.config.min_rto_ns;
  Cc.Flat.init t.tcbs tcb ~ibase:f_cc ~mss:t.config.mss;
  {
    stack = t;
    uid;
    tcb;
    local_ip;
    local_port;
    remote_ip;
    remote_port;
    unacked = Queue.create ();
    unsent = Queue.create ();
    rto_timer = None;
    retransmit_count = 0;
    reasm = None;
    recv_q = Queue.create ();
    recv_q_bytes = 0;
    eof_delivered_to_q = false;
    ack_pending = false;
    tw_timer = None;
    push_spill = None;
    parent_listener;
  }

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

let release_tcb conn =
  if conn.tcb >= 0 then begin
    Memory.Pool.free conn.stack.tcbs conn.tcb;
    conn.tcb <- -1
  end

(* dlint-allow: transitive-alloc-in-hotpath -- connection teardown: runs once per connection close, and releasing the connection's unacked buffers returns their slots to the heap's free list *)
let to_closed conn ~reset =
  let was_closed = state conn = Closed_st in
  (if state conn = Syn_received then
     match conn.parent_listener with
     | Some l -> l.syn_pending <- max 0 (l.syn_pending - 1)
     | None -> ());
  set_state conn Closed_st;
  destroy conn;
  if not was_closed then begin
    if reset then
      conn.stack.trace "conn %d: reset" conn.uid 0;
    if reset then conn.stack.events (Reset conn) else conn.stack.events (Closed conn)
  end;
  (* The slot outlives the Closed/Reset event — handlers (the libOS
     completion plumbing) look connections up by [conn_slot]. Only now
     does it return to the arena. *)
  release_tcb conn

let enter_time_wait conn =
  set_state conn Time_wait;
  conn.stack.trace "conn %d: TIME_WAIT" conn.uid 0;
  cancel_rto conn;
  arm_time_wait_at conn (now conn.stack + conn.stack.config.time_wait_ns)

let tcp_listen ?(backlog = 128) t ~port =
  if Hashtbl.mem t.listeners port then invalid_arg "Stack.tcp_listen: port in use";
  let l =
    { l_stack = t; l_port = port; backlog; accept_q = Queue.create (); syn_pending = 0 }
  in
  Hashtbl.replace t.listeners port l;
  l

let listener_port l = l.l_port
let tcp_accept l = if Queue.is_empty l.accept_q then None else Some (Queue.pop l.accept_q)
let accept_pending l = Queue.length l.accept_q

let send_syn conn =
  emit_segment conn ~seq:(tget conn f_iss) ~syn:true ~ack_flag:false ~fin:false ~rst:false
    ~payload:None

let send_syn_ack conn =
  emit_segment conn ~seq:(tget conn f_iss) ~syn:true ~ack_flag:true ~fin:false ~rst:false
    ~payload:None

let tcp_connect t ~dst =
  let port = t.next_ephemeral in
  t.next_ephemeral <- (if t.next_ephemeral >= 65535 then 49152 else t.next_ephemeral + 1);
  let conn =
    make_conn t ~local_ip:(Iface.ip t.iface) ~local_port:port ~remote_ip:dst.Net.Addr.ip
      ~remote_port:dst.Net.Addr.port ~state:Syn_sent ~parent_listener:None
  in
  Conntab.replace t.conns ~ka:(conn_ka conn) ~kb:conn.remote_ip conn;
  send_syn conn;
  tset conn f_snd_nxt (Seqnum.add (tget conn f_iss) 1);
  arm_rto_at conn (now t + t.config.syn_rto_ns);
  conn

let tcp_send conn ?(push_id = 0) bufs =
  (match state conn with
  | Established_st | Close_wait -> ()
  | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait
  | Closed_st ->
      invalid_arg "Stack.tcp_send: connection cannot send");
  let mss = min conn.stack.config.mss (tget conn f_peer_mss) in
  let seg_count buf = (Memory.Heap.length buf + mss - 1) / mss in
  let nsegs = List.fold_left (fun n buf -> n + seg_count buf) 0 bufs in
  if nsegs = 0 then invalid_arg "Stack.tcp_send: empty scatter-gather array";
  (* Register the whole push before queueing anything, so an inline
     transmission of the first buffer cannot complete the push early. *)
  push_register conn push_id nsegs;
  let queue_buf base_seq buf =
    let total = Memory.Heap.length buf in
    let rec split off seq =
      if off < total then begin
        let len = min mss (total - off) in
        Memory.Heap.os_incref buf;
        Queue.add
          {
            seg_seq = seq;
            seg_len = len;
            seg_buf = buf;
            seg_buf_off = off;
            seg_push_id = push_id;
            first_tx = -1;
            retransmitted = false;
            sacked = false;
          }
          conn.unsent;
        split (off + len) (Seqnum.add seq len)
      end
    in
    split 0 base_seq;
    Seqnum.add base_seq total
  in
  let queued_bytes =
    Queue.fold (fun n s -> n + s.seg_len) 0 conn.unsent + bytes_in_flight conn
  in
  let base_seq = Seqnum.add (snd_una conn) queued_bytes in
  let _ = List.fold_left queue_buf base_seq bufs in
  try_transmit conn

let tcp_close conn =
  match state conn with
  | Established_st ->
      set_state conn Fin_wait_1;
      set_flag conn flag_fin_pending true;
      try_transmit conn
  | Close_wait ->
      set_state conn Last_ack;
      set_flag conn flag_fin_pending true;
      try_transmit conn
  | Syn_sent -> to_closed conn ~reset:false
  | Syn_received ->
      set_state conn Fin_wait_1;
      set_flag conn flag_fin_pending true;
      try_transmit conn
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed_st -> ()

let tcp_abort conn =
  (match state conn with
  | Closed_st -> ()
  | Syn_sent | Syn_received | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
  | Last_ack | Time_wait ->
      emit_segment conn ~seq:(snd_nxt conn) ~syn:false ~ack_flag:true ~fin:false ~rst:true
        ~payload:None);
  to_closed conn ~reset:false

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
  let fs = fin_seq conn in
  fs >= 0 && Seqnum.le (Seqnum.add fs 1) (snd_una conn)

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
      let fs = fin_seq conn in
      if fs >= 0 && not (fin_acked conn) then begin
        conn.retransmit_count <- conn.retransmit_count + 1;
        emit_segment conn ~seq:fs ~syn:false ~ack_flag:true ~fin:true ~rst:false ~payload:None
      end
      else if not (Queue.is_empty conn.unsent) then begin
        (* Zero-window probe: force out the head segment. *)
        let seg = Queue.pop conn.unsent in
        send_data_segment conn seg;
        tset conn f_snd_nxt (Seqnum.max (snd_nxt conn) (Seqnum.add seg.seg_seq seg.seg_len));
        Queue.add seg conn.unacked;
        note_push_progress conn seg.seg_push_id
      end

(* dlint-allow: scan-in-hotpath -- blocks is capped at 4 by the TCP options field, and the unacked queue it marks is only walked when a SACK actually arrived (loss recovery); [] on clean ACKs short-circuits *)
let apply_sack_blocks conn blocks =
  if blocks <> [] && get_flag conn flag_use_sack then
    Queue.iter
      (fun seg ->
        if not seg.sacked then
          let seg_end = Seqnum.add seg.seg_seq seg.seg_len in
          if
            List.exists
              (fun (left, right) -> Seqnum.le left seg.seg_seq && Seqnum.le seg_end right)
              blocks
          then seg.sacked <- true)
      conn.unacked

let process_ack conn th ~payload_len =
  let t = conn.stack in
  let ack = th.Net.Tcp_wire.ack in
  apply_sack_blocks conn th.Net.Tcp_wire.options.Net.Tcp_wire.sack_blocks;
  (* Update the peer's advertised window (scaled outside of SYNs). *)
  tset conn f_snd_wnd (th.Net.Tcp_wire.window lsl tget conn f_peer_wscale);
  if Seqnum.lt (snd_una conn) ack && Seqnum.le ack (snd_nxt conn) then begin
    let acked_bytes = Seqnum.sub ack (snd_una conn) in
    tset conn f_snd_una ack;
    tset conn f_dupacks 0;
    rto_reset_backoff conn;
    (* Retire fully-acked segments, dropping the stack's buffer refs. *)
    let rtt_sample = ref None in
    let rec retire () =
      match Queue.peek_opt conn.unacked with
      | Some seg when Seqnum.le (Seqnum.add seg.seg_seq seg.seg_len) ack ->
          ignore (Queue.pop conn.unacked);
          if (not seg.retransmitted) && seg.first_tx >= 0 then
            rtt_sample := Some (now t - seg.first_tx);
          Memory.Heap.os_decref seg.seg_buf;
          retire ()
      | Some _ | None -> ()
    in
    retire ();
    (match !rtt_sample with Some s -> rto_observe conn s | None -> ());
    cc_on_ack conn ~acked:acked_bytes ~now:(now t);
    (* FIN progress. *)
    if fin_acked conn then begin
      match state conn with
      | Fin_wait_1 -> set_state conn Fin_wait_2
      | Closing -> enter_time_wait conn
      | Last_ack -> to_closed conn ~reset:false
      | Syn_sent | Syn_received | Established_st | Fin_wait_2 | Close_wait | Time_wait
      | Closed_st -> ()
    end;
    if state conn <> Closed_st then try_transmit conn
  end
  else if Seqnum.le ack (snd_una conn) then begin
    (* Duplicate ack (RFC 5681 §2): same ack, outstanding data, and the
       segment carries no payload — data segments of the reverse stream
       must not count, or bidirectional traffic fakes losses. *)
    if
      ack = snd_una conn
      && (not (Queue.is_empty conn.unacked))
      && th.Net.Tcp_wire.syn = false
      && th.Net.Tcp_wire.fin = false
      && payload_len = 0
    then begin
      tset conn f_dupacks (tget conn f_dupacks + 1);
      if tget conn f_dupacks = 3 then begin
        cc_on_fast_retransmit conn ~now:(now t);
        (* With SACK, every unsacked segment below the highest selective
           ack is presumed lost (RFC 6675): repair all the holes now
           instead of one per round trip. *)
        let sack_high =
          Queue.fold
            (fun acc seg ->
              if seg.sacked then Seqnum.max acc (Seqnum.add seg.seg_seq seg.seg_len) else acc)
            (snd_una conn) conn.unacked
        in
        if get_flag conn flag_use_sack && Seqnum.lt (snd_una conn) sack_high then
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

let deliver_ready conn =
  match conn.reasm with
  | None -> ()
  | Some reasm ->
      let delivered = ref false in
      let rec drain () =
        match Reassembly.pop_ready reasm with
        | Some chunk ->
            let buf = Memory.Heap.alloc conn.stack.heap (String.length chunk) in
            Memory.Heap.blit_string chunk buf;
            Queue.add buf conn.recv_q;
            conn.recv_q_bytes <- conn.recv_q_bytes + String.length chunk;
            delivered := true;
            drain ()
        | None -> ()
      in
      drain ();
      if !delivered then conn.stack.events (Readable conn)

let establish conn ~irs ~options =
  let t = conn.stack in
  conn.reasm <-
    Some (Reassembly.create ~rcv_nxt:(Seqnum.add irs 1) ~capacity:t.config.rwnd_capacity);
  (match options.Net.Tcp_wire.mss with Some m -> tset conn f_peer_mss m | None -> ());
  (match options.Net.Tcp_wire.window_scale with
  | Some s -> tset conn f_peer_wscale (min s 14)
  | None -> tset conn f_peer_wscale 0);
  (match options.Net.Tcp_wire.timestamp with
  | Some (tsval, _) when t.config.use_timestamps ->
      set_flag conn flag_use_ts true;
      tset conn f_ts_recent tsval
  | Some _ | None -> set_flag conn flag_use_ts false);
  set_flag conn flag_use_sack (t.config.use_sack && options.Net.Tcp_wire.sack_permitted)

let process_payload conn th payload_str seg_len =
  (match (get_flag conn flag_use_ts, th.Net.Tcp_wire.options.Net.Tcp_wire.timestamp) with
  | true, Some (tsval, _) -> tset conn f_ts_recent tsval
  | _, _ -> ());
  match conn.reasm with
  | None -> ()
  | Some reasm ->
      let seq = th.Net.Tcp_wire.seq in
      let had_payload = String.length payload_str > 0 in
      let expected = Reassembly.rcv_nxt reasm in
      if had_payload then begin
        Reassembly.insert reasm ~seq payload_str;
        deliver_ready conn
      end;
      let advanced = Seqnum.lt expected (Reassembly.rcv_nxt reasm) in
      (* FIN consumes one sequence number after the payload. *)
      if th.Net.Tcp_wire.fin then begin
        let fin_seq = Seqnum.add seq (String.length payload_str) in
        if fin_seq = Reassembly.rcv_nxt reasm && not conn.eof_delivered_to_q then begin
          (* All data before the FIN has been delivered. *)
          conn.reasm <-
            Some
              (Reassembly.create
                 ~rcv_nxt:(Seqnum.add fin_seq 1)
                 ~capacity:conn.stack.config.rwnd_capacity);
          conn.eof_delivered_to_q <- true;
          (match state conn with
          | Established_st -> set_state conn Close_wait
          | Fin_wait_1 -> if fin_acked conn then enter_time_wait conn else set_state conn Closing
          | Fin_wait_2 -> enter_time_wait conn
          | Syn_sent | Syn_received | Close_wait | Closing | Last_ack | Time_wait | Closed_st ->
              ());
          conn.stack.events (Readable conn);
          send_ack conn
        end
        else send_ack conn
      end
      else if had_payload then begin
        if advanced then mark_ack_pending conn
          (* In-order data: cumulative ack at the end of the poll burst. *)
        else send_ack conn (* duplicate or out-of-order: dup-ack now *)
      end
      else if seg_len > 0 && not (Seqnum.in_window seq ~base:(Reassembly.rcv_nxt reasm) ~size:(max 1 (advertised_window conn))) then
        send_ack conn

let handle_existing conn th payload_str seg_len =
  let t = conn.stack in
  if th.Net.Tcp_wire.rst then begin
    match state conn with
    | Syn_sent | Syn_received | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack ->
        to_closed conn ~reset:true
    | Time_wait -> to_closed conn ~reset:false
    | Closed_st -> ()
  end
  else
    match state conn with
    | Syn_sent ->
        if th.Net.Tcp_wire.syn && th.Net.Tcp_wire.ack_flag then begin
          if th.Net.Tcp_wire.ack = Seqnum.add (tget conn f_iss) 1 then begin
            tset conn f_snd_una th.Net.Tcp_wire.ack;
            establish conn ~irs:th.Net.Tcp_wire.seq ~options:th.Net.Tcp_wire.options;
            tset conn f_snd_wnd th.Net.Tcp_wire.window (* SYN windows are unscaled *);
            set_state conn Established_st;
            cancel_rto conn;
            send_ack conn;
            t.events (Established conn)
          end
          else send_rst_for t ~src_ip:conn.remote_ip ~th ~seg_len
        end
    | Syn_received ->
        if th.Net.Tcp_wire.ack_flag && th.Net.Tcp_wire.ack = Seqnum.add (tget conn f_iss) 1 then begin
          tset conn f_snd_una th.Net.Tcp_wire.ack;
          tset conn f_snd_wnd (th.Net.Tcp_wire.window lsl tget conn f_peer_wscale);
          set_state conn Established_st;
          cancel_rto conn;
          (match conn.parent_listener with
          | Some l ->
              l.syn_pending <- max 0 (l.syn_pending - 1);
              Queue.add conn l.accept_q;
              t.events (Accept_ready l)
          | None -> ());
          (* The handshake ACK may carry data. *)
          process_payload conn th payload_str seg_len
        end
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
        (* A retransmitted SYN/SYN-ACK means our handshake ACK was lost:
           re-ack so the peer can leave SYN_RCVD (RFC 793 p.69). *)
        if th.Net.Tcp_wire.syn then send_ack conn;
        if th.Net.Tcp_wire.ack_flag then
          process_ack conn th ~payload_len:(String.length payload_str);
        if state conn <> Closed_st then process_payload conn th payload_str seg_len
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
  establish conn ~irs:th.Net.Tcp_wire.seq ~options:th.Net.Tcp_wire.options;
  tset conn f_snd_wnd th.Net.Tcp_wire.window;
  Conntab.replace t.conns ~ka:(conn_ka conn) ~kb:conn.remote_ip conn;
  send_syn_ack conn;
  tset conn f_snd_nxt (Seqnum.add (tget conn f_iss) 1);
  arm_rto_at conn (now t + t.config.syn_rto_ns)
  end

(* dlint-allow: transitive-alloc-in-hotpath -- busy-path RX: a segment arrived; payload extraction and connection dispatch are per-frame work, unreachable from an empty poll. The demux lookup itself (packed int keys into Conntab) allocates nothing *)
let handle_tcp t header b off =
  let src_ip = header.Net.Ipv4.src in
  let seg_total = header.Net.Ipv4.total_length - Net.Ipv4.size in
  match
    Net.Tcp_wire.read b off ~seg_len:seg_total ~src_ip ~dst_ip:header.Net.Ipv4.dst
  with
  | exception Net.Wire.Malformed _ -> ()
  | th, payload_off ->
      let payload_len = seg_total - (payload_off - off) in
      let payload_str = Bytes.sub_string b payload_off payload_len in
      let ka = (th.Net.Tcp_wire.dst_port lsl 16) lor th.Net.Tcp_wire.src_port in
      (match Conntab.find t.conns ~ka ~kb:src_ip with
      | Some conn -> handle_existing conn th payload_str payload_len
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
(* dlint: hotpath *)
let flush_acks t =
  while not (Queue.is_empty t.ack_q) do
    let conn = Queue.pop t.ack_q in
    if conn.ack_pending then send_ack conn
  done

(* The dispatch itself is allocation-free; the per-protocol handlers it
   calls are busy-path work (a frame arrived) and stay unmarked. *)
(* dlint: hotpath *)
let input t frame =
  match Iface.input t.iface frame with
  | Iface.Consumed -> ()
  | Iface.Packet (header, b, off) ->
      if header.Net.Ipv4.protocol = Net.Ipv4.protocol_udp then handle_udp t header b off
      else if header.Net.Ipv4.protocol = Net.Ipv4.protocol_tcp then handle_tcp t header b off

let next_timer t = Engine.Timerwheel.next_deadline t.timers

(* dlint: hotpath *)
let next_timer_ns t = Engine.Timerwheel.next_deadline_ns t.timers

(* dlint: hotpath *)
let timer_activity t = Engine.Timerwheel.activity t.timers

let handshake_timeout conn =
  let t = conn.stack in
  tset conn f_syn_retries (tget conn f_syn_retries + 1);
  if tget conn f_syn_retries > t.config.max_syn_retries then to_closed conn ~reset:true
  else begin
    (match state conn with
    | Syn_sent -> send_syn conn
    | Syn_received -> send_syn_ack conn
    | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack | Time_wait
    | Closed_st -> ());
    arm_rto_at conn (now t + (t.config.syn_rto_ns lsl min (tget conn f_syn_retries) 10))
  end

(* dlint-allow: transitive-alloc-in-hotpath -- RTO fire is loss recovery (a retransmission episode, not the steady path): it re-arms the timer and may retransmit *)
let rto_fire conn =
  let t = conn.stack in
  t.trace "conn %d: RTO fired" conn.uid 0;
  match state conn with
  | Syn_sent | Syn_received -> handshake_timeout conn
  | Established_st | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      cc_on_timeout conn ~now:(now t);
      rto_backoff conn;
      retransmit_head conn;
      arm_rto conn
  | Time_wait | Closed_st -> ()

(* The wheel fires only due entries, in (deadline, insertion-seq)
   order. A fired entry is necessarily the connection's current handle
   (arming always cancels the previous one), so clearing the field
   here is sound. Top-level (not a per-call closure) so the
   nothing-due [on_timer] stays allocation-free. *)
let timer_fired (conn, is_time_wait) =
  if is_time_wait then begin
    conn.tw_timer <- None;
    to_closed conn ~reset:false
  end
  else begin
    conn.rto_timer <- None;
    rto_fire conn
  end

(* dlint: hotpath *)
let on_timer t =
  flush_acks t;
  (* The wheel walks only the slots the clock crossed. *)
  Engine.Timerwheel.expire t.timers ~now:(now t) timer_fired

(* ---------- introspection ---------- *)

let conn_id conn = conn.uid
let conn_slot conn = conn.tcb
let conn_state conn = state conn
let conn_local conn = Net.Addr.endpoint conn.local_ip conn.local_port
let conn_remote conn = Net.Addr.endpoint conn.remote_ip conn.remote_port
let conn_cwnd conn = if conn.tcb < 0 then 0 else cc_cwnd conn

let conn_srtt conn =
  if conn.tcb < 0 then None
  else
    let s = Rto.Flat.srtt_ns conn.stack.tcbs conn.tcb ~base:f_rto in
    if s < 0 then None else Some s

let conn_bytes_in_flight conn = if conn.tcb < 0 then 0 else bytes_in_flight conn
let conn_retransmits conn = conn.retransmit_count
let conn_recv_queue_bytes conn = conn.recv_q_bytes
let conn_at_eof conn = conn.eof_delivered_to_q && Queue.is_empty conn.recv_q

(* Aggregate gauges for Demiscope timelines: summed over live
   connections in sorted-key order — (local port, remote ip, remote
   port), the order the boxed tuple table iterated in. *)
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
