type t = {
  rt : Runtime.t;
  nic : Net.Dpdk_sim.t;
  stack : Tcp.Stack.t;
  by_conn : (int, Runtime.queue) Hashtbl.t; (* [Stack.conn_id] -> its stream *)
  by_udp : (int, Runtime.queue) Hashtbl.t; (* udp port -> its datagram socket *)
  by_listener : (int, Runtime.queue) Hashtbl.t; (* tcp port -> its listener *)
}

let conn_set t conn q = Hashtbl.replace t.by_conn (Tcp.Stack.conn_id conn) q
let conn_clear t conn = Hashtbl.remove t.by_conn (Tcp.Stack.conn_id conn)

(* Raises [Not_found]: the stack-event path catches it rather than
   calling [find_opt], so a hit allocates no option. *)
let conn_find t conn = Hashtbl.find t.by_conn (Tcp.Stack.conn_id conn)

let stack t = t.stack

let host t = Runtime.host t.rt
let cost t = (host t).Host.cost
let charge t ns = Host.charge (host t) ns
let charge_proto t ns = Host.charge_as (host t) Engine.Span.Proto ns

(* ---------- completion plumbing driven by stack events ---------- *)

(* A pop returns everything that is ready (bounded), as a scatter-gather
   array — one pop/push pair then covers a whole burst of segments,
   which is what keeps bulk transfers off the per-segment slow path. *)
let pop_completion_of conn =
  let rec gather acc n =
    if n = 0 then List.rev acc
    else
      match Tcp.Stack.tcp_recv conn with
      | `Data buf -> gather (buf :: acc) (n - 1)
      | `Eof | `Nothing -> List.rev acc
  in
  match gather [] 16 with
  | [] -> (
      match Tcp.Stack.tcp_recv conn with
      | `Eof -> Some (Pdpix.Popped [])
      | `Data buf -> Some (Pdpix.Popped [ buf ])
      | `Nothing -> None)
  | sga -> Some (Pdpix.Popped sga)

let udp_next sock () =
  match Tcp.Stack.udp_recv sock with
  | Some (from, buf) -> Some (Pdpix.Popped_from (from, [ buf ]))
  | None -> None

let serve_port table port =
  match Hashtbl.find_opt table port with Some q -> Runtime.serve q | None -> ()

let on_stack_event t event =
  match event with
  | Tcp.Stack.Readable conn -> (
      match conn_find t conn with q -> Runtime.serve q | exception Not_found -> ())
  | Tcp.Stack.Established conn -> (
      match conn_find t conn with
      | q -> Runtime.connected q Pdpix.Connected
      | exception Not_found -> ())
  | Tcp.Stack.Push_completed (_, push_id) -> Runtime.complete t.rt push_id Pdpix.Pushed
  | Tcp.Stack.Accept_ready l -> serve_port t.by_listener (Tcp.Stack.listener_port l)
  | Tcp.Stack.Udp_readable sock -> serve_port t.by_udp (Tcp.Stack.udp_socket_port sock)
  | Tcp.Stack.Reset conn -> (
      match conn_find t conn with
      | q ->
          Runtime.fail q "connection reset";
          conn_clear t conn
      | exception Not_found -> ())
  | Tcp.Stack.Closed conn -> conn_clear t conn

(* ---------- fast path ---------- *)

(* Peek the transport protocol to charge the right receive cost. *)
let rx_cost t frame =
  let c = cost t in
  let b = Memory.Heap.data frame and base = Memory.Heap.offset frame in
  if Memory.Heap.length frame >= 24 && Net.Wire.get_u16 b (base + 12) = Net.Eth.ethertype_ipv4
  then
    let proto = Net.Wire.get_u8 b (base + 23) in
    if proto = Net.Ipv4.protocol_tcp then
      c.Net.Cost.dpdk_rx_ns + c.Net.Cost.tcp_rx_ns + c.Net.Cost.libos_sched_ns
    else c.Net.Cost.dpdk_rx_ns + c.Net.Cost.udp_rx_ns + c.Net.Cost.libos_sched_ns
  else c.Net.Cost.dpdk_rx_ns

(* Deliver the [n] frames a poll counted, oldest first: top-level
   recursion, not a per-burst closure, so the delivery loop itself adds
   no allocation beyond what the handlers do. *)
let rec rx_n t n =
  if n > 0 then begin
    let frame = Net.Dpdk_sim.rx t.nic in
    charge_proto t (rx_cost t frame);
    Tcp.Stack.input t.stack frame;
    rx_n t (n - 1)
  end

(* One poll: drain an rx burst (the frames pending at its start, at
   most 16), then run protocol timers. *)
let poll t () =
  match Net.Dpdk_sim.rx_take t.nic ~max:16 with
  | 0 ->
      Tcp.Stack.on_timer t.stack;
      false
  | n ->
      charge t (cost t).Net.Cost.libos_poll_ns;
      rx_n t n;
      Tcp.Stack.flush_acks t.stack;
      Tcp.Stack.on_timer t.stack;
      true

(* ---------- device halves ---------- *)

let push t conn sga =
  (* Inline outgoing processing in the application coroutine (Figure 4,
     steps 7-9). *)
  let bytes = Pdpix.sga_length sga in
  let mss = Tcp.Stack.send_mss conn in
  let nsegs = max 1 ((bytes + mss - 1) / mss) in
  charge_proto t ((cost t).Net.Cost.tcp_push_ns + (nsegs * (cost t).Net.Cost.tcp_tx_ns));
  let qt = Runtime.fresh_token t.rt in
  Tcp.Stack.tcp_send conn ~push_id:qt sga;
  qt

let open_stream t q conn =
  conn_set t conn q;
  Runtime.open_stream q
    ~next:(fun () -> pop_completion_of conn)
    ~push:(push t conn)
    ~close:(fun () ->
      Tcp.Stack.tcp_close conn;
      charge_proto t (cost t).Net.Cost.tcp_tx_ns)

let accept_next t l () =
  match Tcp.Stack.tcp_accept l with
  | Some conn ->
      let q = Runtime.accepted t.rt in
      open_stream t q conn;
      Some (Pdpix.Accepted (Runtime.qd q))
  | None -> None

let listen t q (ep : Net.Addr.endpoint) ~backlog =
  let port = ep.Net.Addr.port in
  let listener = Tcp.Stack.tcp_listen ~backlog t.stack ~port in
  Runtime.open_listener q ~next:(accept_next t listener) ~close:(fun () ->
      Tcp.Stack.tcp_unlisten listener;
      Hashtbl.remove t.by_listener port);
  Hashtbl.replace t.by_listener port q

let connect t q dst =
  charge_proto t (cost t).Net.Cost.tcp_tx_ns;
  let conn = Tcp.Stack.tcp_connect t.stack ~dst in
  let qt = Runtime.connect_token q in
  open_stream t q conn;
  qt

let pushto t sock dst sga =
  charge_proto t (cost t).Net.Cost.udp_tx_ns;
  (* UDP datagrams are a single buffer on the wire; coalesce the sga
     (zero-copy for the single-buffer common case). *)
  (match sga with
  | [ buf ] -> Tcp.Stack.udp_sendto t.stack sock ~dst buf
  | bufs ->
      let joined = Pdpix.sga_to_string bufs in
      Host.charge_copy (host t) (String.length joined);
      let tmp = Memory.Heap.alloc_of_string (host t).Host.heap joined in
      Tcp.Stack.udp_sendto t.stack sock ~dst tmp;
      Memory.Heap.free tmp);
  Runtime.completed_token t.rt Pdpix.Pushed

let bind_udp t q (ep : Net.Addr.endpoint) =
  let port = ep.Net.Addr.port in
  let sock = Tcp.Stack.udp_bind t.stack ~port in
  Runtime.open_datagram q ~next:(udp_next sock) ~pushto:(pushto t sock) ~close:(fun () ->
      Tcp.Stack.udp_unbind t.stack sock;
      Hashtbl.remove t.by_udp port);
  Hashtbl.replace t.by_udp port q

let create rt ~nic ?(config = Tcp.Stack.default_config) () =
  let host = Runtime.host rt in
  let rec t =
    lazy
      {
        rt;
        nic;
        stack =
          Tcp.Stack.create ~config
            ~trace:(fun label a b ->
              Engine.Sim.trace_event host.Host.sim ~category:Engine.Log.Tcp label a b)
            ~iface:
              (Tcp.Iface.create ~mac:(Net.Dpdk_sim.mac nic) ~ip:(Net.Dpdk_sim.ip nic)
                 ~clock:(fun () -> Host.now host)
                 ~frames:(Net.Dpdk_sim.frames nic)
                 ~tx_frame:(fun frame ->
                   Host.charge host host.Host.cost.Net.Cost.dpdk_tx_ns;
                   Net.Dpdk_sim.tx nic frame)
                 ())
            ~heap:host.Host.heap
            ~prng:(Engine.Prng.split (Engine.Sim.prng host.Host.sim))
            ~events:(fun ev -> on_stack_event (Lazy.force t) ev)
            ();
        by_conn = Hashtbl.create 64;
        by_udp = Hashtbl.create 8;
        by_listener = Hashtbl.create 8;
      }
  in
  let t = Lazy.force t in
  Runtime.fast_path rt ~name:"catnip-fast-path" ~signal:(Net.Dpdk_sim.rx_signal nic)
    ~timer:(fun () -> Tcp.Stack.next_timer_ns t.stack)
    (poll t);
  t

let net t =
  {
    Runtime.listen = listen t;
    connect = connect t;
    bind_udp = Some (bind_udp t);
    waited = Runtime.serve;
  }
