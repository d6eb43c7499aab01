type conn_entry = {
  conn : Tcp.Stack.conn;
  pops : Runtime.pending;
  mutable connect_token : Pdpix.qtoken option;
}

type entry =
  | Unbound of Pdpix.proto
  | Bound_tcp of Net.Addr.endpoint
  | Udp_bound of Tcp.Stack.udp_socket * Runtime.pending
  | Listening of Tcp.Stack.listener * Runtime.pending
  | Connection of conn_entry

type t = {
  rt : Runtime.t;
  nic : Net.Dpdk_sim.t;
  stack : Tcp.Stack.t;
  qds : (Pdpix.qd, entry) Hashtbl.t;
  by_conn : (int, conn_entry) Hashtbl.t; (* [Stack.conn_id] -> its completion state *)
  by_udp : (int, Runtime.pending) Hashtbl.t; (* udp port -> its pops *)
  by_listener : (int, Runtime.pending) Hashtbl.t; (* tcp port -> its accepts *)
}

let conn_set t conn ce = Hashtbl.replace t.by_conn (Tcp.Stack.conn_id conn) ce
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

let new_conn t conn connect_token =
  let ce = { conn; pops = Runtime.pending t.rt (fun () -> pop_completion_of conn); connect_token } in
  conn_set t conn ce;
  ce

let accept_next t l () =
  match Tcp.Stack.tcp_accept l with
  | Some conn ->
      let qd = Runtime.fresh_qd t.rt in
      Hashtbl.replace t.qds qd (Connection (new_conn t conn None));
      Some (Pdpix.Accepted qd)
  | None -> None

let udp_next sock () =
  match Tcp.Stack.udp_recv sock with
  | Some (from, buf) -> Some (Pdpix.Popped_from (from, [ buf ]))
  | None -> None

let fail_conn t ce reason =
  (match ce.connect_token with
  | Some qt ->
      ce.connect_token <- None;
      Runtime.complete t.rt qt (Pdpix.Failed reason)
  | None -> ());
  Runtime.fail ce.pops reason;
  conn_clear t ce.conn

let serve_port table port =
  match Hashtbl.find_opt table port with Some q -> Runtime.serve q | None -> ()

let on_stack_event t event =
  match event with
  | Tcp.Stack.Readable conn -> (
      match conn_find t conn with
      | ce -> Runtime.serve ce.pops
      | exception Not_found -> ())
  | Tcp.Stack.Established conn -> (
      match conn_find t conn with
      | ce -> (
          match ce.connect_token with
          | Some qt ->
              ce.connect_token <- None;
              Runtime.complete t.rt qt Pdpix.Connected
          | None -> ())
      | exception Not_found -> ())
  | Tcp.Stack.Push_completed (_, push_id) -> Runtime.complete t.rt push_id Pdpix.Pushed
  | Tcp.Stack.Accept_ready l -> serve_port t.by_listener (Tcp.Stack.listener_port l)
  | Tcp.Stack.Udp_readable sock -> serve_port t.by_udp (Tcp.Stack.udp_socket_port sock)
  | Tcp.Stack.Reset conn -> (
      match conn_find t conn with
      | ce -> fail_conn t ce "connection reset"
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

(* ---------- PDPIX operations ---------- *)

let find t qd =
  match Hashtbl.find_opt t.qds qd with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "catnip: unknown qd %d" qd)

let op_socket t proto =
  let qd = Runtime.fresh_qd t.rt in
  Hashtbl.replace t.qds qd (Unbound proto);
  qd

let op_bind t qd (ep : Net.Addr.endpoint) =
  match find t qd with
  | Unbound Pdpix.Udp ->
      let sock = Tcp.Stack.udp_bind t.stack ~port:ep.Net.Addr.port in
      let pops = Runtime.pending t.rt (udp_next sock) in
      Hashtbl.replace t.qds qd (Udp_bound (sock, pops));
      Hashtbl.replace t.by_udp ep.Net.Addr.port pops
  | Unbound Pdpix.Tcp -> Hashtbl.replace t.qds qd (Bound_tcp ep)
  | Bound_tcp _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: bind on active qd"

let op_listen t qd backlog =
  match find t qd with
  | Bound_tcp ep ->
      let port = ep.Net.Addr.port in
      let listener = Tcp.Stack.tcp_listen ~backlog t.stack ~port in
      let accepts = Runtime.pending t.rt (accept_next t listener) in
      Hashtbl.replace t.qds qd (Listening (listener, accepts));
      Hashtbl.replace t.by_listener port accepts
  | Unbound _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: listen needs a bound TCP qd"

let op_accept t qd =
  match find t qd with
  | Listening (_, accepts) ->
      let qt = Runtime.enqueue accepts in
      Runtime.serve accepts;
      qt
  | Unbound _ | Bound_tcp _ | Udp_bound _ | Connection _ ->
      invalid_arg "catnip: accept on non-listener"

let op_connect t qd dst =
  match find t qd with
  | Unbound Pdpix.Tcp ->
      charge_proto t (cost t).Net.Cost.tcp_tx_ns;
      let conn = Tcp.Stack.tcp_connect t.stack ~dst in
      let qt = Runtime.fresh_token t.rt in
      Hashtbl.replace t.qds qd (Connection (new_conn t conn (Some qt)));
      qt
  | Unbound Pdpix.Udp | Bound_tcp _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: connect needs an unbound TCP qd"

let op_close t qd =
  (match find t qd with
  | Connection ce ->
      Tcp.Stack.tcp_close ce.conn;
      Runtime.fail ce.pops "queue closed";
      charge_proto t (cost t).Net.Cost.tcp_tx_ns
  | Udp_bound (sock, pops) ->
      Tcp.Stack.udp_unbind t.stack sock;
      Hashtbl.remove t.by_udp (Tcp.Stack.udp_socket_port sock);
      Runtime.fail pops "queue closed"
  | Listening (l, accepts) ->
      Tcp.Stack.tcp_unlisten l;
      Hashtbl.remove t.by_listener (Tcp.Stack.listener_port l);
      Runtime.fail accepts "queue closed"
  | Unbound _ | Bound_tcp _ -> ());
  Hashtbl.remove t.qds qd

let op_push t qd sga =
  match find t qd with
  | Connection ce -> (
      match Runtime.failed ce.pops with
      | Some reason -> Runtime.completed_token t.rt (Pdpix.Failed reason)
      | None ->
          (* Inline outgoing processing in the application coroutine
             (Figure 4, steps 7-9). *)
          let bytes = Pdpix.sga_length sga in
          let mss = Tcp.Stack.send_mss ce.conn in
          let nsegs = max 1 ((bytes + mss - 1) / mss) in
          charge_proto t ((cost t).Net.Cost.tcp_push_ns + (nsegs * (cost t).Net.Cost.tcp_tx_ns));
          let qt = Runtime.fresh_token t.rt in
          Tcp.Stack.tcp_send ce.conn ~push_id:qt sga;
          qt)
  | Unbound _ | Bound_tcp _ | Udp_bound _ | Listening _ ->
      invalid_arg "catnip: push on non-connection"

let op_pushto t qd dst sga =
  match find t qd with
  | Udp_bound (sock, _) ->
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
  | Unbound _ | Bound_tcp _ | Listening _ | Connection _ ->
      invalid_arg "catnip: pushto on non-UDP qd"

let op_pop t qd =
  match find t qd with
  | Connection { pops; _ } | Udp_bound (_, pops) ->
      let qt = Runtime.enqueue pops in
      Runtime.serve pops;
      qt
  | Unbound _ | Bound_tcp _ | Listening _ -> invalid_arg "catnip: pop on non-I/O qd"

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
        qds = Hashtbl.create 32;
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

let ops t =
  {
    Runtime.op_name = "catnip";
    op_owns = (fun qd -> Hashtbl.mem t.qds qd);
    op_socket = op_socket t;
    op_bind = op_bind t;
    op_listen = op_listen t;
    op_accept = op_accept t;
    op_connect = op_connect t;
    op_close = op_close t;
    op_push = op_push t;
    op_pushto = op_pushto t;
    op_pop = op_pop t;
    op_open_log = (fun _ -> Runtime.unsupported "catnip: open_log (no storage device)");
    op_seek = (fun _ _ -> Runtime.unsupported "catnip: seek");
    op_truncate = (fun _ _ -> Runtime.unsupported "catnip: truncate");
  }
