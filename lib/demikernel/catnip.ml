type conn_entry = {
  conn : Tcp.Stack.conn;
  conn_qd : Pdpix.qd;
  pop_waiters : Pdpix.qtoken Queue.t;
  mutable connect_token : Pdpix.qtoken option;
  mutable failed : string option;
}

type entry =
  | Unbound of Pdpix.proto
  | Bound_tcp of Net.Addr.endpoint
  | Udp_bound of Tcp.Stack.udp_socket * Pdpix.qtoken Queue.t
  | Listening of Tcp.Stack.listener * Pdpix.qtoken Queue.t
  | Connection of conn_entry

type t = {
  rt : Runtime.t;
  nic : Net.Dpdk_sim.t;
  stack : Tcp.Stack.t;
  qds : (Pdpix.qd, entry) Hashtbl.t;
  mutable by_conn : conn_entry option array;
      (* indexed by [Stack.conn_slot]: the TCB arena slot is a small
         dense integer, so event dispatch is a bounds check and an array
         read — no hashing. The stack releases a slot only after the
         Closed/Reset event, and this table drops its entry in those
         handlers, so a reused slot never sees a stale entry. *)
  by_udp : (int, Pdpix.qd) Hashtbl.t; (* udp port -> qd *)
  by_listener : (int, Pdpix.qd) Hashtbl.t; (* tcp port -> qd *)
}

let conn_set t conn ce =
  let slot = Tcp.Stack.conn_slot conn in
  let n = Array.length t.by_conn in
  if slot >= n then begin
    let bigger = Array.make (max (slot + 1) (n * 2)) None in
    Array.blit t.by_conn 0 bigger 0 n;
    t.by_conn <- bigger
  end;
  t.by_conn.(slot) <- Some ce

let conn_find t conn =
  let slot = Tcp.Stack.conn_slot conn in
  if slot < 0 || slot >= Array.length t.by_conn then None else t.by_conn.(slot)

let conn_clear t conn =
  let slot = Tcp.Stack.conn_slot conn in
  if slot >= 0 && slot < Array.length t.by_conn then t.by_conn.(slot) <- None

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

let service_conn_pops t ce =
  let rec go () =
    if not (Queue.is_empty ce.pop_waiters) then begin
      match ce.failed with
      | Some reason -> (
          match Queue.take_opt ce.pop_waiters with
          | Some qt ->
              Runtime.complete t.rt qt (Pdpix.Failed reason);
              go ()
          | None -> ())
      | None -> (
          match pop_completion_of ce.conn with
          | Some completion ->
              let qt = Queue.pop ce.pop_waiters in
              Runtime.complete t.rt qt completion;
              go ()
          | None -> ())
    end
  in
  go ()

let service_accepts t l waiters =
  let rec go () =
    if not (Queue.is_empty waiters) then
      match Tcp.Stack.tcp_accept l with
      | Some conn ->
          let qt = Queue.pop waiters in
          let conn_qd = Runtime.fresh_qd t.rt in
          let ce =
            { conn; conn_qd; pop_waiters = Queue.create (); connect_token = None; failed = None }
          in
          Hashtbl.replace t.qds conn_qd (Connection ce);
          conn_set t conn ce;
          Runtime.complete t.rt qt (Pdpix.Accepted conn_qd);
          go ()
      | None -> ()
  in
  go ()

let service_udp_pops t sock waiters =
  let rec go () =
    if not (Queue.is_empty waiters) then
      match Tcp.Stack.udp_recv sock with
      | Some (from, buf) ->
          let qt = Queue.pop waiters in
          Runtime.complete t.rt qt (Pdpix.Popped_from (from, [ buf ]));
          go ()
      | None -> ()
  in
  go ()

let fail_conn t ce reason =
  ce.failed <- Some reason;
  (match ce.connect_token with
  | Some qt ->
      ce.connect_token <- None;
      Runtime.complete t.rt qt (Pdpix.Failed reason)
  | None -> ());
  service_conn_pops t ce;
  conn_clear t ce.conn

let on_stack_event t event =
  match event with
  | Tcp.Stack.Readable conn -> (
      match conn_find t conn with
      | Some ce -> service_conn_pops t ce
      | None -> ())
  | Tcp.Stack.Established conn -> (
      match conn_find t conn with
      | Some ce -> (
          match ce.connect_token with
          | Some qt ->
              ce.connect_token <- None;
              Runtime.complete t.rt qt Pdpix.Connected
          | None -> ())
      | None -> ())
  | Tcp.Stack.Push_completed (_, push_id) -> Runtime.complete t.rt push_id Pdpix.Pushed
  | Tcp.Stack.Accept_ready l -> (
      match Hashtbl.find_opt t.by_listener (Tcp.Stack.listener_port l) with
      | Some qd -> (
          match Hashtbl.find_opt t.qds qd with
          | Some (Listening (listener, waiters)) -> service_accepts t listener waiters
          | Some _ | None -> ())
      | None -> ())
  | Tcp.Stack.Udp_readable sock -> (
      match Hashtbl.find_opt t.by_udp (Tcp.Stack.udp_socket_port sock) with
      | Some qd -> (
          match Hashtbl.find_opt t.qds qd with
          | Some (Udp_bound (s, waiters)) -> service_udp_pops t s waiters
          | Some _ | None -> ())
      | None -> ())
  | Tcp.Stack.Reset conn -> (
      match conn_find t conn with
      | Some ce -> fail_conn t ce "connection reset"
      | None -> ())
  | Tcp.Stack.Closed conn -> (
      match conn_find t conn with
      | Some _ -> conn_clear t conn
      | None -> ())

(* ---------- fast path ---------- *)

(* Peek the transport protocol to charge the right receive cost. *)
let rx_cost t frame =
  let c = cost t in
  let b = Bytes.unsafe_of_string frame in
  if Bytes.length b >= 24 && Net.Wire.get_u16 b 12 = Net.Eth.ethertype_ipv4 then
    let proto = Net.Wire.get_u8 b 23 in
    if proto = Net.Ipv4.protocol_tcp then
      c.Net.Cost.dpdk_rx_ns + c.Net.Cost.tcp_rx_ns + c.Net.Cost.libos_sched_ns
    else c.Net.Cost.dpdk_rx_ns + c.Net.Cost.udp_rx_ns + c.Net.Cost.libos_sched_ns
  else c.Net.Cost.dpdk_rx_ns

(* Deliver a received burst: top-level recursion, not a per-burst
   closure, so the delivery loop itself adds no allocation beyond what
   the handlers do. *)
(* dlint: hotpath *)
let rec rx_all t frames =
  match frames with
  | [] -> ()
  | frame :: rest ->
      charge_proto t (rx_cost t frame);
      Tcp.Stack.input t.stack frame;
      rx_all t rest

(* The steady-state iteration — empty burst, no timer work — is the
   measured gc-budget window: it must allocate zero minor-heap words.
   The window opens before the burst poll and closes before
   [maybe_park]/[yield], which run effect machinery (continuations
   allocate by design — that cost is the scheduler's, not the poll
   loop's). Timer work is detected via the wheel's cumulative
   [timer_activity] counter: a cascade or a firing makes the poll
   busy. *)
(* dlint: hotpath *)
let fast_path t slot () =
  let sched = Runtime.sched t.rt in
  let gc_site = Memory.Gcbudget.site "catnip.fast_path" in
  let rec loop () =
    let activity0 = Tcp.Stack.timer_activity t.stack in
    Memory.Gcbudget.enter gc_site;
    (match Net.Dpdk_sim.rx_burst t.nic ~max:16 with
    | [] ->
        Tcp.Stack.on_timer t.stack;
        if Tcp.Stack.timer_activity t.stack = activity0 then
          Memory.Gcbudget.leave_steady gc_site
        else Memory.Gcbudget.leave_busy gc_site;
        ignore (Runtime.maybe_park t.rt slot);
        Dsched.yield sched
    | frames ->
        Memory.Gcbudget.leave_busy gc_site;
        Runtime.fp_busy slot;
        charge t (cost t).Net.Cost.libos_poll_ns;
        rx_all t frames;
        Tcp.Stack.flush_acks t.stack;
        Tcp.Stack.on_timer t.stack;
        Dsched.yield sched);
    loop ()
  in
  loop ()

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
      Hashtbl.replace t.qds qd (Udp_bound (sock, Queue.create ()));
      Hashtbl.replace t.by_udp ep.Net.Addr.port qd
  | Unbound Pdpix.Tcp -> Hashtbl.replace t.qds qd (Bound_tcp ep)
  | Bound_tcp _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: bind on active qd"

let op_listen t qd backlog =
  match find t qd with
  | Bound_tcp ep ->
      let port = ep.Net.Addr.port in
      let listener = Tcp.Stack.tcp_listen ~backlog t.stack ~port in
      Hashtbl.replace t.qds qd (Listening (listener, Queue.create ()));
      Hashtbl.replace t.by_listener port qd
  | Unbound _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: listen needs a bound TCP qd"

let op_accept t qd =
  match find t qd with
  | Listening (listener, waiters) ->
      let qt = Runtime.fresh_token t.rt in
      Queue.add qt waiters;
      service_accepts t listener waiters;
      qt
  | Unbound _ | Bound_tcp _ | Udp_bound _ | Connection _ ->
      invalid_arg "catnip: accept on non-listener"

let op_connect t qd dst =
  match find t qd with
  | Unbound Pdpix.Tcp ->
      charge_proto t (cost t).Net.Cost.tcp_tx_ns;
      let conn = Tcp.Stack.tcp_connect t.stack ~dst in
      let qt = Runtime.fresh_token t.rt in
      let ce =
        { conn; conn_qd = qd; pop_waiters = Queue.create (); connect_token = Some qt; failed = None }
      in
      Hashtbl.replace t.qds qd (Connection ce);
      conn_set t conn ce;
      qt
  | Unbound Pdpix.Udp | Bound_tcp _ | Udp_bound _ | Listening _ | Connection _ ->
      invalid_arg "catnip: connect needs an unbound TCP qd"

let fail_waiters t waiters reason =
  Queue.iter (fun qt -> Runtime.complete t.rt qt (Pdpix.Failed reason)) waiters;
  Queue.clear waiters

let op_close t qd =
  (match find t qd with
  | Connection ce ->
      Tcp.Stack.tcp_close ce.conn;
      fail_waiters t ce.pop_waiters "queue closed";
      charge_proto t (cost t).Net.Cost.tcp_tx_ns
  | Udp_bound (_, waiters) | Listening (_, waiters) -> fail_waiters t waiters "queue closed"
  | Unbound _ | Bound_tcp _ -> ());
  Hashtbl.remove t.qds qd

let op_push t qd sga =
  match find t qd with
  | Connection ce -> (
      match ce.failed with
      | Some reason -> Runtime.completed_token t.rt (Pdpix.Failed reason)
      | None ->
          (* Inline outgoing processing in the application coroutine
             (Figure 4, steps 7-9). *)
          let bytes = Pdpix.sga_length sga in
          let mss = (Tcp.Stack.default_config).Tcp.Stack.mss in
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
  | Connection ce ->
      let qt = Runtime.fresh_token t.rt in
      Queue.add qt ce.pop_waiters;
      service_conn_pops t ce;
      qt
  | Udp_bound (sock, waiters) ->
      let qt = Runtime.fresh_token t.rt in
      Queue.add qt waiters;
      service_udp_pops t sock waiters;
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
                 ~tx_frame:(fun frame ->
                   Host.charge host host.Host.cost.Net.Cost.dpdk_tx_ns;
                   Net.Dpdk_sim.tx_burst nic [ frame ])
                 ())
            ~heap:host.Host.heap
            ~prng:(Engine.Prng.split (Engine.Sim.prng host.Host.sim))
            ~events:(fun ev -> on_stack_event (Lazy.force t) ev)
            ();
        qds = Hashtbl.create 32;
        by_conn = Array.make 64 None;
        by_udp = Hashtbl.create 8;
        by_listener = Hashtbl.create 8;
      }
  in
  let t = Lazy.force t in
  Runtime.register_io_signal rt (Net.Dpdk_sim.rx_signal nic);
  Runtime.register_timer_source rt (fun () -> Tcp.Stack.next_timer_ns t.stack);
  ignore (Dsched.spawn (Runtime.sched rt) Dsched.Fast_path ~name:"catnip-fast-path"
       (fast_path t (Runtime.new_fp_slot rt)));
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

let api rt ~nic ?config () =
  let t = create rt ~nic ?config () in
  Runtime.make_api rt (ops t)
