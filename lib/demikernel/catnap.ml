type conn_entry = {
  fd : Oskernel.Kernel.fd;
  pops : Runtime.pending;
  mutable connect_token : Pdpix.qtoken option;
}

type entry =
  | Unbound of Pdpix.proto
  | Bound_tcp of Net.Addr.endpoint
  | Udp_sock of Oskernel.Kernel.fd * Runtime.pending
  | Listener of Oskernel.Kernel.fd * Runtime.pending
  | Connection of conn_entry
  | Log_file of log_state

and log_state = { mutable cursor : int; mutable tail : int }

type t = {
  rt : Runtime.t;
  kernel : Oskernel.Kernel.t;
  qds : (Pdpix.qd, entry) Hashtbl.t;
  mutable active : Pdpix.qd array;
      (* [active.(0 .. nactive - 1)]: ascending, the qds that may have
         something outstanding (a connect token, or waiting pops or
         accepts). A service pass visits only these, so its cost follows
         the queues with work, not every open descriptor. *)
  mutable nactive : int;
  mutable service_progress : bool;
}

let host t = Runtime.host t.rt

let complete t qt c =
  t.service_progress <- true;
  Runtime.complete t.rt qt c

(* Lowest index of [active] holding a qd >= [qd]. *)
let rec active_search t qd lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if t.active.(mid) < qd then active_search t qd (mid + 1) hi else active_search t qd lo mid

(* List [qd] for service passes from now on; called wherever a token
   starts waiting on it. *)
let activate t qd =
  let i = active_search t qd 0 t.nactive in
  if i = t.nactive || t.active.(i) <> qd then begin
    if t.nactive = Array.length t.active then begin
      let grown = Array.make (2 * t.nactive) 0 in
      Array.blit t.active 0 grown 0 t.nactive;
      t.active <- grown
    end;
    Array.blit t.active i t.active (i + 1) (t.nactive - i);
    t.active.(i) <- qd;
    t.nactive <- t.nactive + 1
  end

(* The [next] sources of the pending queues. Each attempt is a real
   (charged) non-blocking syscall — the price of Catnap's polling
   design. *)
let progress t completion =
  t.service_progress <- true;
  Some completion

let heap_buf t payload = Memory.Heap.alloc_of_string (host t).Host.heap payload

let udp_next t fd () =
  match Oskernel.Kernel.recvfrom t.kernel fd ~block:false with
  | Some (from, payload) -> progress t (Pdpix.Popped_from (from, [ heap_buf t payload ]))
  | None -> None

let pop_next t fd () =
  match Oskernel.Kernel.recv t.kernel fd ~block:false with
  | Some payload -> progress t (Pdpix.Popped [ heap_buf t payload ])
  | None ->
      if Oskernel.Kernel.at_eof t.kernel fd then progress t (Pdpix.Popped [])
      else if Oskernel.Kernel.was_reset t.kernel fd then
        progress t (Pdpix.Failed "connection reset")
      else None

let new_conn t fd connect_token = { fd; pops = Runtime.pending t.rt (pop_next t fd); connect_token }

let accept_next t fd () =
  match Oskernel.Kernel.try_accept t.kernel fd with
  | Some conn_fd ->
      let qd = Runtime.fresh_qd t.rt in
      Hashtbl.replace t.qds qd (Connection (new_conn t conn_fd None));
      progress t (Pdpix.Accepted qd)
  | None -> None

let service_entry t entry =
  match entry with
  | Udp_sock (_, q) | Listener (_, q) -> Runtime.serve q
  | Connection ce ->
      (match ce.connect_token with
      | Some qt -> (
          match Oskernel.Kernel.connect_status t.kernel ce.fd with
          | `Ok ->
              ce.connect_token <- None;
              complete t qt Pdpix.Connected
          | `Refused ->
              ce.connect_token <- None;
              complete t qt (Pdpix.Failed "connection refused")
          | `Pending -> ())
      | None -> ());
      Runtime.serve ce.pops
  | Unbound _ | Bound_tcp _ | Log_file _ -> ()

let outstanding = function
  | Udp_sock (_, q) | Listener (_, q) -> Runtime.waiting q
  | Connection { connect_token = Some _; _ } -> true
  | Connection { pops; _ } -> Runtime.waiting pops
  | Unbound _ | Bound_tcp _ | Log_file _ -> false

(* Service [active.(i ..)] in order, keeping at [w ..] the qds that
   still have something outstanding; a closed qd (no longer in [qds])
   drops out. Servicing never activates a qd (only the PDPIX calls do),
   so the array is stable during the pass. *)
let rec service_from t i w =
  if i < t.nactive then begin
    let qd = t.active.(i) in
    match Hashtbl.find t.qds qd with
    | entry ->
        service_entry t entry;
        if outstanding entry then begin
          t.active.(w) <- qd;
          service_from t (i + 1) (w + 1)
        end
        else service_from t (i + 1) w
    | exception Not_found -> service_from t (i + 1) w
  end
  else t.nactive <- w

(* One service pass over every queue with outstanding tokens, in
   ascending qd order (hash order would service queues in a
   seed-dependent sequence); returns whether anything completed. A
   queue with nothing outstanding would be a no-op, so it is not
   visited. *)
let service t =
  t.service_progress <- false;
  service_from t 0 0;
  t.service_progress

(* One poll: drain the kernel, then one [service] pass; device work
   means some token completed. *)
let poll t () =
  Oskernel.Kernel.poll t.kernel;
  service t

(* ---------- PDPIX operations ---------- *)

let find t qd =
  match Hashtbl.find_opt t.qds qd with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "catnap: unknown qd %d" qd)

let op_socket t proto =
  let qd = Runtime.fresh_qd t.rt in
  Hashtbl.replace t.qds qd (Unbound proto);
  qd

let op_bind t qd (ep : Net.Addr.endpoint) =
  match find t qd with
  | Unbound Pdpix.Udp ->
      let fd = Oskernel.Kernel.udp_socket t.kernel ~port:ep.Net.Addr.port in
      Hashtbl.replace t.qds qd (Udp_sock (fd, Runtime.pending t.rt (udp_next t fd)))
  | Unbound Pdpix.Tcp -> Hashtbl.replace t.qds qd (Bound_tcp ep)
  | Bound_tcp _ | Udp_sock _ | Listener _ | Connection _ | Log_file _ ->
      invalid_arg "catnap: bind on active qd"

let op_listen t qd _backlog =
  match find t qd with
  | Bound_tcp ep ->
      let fd = Oskernel.Kernel.tcp_listen t.kernel ~port:ep.Net.Addr.port in
      Hashtbl.replace t.qds qd (Listener (fd, Runtime.pending t.rt (accept_next t fd)))
  | Unbound _ | Udp_sock _ | Listener _ | Connection _ | Log_file _ ->
      invalid_arg "catnap: listen needs a bound TCP qd"

let op_accept t qd =
  match find t qd with
  | Listener (_, accepts) ->
      let qt = Runtime.enqueue accepts in
      activate t qd;
      ignore (service t);
      qt
  | Unbound _ | Bound_tcp _ | Udp_sock _ | Connection _ | Log_file _ ->
      invalid_arg "catnap: accept on non-listener"

let op_connect t qd dst =
  match find t qd with
  | Unbound Pdpix.Tcp ->
      let fd = Oskernel.Kernel.connect_start t.kernel ~dst in
      let qt = Runtime.fresh_token t.rt in
      Hashtbl.replace t.qds qd (Connection (new_conn t fd (Some qt)));
      activate t qd;
      qt
  | Unbound Pdpix.Udp | Bound_tcp _ | Udp_sock _ | Listener _ | Connection _ | Log_file _ ->
      invalid_arg "catnap: connect needs an unbound TCP qd"

let op_close t qd =
  (match find t qd with
  | Connection { fd; pops; _ } | Udp_sock (fd, pops) | Listener (fd, pops) ->
      Oskernel.Kernel.close t.kernel fd;
      Runtime.fail pops "queue closed"
  | Unbound _ | Bound_tcp _ | Log_file _ -> ());
  Hashtbl.remove t.qds qd

let op_push t qd sga =
  match find t qd with
  | Connection ce ->
      (* POSIX write: completes once copied into the kernel. *)
      Oskernel.Kernel.send t.kernel ce.fd (Pdpix.sga_to_string sga);
      Runtime.completed_token t.rt Pdpix.Pushed
  | Log_file ls ->
      (* Synchronous durable append, length-framed so the log can be
         read back after a crash; blocks the (single-threaded) process
         exactly as write+fsync does. *)
      let payload = Pdpix.sga_to_string sga in
      let framed = Bytes.create (4 + String.length payload) in
      Net.Wire.set_u32 framed 0 (String.length payload);
      Bytes.blit_string payload 0 framed 4 (String.length payload);
      Oskernel.Kernel.pwrite_sync t.kernel ~off:ls.tail (Bytes.unsafe_to_string framed);
      ls.tail <- ls.tail + 4 + String.length payload;
      Runtime.completed_token t.rt Pdpix.Pushed
  | Unbound _ | Bound_tcp _ | Udp_sock _ | Listener _ ->
      invalid_arg "catnap: push on non-connection"

let op_pushto t qd dst sga =
  match find t qd with
  | Udp_sock (fd, _) ->
      Oskernel.Kernel.sendto t.kernel fd ~dst (Pdpix.sga_to_string sga);
      Runtime.completed_token t.rt Pdpix.Pushed
  | Unbound _ | Bound_tcp _ | Listener _ | Connection _ | Log_file _ ->
      invalid_arg "catnap: pushto on non-UDP qd"

let op_pop t qd =
  match find t qd with
  | Connection { pops; _ } | Udp_sock (_, pops) ->
      let qt = Runtime.enqueue pops in
      activate t qd;
      ignore (service t);
      qt
  | Log_file ls -> (
      (* pread the next length-framed record. *)
      let header = Oskernel.Kernel.read_log t.kernel ~off:ls.cursor ~len:4 in
      if String.length header < 4 then
        Runtime.completed_token t.rt (Pdpix.Failed "catnap: log read error")
      else begin
        let len = Net.Wire.get_u32 (Bytes.unsafe_of_string header) 0 in
        if len = 0 then Runtime.completed_token t.rt (Pdpix.Failed "catnap: read at log tail")
        else begin
          let payload = Oskernel.Kernel.read_log t.kernel ~off:(ls.cursor + 4) ~len in
          if String.length payload < len then
            Runtime.completed_token t.rt (Pdpix.Failed "catnap: log read error")
          else begin
            ls.cursor <- ls.cursor + 4 + len;
            let buf = Memory.Heap.alloc_of_string (host t).Host.heap payload in
            Runtime.completed_token t.rt (Pdpix.Popped [ buf ])
          end
        end
      end)
  | Unbound _ | Bound_tcp _ | Listener _ -> invalid_arg "catnap: pop on non-I/O qd"

let op_open_log t _path =
  (* Discover the tail left by a previous boot by scanning the length
     framing (the file is zero-filled past the last record). *)
  let rec find_tail off =
    let header = Oskernel.Kernel.read_log t.kernel ~off ~len:4 in
    if String.length header < 4 then off
    else
      let len = Net.Wire.get_u32 (Bytes.unsafe_of_string header) 0 in
      if len = 0 then off else find_tail (off + 4 + len)
  in
  let tail = find_tail 0 in
  let qd = Runtime.fresh_qd t.rt in
  Hashtbl.replace t.qds qd (Log_file { cursor = 0; tail });
  qd

let op_seek t qd off =
  match find t qd with
  | Log_file ls -> if off < 0 then invalid_arg "catnap: negative seek" else ls.cursor <- off
  | Unbound _ | Bound_tcp _ | Udp_sock _ | Listener _ | Connection _ ->
      invalid_arg "catnap: seek on non-log qd"

let create rt ~kernel =
  let t =
    {
      rt;
      kernel;
      qds = Hashtbl.create 32;
      active = Array.make 16 0;
      nactive = 0;
      service_progress = false;
    }
  in
  Runtime.fast_path rt ~name:"catnap-fast-path" ~signal:(Oskernel.Kernel.rx_signal kernel)
    ~timer:(fun () -> Oskernel.Kernel.next_timer_ns kernel)
    (poll t);
  t

let ops t =
  {
    Runtime.op_name = "catnap";
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
    op_open_log = op_open_log t;
    op_seek = op_seek t;
    op_truncate = (fun _ _ -> Runtime.unsupported "catnap: truncate (no ext4 head-trim)");
  }
