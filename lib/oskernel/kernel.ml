type mode = Posix | Uring

type fd_state =
  | Udp of Tcp.Stack.udp_socket
  | Listener of Tcp.Stack.listener
  | Conn of Tcp.Stack.conn
  | Closed

type t = {
  sim : Engine.Sim.t;
  name : string;
  cost : Net.Cost.t;
  nic : Net.Dpdk_sim.t;
  ssd : Net.Ssd_sim.t option;
  mode : mode;
  heap : Memory.Heap.t;
  stack : Tcp.Stack.t;
  fds : (int, fd_state) Hashtbl.t;
  resets : (int, unit) Hashtbl.t; (* ids of open connections the peer reset *)
  mutable next_fd : int;
  mutable syscalls : int;
  mutable frames_in : int; (* frames drained from the NIC so far *)
  mutable log_tail : int;
  mutable next_io_id : int;
}

type fd = int
type write = Bytes.t -> int -> unit
type 'a read = Bytes.t -> int -> int -> 'a

let create sim ?(name = "kernel") ~cost ~nic ?ssd ?(mode = Posix) () =
  let heap = Memory.Heap.create ~label:name ~mode:Memory.Heap.Not_dma () in
  Engine.Sim.at_teardown sim (fun () -> Memory.Heap.log_teardown heap);
  let iface =
    Tcp.Iface.create ~mac:(Net.Dpdk_sim.mac nic) ~ip:(Net.Dpdk_sim.ip nic)
      ~clock:(fun () -> Engine.Sim.now sim)
      ~frames:(Net.Dpdk_sim.frames nic)
      ~tx_frame:(Net.Dpdk_sim.tx nic)
      ()
  in
  (* The only stack event a POSIX reader needs from the kernel is a
     reset: recv on that socket fails (ECONNRESET) instead of waiting. *)
  let resets = Hashtbl.create 8 in
  let on_event = function
    | Tcp.Stack.Reset conn -> Hashtbl.replace resets (Tcp.Stack.conn_id conn) ()
    | Tcp.Stack.Udp_readable _ | Tcp.Stack.Accept_ready _ | Tcp.Stack.Established _
    | Tcp.Stack.Readable _ | Tcp.Stack.Push_completed _ | Tcp.Stack.Closed _ ->
        ()
  in
  let stack =
    Tcp.Stack.create ~iface ~heap
      ~prng:(Engine.Prng.split (Engine.Sim.prng sim))
      ~events:on_event ()
  in
  {
    sim;
    name;
    cost;
    nic;
    ssd;
    mode;
    heap;
    stack;
    fds = Hashtbl.create 16;
    resets;
    next_fd = 3;
    syscalls = 0;
    frames_in = 0;
    log_tail = 0;
    next_io_id = 1;
  }

let heap t = t.heap
let syscalls t = t.syscalls
let frames_in t = t.frames_in

let charge_as t comp ns =
  if ns > 0 then begin
    Engine.Sim.span_note t.sim ~comp ~owner:t.name ~dur:ns;
    Engine.Fiber.sleep t.sim ns
  end

(* Default attribution is the kernel-crossing component; per-frame stack
   processing is softirq time and copies are copies. *)
let charge t ns = charge_as t Engine.Span.Kernel ns

let charge_copy t n =
  Memory.Heap.note_copy t.heap n;
  charge_as t Engine.Span.Copy (Net.Cost.copy_cost_ns t.cost n)

let syscall_cost t =
  match t.mode with Posix -> t.cost.Net.Cost.syscall_ns | Uring -> t.cost.Net.Cost.syscall_ns / 4

let enter_syscall t =
  t.syscalls <- t.syscalls + 1;
  charge t (syscall_cost t)

(* Pull pending frames through the kernel network stack, charging stack
   processing per packet, then run protocol timers. Top-level recursion
   rather than per-call inner closures: [drain] runs on every Catnap
   poll, and the empty-ring (steady) pass must allocate nothing. *)
let rec rx_n t n =
  if n > 0 then begin
    let frame = Net.Dpdk_sim.rx t.nic in
    charge_as t Engine.Span.Softirq t.cost.Net.Cost.kernel_net_ns;
    Tcp.Stack.input t.stack frame;
    rx_n t (n - 1)
  end

(* Bursts of at most 32, each counted at its start, until the ring is
   empty. *)
let rec drain_bursts t =
  match Net.Dpdk_sim.rx_take t.nic ~max:32 with
  | 0 -> ()
  | n ->
      t.frames_in <- t.frames_in + n;
      rx_n t n;
      drain_bursts t

let drain t =
  drain_bursts t;
  Tcp.Stack.flush_acks t.stack;
  Tcp.Stack.on_timer t.stack

(* Sleep until [ready] holds, draining on every wakeup. Blocking callers
   pay interrupt + scheduler latency per wakeup; polling callers don't
   (they burn the core instead). *)
let wait_until t ~blocking ready =
  drain t;
  let rec loop () =
    if not (ready ()) then begin
      let timeout =
        match Tcp.Stack.next_timer_ns t.stack with
        | deadline when deadline = max_int -> max_int
        | deadline -> max 0 (deadline - Engine.Sim.now t.sim)
      in
      let _ =
        Engine.Condvar.wait_many t.sim [ Net.Dpdk_sim.rx_signal t.nic ] ~timeout
      in
      if blocking then begin
        (* Interrupt + scheduler wakeup, plus the epoll_wait return
           crossing that polling callers never make. *)
        charge t t.cost.Net.Cost.kernel_wakeup_ns;
        charge t (syscall_cost t)
      end;
      drain t;
      loop ()
    end
  in
  loop ()

let alloc_fd t state =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.fds fd state;
  fd

(* [Hashtbl.find] + handler, not [find_opt]: every syscall resolves its
   fd, and the option wrapper would be one word of garbage per call. *)
let fd_state t fd =
  try Hashtbl.find t.fds fd
  with Not_found -> invalid_arg (Printf.sprintf "Kernel: bad fd %d" fd)

(* ---------- UDP ---------- *)

let udp_socket t ~port =
  enter_syscall t;
  alloc_fd t (Udp (Tcp.Stack.udp_bind t.stack ~port))

(* Copy user -> kernel into a fresh kernel buffer, then kernel stack
   processing. *)
let copy_in t ~len ~write =
  charge_copy t len;
  charge_as t Engine.Span.Softirq t.cost.Net.Cost.kernel_net_ns;
  let buf = Memory.Heap.alloc t.heap (max 1 len) in
  write (Memory.Heap.data buf) (Memory.Heap.offset buf);
  Memory.Heap.set_length buf len;
  buf

(* Copy kernel -> user; the kernel buffer is freed once [read] returns. *)
let copy_out t buf ~read =
  charge_copy t (Memory.Heap.length buf);
  let v = read (Memory.Heap.data buf) (Memory.Heap.offset buf) (Memory.Heap.length buf) in
  Memory.Heap.free buf;
  v

let sendto t fd ~dst ~len ~write =
  match fd_state t fd with
  | Udp sock ->
      enter_syscall t;
      drain t;
      let buf = copy_in t ~len ~write in
      Tcp.Stack.udp_sendto t.stack sock ~dst buf;
      Memory.Heap.free buf
  | Listener _ | Conn _ | Closed -> invalid_arg "Kernel.sendto: not a UDP socket"

let recvfrom t fd ~block ~read =
  match fd_state t fd with
  | Udp sock ->
      enter_syscall t;
      if block then wait_until t ~blocking:true (fun () -> Tcp.Stack.udp_pending sock > 0)
      else drain t;
      (match Tcp.Stack.udp_recv sock with
      | Some (from, buf) -> Some (from, copy_out t buf ~read)
      | None -> None)
  | Listener _ | Conn _ | Closed -> invalid_arg "Kernel.recvfrom: not a UDP socket"

(* ---------- TCP ---------- *)

let tcp_listen t ~port =
  enter_syscall t;
  alloc_fd t (Listener (Tcp.Stack.tcp_listen t.stack ~port))

let accept t fd =
  match fd_state t fd with
  | Listener l ->
      enter_syscall t;
      wait_until t ~blocking:true (fun () -> Tcp.Stack.accept_pending l > 0);
      (match Tcp.Stack.tcp_accept l with
      | Some conn -> alloc_fd t (Conn conn)
      | None -> assert false)
  | Udp _ | Conn _ | Closed -> invalid_arg "Kernel.accept: not a listener"

let connect t ~dst =
  enter_syscall t;
  drain t;
  let conn = Tcp.Stack.tcp_connect t.stack ~dst in
  wait_until t ~blocking:true (fun () ->
      match Tcp.Stack.conn_state conn with
      | Tcp.Stack.Established_st | Tcp.Stack.Closed_st -> true
      | _ -> false);
  if Tcp.Stack.conn_state conn = Tcp.Stack.Closed_st then failwith "Kernel.connect: refused";
  alloc_fd t (Conn conn)

exception Connection_reset

let send t fd ~len ~write =
  match fd_state t fd with
  | Conn conn ->
      enter_syscall t;
      drain t;
      if Hashtbl.mem t.resets (Tcp.Stack.conn_id conn) then raise Connection_reset;
      let buf = copy_in t ~len ~write in
      Tcp.Stack.tcp_send conn [ buf ];
      Memory.Heap.free buf
  | Udp _ | Listener _ | Closed -> invalid_arg "Kernel.send: not a connection"

let at_eof t fd =
  match fd_state t fd with
  | Conn conn -> Tcp.Stack.conn_at_eof conn
  | Udp _ | Listener _ | Closed -> false

let was_reset t fd =
  match fd_state t fd with
  | Conn conn -> Hashtbl.mem t.resets (Tcp.Stack.conn_id conn)
  | Udp _ | Listener _ | Closed -> false

let recv t fd ~block ~read =
  match fd_state t fd with
  | Conn conn ->
      enter_syscall t;
      let ready () =
        match Tcp.Stack.conn_state conn with
        | Tcp.Stack.Closed_st -> true
        | _ -> Tcp.Stack.conn_recv_queue_bytes conn > 0 || Tcp.Stack.conn_at_eof conn
      in
      if block then wait_until t ~blocking:true ready else drain t;
      (match Tcp.Stack.tcp_recv conn with
      | `Data buf -> Some (copy_out t buf ~read)
      | `Eof | `Nothing -> None)
  | Udp _ | Listener _ | Closed -> invalid_arg "Kernel.recv: not a connection"

let close t fd =
  enter_syscall t;
  (match fd_state t fd with
  | Conn conn ->
      Hashtbl.remove t.resets (Tcp.Stack.conn_id conn);
      Tcp.Stack.tcp_close conn
  | Udp sock -> Tcp.Stack.udp_unbind t.stack sock
  | Listener l -> Tcp.Stack.tcp_unlisten l
  | Closed -> ());
  Hashtbl.replace t.fds fd Closed

let ready t fd =
  match fd_state t fd with
  | Udp sock -> Tcp.Stack.udp_pending sock > 0
  | Listener l -> Tcp.Stack.accept_pending l > 0
  | Conn conn ->
      Tcp.Stack.conn_recv_queue_bytes conn > 0
      || Tcp.Stack.conn_at_eof conn
      || Tcp.Stack.conn_state conn = Tcp.Stack.Closed_st
  | Closed -> false

let wait_readable t fds =
  enter_syscall t;
  wait_until t ~blocking:true (fun () -> List.exists (ready t) fds)

(* ---------- nonblocking primitives ---------- *)

let poll t = drain t

let try_accept t fd =
  match fd_state t fd with
  | Listener l ->
      enter_syscall t;
      drain t;
      (match Tcp.Stack.tcp_accept l with
      | Some conn -> Some (alloc_fd t (Conn conn))
      | None -> None)
  | Udp _ | Conn _ | Closed -> invalid_arg "Kernel.try_accept: not a listener"

let connect_start t ~dst =
  enter_syscall t;
  drain t;
  alloc_fd t (Conn (Tcp.Stack.tcp_connect t.stack ~dst))

let connect_status t fd =
  match fd_state t fd with
  | Conn conn -> (
      match Tcp.Stack.conn_state conn with
      | Tcp.Stack.Established_st -> `Ok
      | Tcp.Stack.Closed_st -> `Refused
      | _ -> `Pending)
  | Udp _ | Listener _ | Closed -> invalid_arg "Kernel.connect_status: not a connection"

let rx_signal t = Net.Dpdk_sim.rx_signal t.nic

let next_timer_ns t = Tcp.Stack.next_timer_ns t.stack

(* ---------- durable log ---------- *)

(* Block until device command [id] completes; returns its payload. *)
let wait_ssd t ssd id =
  let result = ref None in
  let rec wait_completion () =
    List.iter
      (fun c -> if c.Net.Ssd_sim.id = id then result := Some c.Net.Ssd_sim.data)
      (Net.Ssd_sim.poll_cq ssd ~max:16);
    match !result with
    | Some data -> data
    | None ->
        let _ = Engine.Condvar.wait_many t.sim [ Net.Ssd_sim.cq_signal ssd ] ~timeout:max_int in
        wait_completion ()
  in
  let data = wait_completion () in
  charge t t.cost.Net.Cost.kernel_wakeup_ns;
  data

let fresh_io t =
  let id = t.next_io_id in
  t.next_io_id <- t.next_io_id + 1;
  id

let pwrite_sync t ~off ~len ~write =
  match t.ssd with
  | None -> failwith "Kernel.pwrite_sync: no disk attached"
  | Some ssd ->
      (* write(2): crossing + copy; fsync(2): crossing + file system +
         device latency, waited synchronously. *)
      enter_syscall t;
      charge_copy t len;
      enter_syscall t;
      charge t t.cost.Net.Cost.kernel_file_ns;
      let id = fresh_io t in
      let page = Bytes.create len in
      write page 0;
      Net.Ssd_sim.submit_write ssd ~id ~off (Bytes.unsafe_to_string page);
      t.log_tail <- max t.log_tail (off + len);
      ignore (wait_ssd t ssd id)

let append_sync t ~len ~write = pwrite_sync t ~off:t.log_tail ~len ~write

let read_log t ~off ~len ~read =
  match t.ssd with
  | None -> failwith "Kernel.read_log: no disk attached"
  | Some ssd ->
      (* pread(2): crossing + device read + kernel->user copy. *)
      enter_syscall t;
      let id = fresh_io t in
      Net.Ssd_sim.submit_read ssd ~id ~off ~len;
      let data = wait_ssd t ssd id in
      charge_copy t (String.length data);
      read (Bytes.unsafe_of_string data) 0 (String.length data)
