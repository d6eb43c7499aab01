type t = {
  rt : Runtime.t;
  kernel : Oskernel.Kernel.t;
  mutable active : Runtime.queue array;
      (* [active.(0 .. nactive - 1)]: ascending qd, the queues that may
         have something outstanding (a connect token, or waiting pops or
         accepts). A service pass visits only these, so its cost follows
         the queues with work, not every open descriptor. *)
  mutable nactive : int;
  mutable connects : (Runtime.queue * Oskernel.Kernel.fd) list;
      (* the streams whose connect is in flight, and their fds *)
  mutable service_progress : bool;
  pop_read : Memory.Heap.buffer Oskernel.Kernel.read;
      (* [heap_read] on the host heap, built once: a non-blocking recv
         that finds nothing allocates nothing *)
}

(* Lowest index of [active] holding a qd >= [qd]. *)
let rec active_search t qd lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Runtime.qd t.active.(mid) < qd then active_search t qd (mid + 1) hi
    else active_search t qd lo mid

(* List [q] for service passes from now on; called wherever a token
   starts waiting on it. *)
let activate t q =
  let qd = Runtime.qd q in
  let i = active_search t qd 0 t.nactive in
  if i = t.nactive || Runtime.qd t.active.(i) <> qd then begin
    if t.nactive = Array.length t.active then begin
      let grown = Array.make (max 16 (2 * t.nactive)) q in
      Array.blit t.active 0 grown 0 t.nactive;
      t.active <- grown
    end;
    Array.blit t.active i t.active (i + 1) (t.nactive - i);
    t.active.(i) <- q;
    t.nactive <- t.nactive + 1
  end

(* The [next] sources of the pending queues. Each attempt is a real
   (charged) non-blocking syscall — the price of Catnap's polling
   design. *)
let progress t completion =
  t.service_progress <- true;
  Some completion

(* The kernel -> user copy of a pop lands in a fresh host-heap buffer. *)
let heap_read heap data off len =
  let buf = Memory.Heap.alloc heap (max 1 len) in
  Bytes.blit data off (Memory.Heap.data buf) (Memory.Heap.offset buf) len;
  Memory.Heap.set_length buf len;
  buf

let udp_next t fd () =
  match Oskernel.Kernel.recvfrom t.kernel fd ~block:false ~read:t.pop_read with
  | Some (from, buf) -> progress t (Pdpix.Popped_from (from, [ buf ]))
  | None -> None

let pop_next t fd () =
  match Oskernel.Kernel.recv t.kernel fd ~block:false ~read:t.pop_read with
  | Some buf -> progress t (Pdpix.Popped [ buf ])
  | None ->
      if Oskernel.Kernel.at_eof t.kernel fd then progress t (Pdpix.Popped [])
      else if Oskernel.Kernel.was_reset t.kernel fd then
        progress t (Pdpix.Failed "connection reset")
      else None

let send t fd sga =
  (* POSIX write: completes once copied into the kernel. *)
  let len = Pdpix.sga_length sga in
  match Oskernel.Kernel.send t.kernel fd ~len ~write:(Pdpix.sga_blit sga) with
  | () -> Runtime.completed_token t.rt Pdpix.Pushed
  | exception Oskernel.Kernel.Connection_reset ->
      Runtime.completed_token t.rt (Pdpix.Failed "connection reset")

let open_stream t q fd =
  Runtime.open_stream q ~next:(pop_next t fd) ~push:(send t fd) ~close:(fun () ->
      t.connects <- List.remove_assq q t.connects;
      Oskernel.Kernel.close t.kernel fd)

let accept_next t fd () =
  match Oskernel.Kernel.try_accept t.kernel fd with
  | Some conn_fd ->
      let q = Runtime.accepted t.rt in
      open_stream t q conn_fd;
      progress t (Pdpix.Accepted (Runtime.qd q))
  | None -> None

let connect_done t q result =
  t.connects <- List.remove_assq q t.connects;
  t.service_progress <- true;
  Runtime.connected q result

let service_entry t q =
  if Runtime.connect_pending q then begin
    match Oskernel.Kernel.connect_status t.kernel (List.assq q t.connects) with
    | `Ok -> connect_done t q Pdpix.Connected
    | `Refused -> connect_done t q (Pdpix.Failed "connection refused")
    | `Pending -> ()
  end;
  Runtime.serve q

(* Service [active.(i ..)] in order, keeping at [w ..] the queues that
   still have something outstanding; a closed queue has nothing
   outstanding and drops out. Servicing never activates a queue (only
   the PDPIX calls do), so the array is stable during the pass. *)
let rec service_from t i w =
  if i < t.nactive then begin
    let q = t.active.(i) in
    service_entry t q;
    if Runtime.connect_pending q || Runtime.waiting q then begin
      t.active.(w) <- q;
      service_from t (i + 1) (w + 1)
    end
    else service_from t (i + 1) w
  end
  else t.nactive <- w

(* One service pass over every queue with outstanding tokens, in
   ascending qd order (hash order would service queues in a
   seed-dependent sequence); returns whether anything completed or a
   frame arrived. Every non-blocking call drains the NIC, so a frame
   taken by a later queue's call can make an already-visited queue (a
   listener, say) ready: the pass must not report idle then, or the
   host parks with that completion unseen. A queue with nothing
   outstanding would be a no-op, so it is not visited. *)
let service t =
  t.service_progress <- false;
  let frames = Oskernel.Kernel.frames_in t.kernel in
  service_from t 0 0;
  t.service_progress || Oskernel.Kernel.frames_in t.kernel <> frames

(* One poll: drain the kernel, then one [service] pass; device work
   means some token completed. *)
let poll t () =
  Oskernel.Kernel.poll t.kernel;
  service t

(* ---------- device halves ---------- *)

(* A pop or accept now waits: list the queue, then one service pass. *)
let waited t q =
  activate t q;
  ignore (service t)

let listen t q (ep : Net.Addr.endpoint) ~backlog:_ =
  let fd = Oskernel.Kernel.tcp_listen t.kernel ~port:ep.Net.Addr.port in
  Runtime.open_listener q ~next:(accept_next t fd) ~close:(fun () ->
      Oskernel.Kernel.close t.kernel fd)

let connect t q dst =
  let fd = Oskernel.Kernel.connect_start t.kernel ~dst in
  let qt = Runtime.connect_token q in
  open_stream t q fd;
  t.connects <- (q, fd) :: t.connects;
  activate t q;
  qt

let sendto t fd dst sga =
  Oskernel.Kernel.sendto t.kernel fd ~dst ~len:(Pdpix.sga_length sga) ~write:(Pdpix.sga_blit sga);
  Runtime.completed_token t.rt Pdpix.Pushed

let bind_udp t q (ep : Net.Addr.endpoint) =
  let fd = Oskernel.Kernel.udp_socket t.kernel ~port:ep.Net.Addr.port in
  Runtime.open_datagram q ~next:(udp_next t fd) ~pushto:(sendto t fd) ~close:(fun () ->
      Oskernel.Kernel.close t.kernel fd)

(* ---------- logs: write(2)+fsync(2) on an ext4-style file ---------- *)

type log_state = { mutable cursor : int; mutable tail : int }

let append t ls sga =
  (* Synchronous durable append, length-framed so the log can be read
     back after a crash; blocks the (single-threaded) process exactly
     as write+fsync does. *)
  let len = Pdpix.sga_length sga in
  Oskernel.Kernel.pwrite_sync t.kernel ~off:ls.tail ~len:(4 + len) ~write:(fun data off ->
      Net.Wire.set_u32 data off len;
      Pdpix.sga_blit sga data (off + 4));
  ls.tail <- ls.tail + 4 + len;
  Runtime.completed_token t.rt Pdpix.Pushed

(* A record header's length, parsed in place; -1 past the device's end. *)
let read_header t off =
  Oskernel.Kernel.read_log t.kernel ~off ~len:4 ~read:(fun data off n ->
      if n < 4 then -1 else Net.Wire.get_u32 data off)

(* pread the next length-framed record. *)
let read t ls () =
  match read_header t ls.cursor with
  | -1 -> Runtime.completed_token t.rt (Pdpix.Failed "catnap: log read error")
  | 0 -> Runtime.completed_token t.rt (Pdpix.Failed "catnap: read at log tail")
  | len -> (
      let read data off n = if n < len then None else Some (t.pop_read data off n) in
      match Oskernel.Kernel.read_log t.kernel ~off:(ls.cursor + 4) ~len ~read with
      | None -> Runtime.completed_token t.rt (Pdpix.Failed "catnap: log read error")
      | Some buf ->
          ls.cursor <- ls.cursor + 4 + len;
          Runtime.completed_token t.rt (Pdpix.Popped [ buf ]))

let open_log t _path =
  (* Discover the tail left by a previous boot by scanning the length
     framing (the file is zero-filled past the last record). *)
  let rec find_tail off =
    match read_header t off with -1 | 0 -> off | len -> find_tail (off + 4 + len)
  in
  let ls = { cursor = 0; tail = find_tail 0 } in
  let seek off = if off < 0 then invalid_arg "catnap: negative seek" else ls.cursor <- off in
  Runtime.qd
    (Runtime.new_log t.rt
       (* No ext4 head-trim: [truncate] is unsupported. *)
       { Runtime.append = append t ls; read = read t ls; seek; truncate = None })

let create rt ~kernel =
  let t =
    {
      rt;
      kernel;
      active = [||];
      nactive = 0;
      connects = [];
      service_progress = false;
      pop_read = heap_read (Runtime.host rt).Host.heap;
    }
  in
  Runtime.fast_path rt ~name:"catnap-fast-path" ~signal:(Oskernel.Kernel.rx_signal kernel)
    ~timer:(fun () -> Oskernel.Kernel.next_timer_ns kernel)
    (poll t);
  t

let net t =
  {
    Runtime.listen = listen t;
    connect = connect t;
    bind_udp = Some (bind_udp t);
    waited = waited t;
  }
