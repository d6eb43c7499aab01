(* The Catnip determinism story (§6.3): "Catnip is able to control all
   inputs to the TCP stack, including packets and time, which let us
   easily debug the stack by feeding it a trace".

   Run with:  dune exec examples/tcp_trace.exe

   Two stacks converse through a hand-rolled harness that logs every
   frame with its virtual timestamp and deterministically drops the
   first data segment. The run is replayed and both frame logs are
   compared byte for byte — same inputs, same time, same outputs. *)

type world = {
  mutable clock : int;
  mutable queue : (int * int * [ `A | `B ] * Memory.Heap.buffer) list;
  mutable seq : int;
  mutable log : (int * string) list;
  mutable dropped : bool;
}

(* Header views the two frame readers below parse into. *)
let eth = Net.Eth.create ()
let ip = Net.Ipv4.create ()
let th = Net.Tcp_wire.create ()

let describe frame =
  let b = Memory.Heap.data frame in
  let lim = Memory.Heap.offset frame + Memory.Heap.length frame in
  match Net.Eth.read b (Memory.Heap.offset frame) ~lim eth with
  | exception Net.Wire.Malformed _ -> "malformed"
  | off ->
      if eth.Net.Eth.ethertype = Net.Eth.ethertype_arp then "ARP"
      else begin
        match Net.Ipv4.read b off ~lim ip with
        | exception Net.Wire.Malformed _ -> "non-ip"
        | toff ->
            if ip.Net.Ipv4.protocol <> Net.Ipv4.protocol_tcp then "ip"
            else begin
              match
                Net.Tcp_wire.read b toff ~lim th
                  ~seg_len:(ip.Net.Ipv4.total_length - Net.Ipv4.size)
                  ~src_ip:ip.Net.Ipv4.src ~dst_ip:ip.Net.Ipv4.dst
              with
              | exception Net.Wire.Malformed _ -> "bad-tcp"
              | poff ->
                  let payload = ip.Net.Ipv4.total_length - Net.Ipv4.size - (poff - toff) in
                  Printf.sprintf "TCP %d->%d seq=%u ack=%u%s%s%s%s payload=%d"
                    th.Net.Tcp_wire.src_port th.Net.Tcp_wire.dst_port th.Net.Tcp_wire.seq
                    th.Net.Tcp_wire.ack
                    (if th.Net.Tcp_wire.syn then " SYN" else "")
                    (if th.Net.Tcp_wire.ack_flag then " ACK" else "")
                    (if th.Net.Tcp_wire.fin then " FIN" else "")
                    (if th.Net.Tcp_wire.rst then " RST" else "")
                    payload
            end
      end

let tcp_payload_len frame =
  let b = Memory.Heap.data frame in
  let lim = Memory.Heap.offset frame + Memory.Heap.length frame in
  match Net.Eth.read b (Memory.Heap.offset frame) ~lim eth with
  | exception Net.Wire.Malformed _ -> 0
  | off ->
      if eth.Net.Eth.ethertype <> Net.Eth.ethertype_ipv4 then 0
      else begin
        match Net.Ipv4.read b off ~lim ip with
        | exception Net.Wire.Malformed _ -> 0
        | toff ->
            if ip.Net.Ipv4.protocol <> Net.Ipv4.protocol_tcp then 0
            else begin
              match
                Net.Tcp_wire.read b toff ~lim th
                  ~seg_len:(ip.Net.Ipv4.total_length - Net.Ipv4.size)
                  ~src_ip:ip.Net.Ipv4.src ~dst_ip:ip.Net.Ipv4.dst
              with
              | exception Net.Wire.Malformed _ -> 0
              | poff -> ip.Net.Ipv4.total_length - Net.Ipv4.size - (poff - toff)
            end
      end

let run () =
  let w = { clock = 0; queue = []; seq = 0; log = []; dropped = false } in
  let heap side = Memory.Heap.create ~label:side ~mode:Memory.Heap.Pool_backed () in
  let heap_a = heap "a" and heap_b = heap "b" in
  let frames = Memory.Heap.create ~label:"frames" ~headroom:0 ~mode:Memory.Heap.Pool_backed () in
  let send dest frame =
    w.log <- (w.clock, Printf.sprintf "%s %s" (match dest with `A -> "->a" | `B -> "->b")
                (describe frame)) :: w.log;
    (* Fault injection: lose the first data-bearing segment to B. *)
    if dest = `B && (not w.dropped) && tcp_payload_len frame > 0 then begin
      w.dropped <- true;
      Memory.Heap.free frame;
      w.log <- (w.clock, "   (dropped by the network)") :: w.log
    end
    else begin
      w.seq <- w.seq + 1;
      w.queue <- (w.clock + 2_000, w.seq, dest, frame) :: w.queue
    end
  in
  let iface side tx =
    Tcp.Iface.create
      ~mac:(Net.Addr.Mac.of_index side)
      ~ip:(Net.Addr.Ip.of_index side)
      ~clock:(fun () -> w.clock)
      ~frames ~tx_frame:tx ()
  in
  let stack_a =
    Tcp.Stack.create ~iface:(iface 1 (send `B)) ~heap:heap_a ~prng:(Engine.Prng.create 1L)
      ~events:(fun _ -> ()) ()
  in
  let stack_b =
    Tcp.Stack.create ~iface:(iface 2 (send `A)) ~heap:heap_b ~prng:(Engine.Prng.create 2L)
      ~events:(fun _ -> ()) ()
  in
  let _listener = Tcp.Stack.tcp_listen stack_b ~port:80 in
  let conn = Tcp.Stack.tcp_connect stack_a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 80) in
  let sent = ref false in
  (* Drive the world: deliver the earliest frame or fire the earliest
     stack timer, exactly as a trace replay would. *)
  let rec step guard =
    if guard > 0 then begin
      (* Inject the application write once established. *)
      if (not !sent) && Tcp.Stack.conn_state conn = Tcp.Stack.Established_st then begin
        sent := true;
        Tcp.Stack.tcp_send conn [ Memory.Heap.alloc_of_string heap_a "trace me" ]
      end;
      let next_frame =
        List.fold_left (fun acc (at, _, _, _) -> min acc at) max_int w.queue
      in
      let next_timer =
        min (Tcp.Stack.next_timer_ns stack_a) (Tcp.Stack.next_timer_ns stack_b)
      in
      let at = min next_frame next_timer in
      if at < max_int then begin
        w.clock <- max w.clock at;
        let due, rest = List.partition (fun (t, _, _, _) -> t <= w.clock) w.queue in
        w.queue <- rest;
        List.iter
          (fun (_, _, dest, frame) ->
            match dest with
            | `A -> Tcp.Stack.input stack_a frame
            | `B -> Tcp.Stack.input stack_b frame)
          (List.sort (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2)) due);
        Tcp.Stack.on_timer stack_a;
        Tcp.Stack.on_timer stack_b;
        step (guard - 1)
      end
    end
  in
  step 200;
  List.rev w.log

let () =
  Format.printf "First run (SYN, handshake, data segment lost, RTO retransmission):@.@.";
  let first = run () in
  List.iter (fun (t, line) -> Format.printf "  %8dns %s@." t line) first;
  let second = run () in
  Format.printf "@.Replayed the trace: %s@."
    (if first = second then "identical, byte for byte — deterministic"
     else "DIFFERENT (bug!)")
