type profile = {
  name : string;
  device : [ `Dpdk | `Rdma ];
  per_op_cpu_ns : int;
  per_packet_hop_ns : int;
}

(* Constants chosen to reproduce the cost structure §7.3 describes:
   eRPC is a thin, carefully tuned layer over RDMA; Caladan adds a lean
   runtime over the low-level OFED API; Shenango routes every packet
   through its IOKernel core (two inter-core hops per packet). *)
let erpc = { name = "eRPC"; device = `Rdma; per_op_cpu_ns = 160; per_packet_hop_ns = 0 }
let caladan = { name = "Caladan"; device = `Dpdk; per_op_cpu_ns = 150; per_packet_hop_ns = 0 }

let shenango =
  { name = "Shenango"; device = `Dpdk; per_op_cpu_ns = 150; per_packet_hop_ns = 1_300 }

type port = {
  mac : Net.Addr.Mac.t;
  send : dst:Net.Addr.Mac.t -> string -> unit;
  drain : (src:Net.Addr.Mac.t -> string -> unit) -> bool;
  signal : Engine.Condvar.t;
}

let charge sim ns = if ns > 0 then Engine.Fiber.sleep sim ns

let eth_frame ~dst ~src payload =
  let b = Bytes.create (Net.Eth.size + String.length payload) in
  let off = Net.Eth.write b 0 { Net.Eth.dst; src; ethertype = 0x88B5 } in
  Bytes.blit_string payload 0 b off (String.length payload);
  Bytes.unsafe_to_string b

let make_port profile sim fabric ~index =
  let cost = Net.Fabric.cost fabric in
  let mac = Net.Addr.Mac.of_index index in
  let ip = Net.Addr.Ip.of_index index in
  match profile.device with
  | `Dpdk when profile.per_packet_hop_ns > 0 ->
      (* Shenango-style: a dedicated IOKernel core (its own fiber) sits
         between the NIC and the application; every packet pays the
         inter-core hop in latency, but the hop burns the IOKernel's
         cycles, not the application core's. *)
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      let mailbox : string Queue.t = Queue.create () in
      let mailbox_signal = Engine.Condvar.create sim in
      let iokernel_cpu_ns = 300 in
      Engine.Fiber.spawn sim ~name:"iokernel" (fun () ->
          let rec loop () =
            (match Net.Dpdk_sim.rx_burst nic ~max:32 with
            | [] ->
                ignore
                  (Engine.Condvar.wait_many sim [ Net.Dpdk_sim.rx_signal nic ] ~timeout:None)
            | frames ->
                List.iter
                  (fun frame ->
                    charge sim iokernel_cpu_ns;
                    Engine.Sim.schedule sim ~delay:profile.per_packet_hop_ns (fun () ->
                        Queue.add frame mailbox;
                        Engine.Condvar.broadcast mailbox_signal))
                  frames);
            loop ()
          in
          loop ());
      {
        mac;
        send =
          (fun ~dst payload ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_tx_ns);
            let frame = eth_frame ~dst ~src:mac payload in
            (* Outbound packets cross the IOKernel too. *)
            Engine.Sim.schedule sim ~delay:profile.per_packet_hop_ns (fun () ->
                Net.Dpdk_sim.tx_burst nic [ frame ]));
        drain =
          (fun handler ->
            if Queue.is_empty mailbox then false
            else begin
              while not (Queue.is_empty mailbox) do
                let frame = Queue.pop mailbox in
                charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_rx_ns);
                match Net.Eth.read (Bytes.unsafe_of_string frame) 0 with
                | exception Net.Wire.Malformed _ -> ()
                | eth, off ->
                    let b = Bytes.unsafe_of_string frame in
                    handler ~src:eth.Net.Eth.src
                      (Bytes.sub_string b off (Bytes.length b - off))
              done;
              true
            end);
        signal = mailbox_signal;
      }
  | `Dpdk ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      {
        mac;
        send =
          (fun ~dst payload ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_tx_ns);
            Net.Dpdk_sim.tx_burst nic [ eth_frame ~dst ~src:mac payload ]);
        drain =
          (fun handler ->
            match Net.Dpdk_sim.rx_burst nic ~max:32 with
            | [] -> false
            | frames ->
                List.iter
                  (fun frame ->
                    charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_rx_ns);
                    let b = Bytes.unsafe_of_string frame in
                    match Net.Eth.read b 0 with
                    | exception Net.Wire.Malformed _ -> ()
                    | eth, off ->
                        handler ~src:eth.Net.Eth.src
                          (Bytes.sub_string b off (Bytes.length b - off)))
                  frames;
                true);
        signal = Net.Dpdk_sim.rx_signal nic;
      }
  | `Rdma ->
      let rnic = Net.Rdma_sim.create fabric ~mac ~ip () in
      for _ = 1 to 256 do
        Net.Rdma_sim.post_recv rnic
      done;
      {
        mac;
        send =
          (fun ~dst payload ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.rdma_post_ns);
            Net.Rdma_sim.post_send rnic ~dst ~wr_id:0 ~imm:0 payload);
        drain =
          (fun handler ->
            match Net.Rdma_sim.poll_cq rnic ~max:32 with
            | [] -> false
            | completions ->
                List.iter
                  (fun completion ->
                    match completion with
                    | Net.Rdma_sim.Recv { src_mac; payload; _ } ->
                        charge sim (profile.per_op_cpu_ns + cost.Net.Cost.rdma_poll_ns);
                        Net.Rdma_sim.post_recv rnic;
                        handler ~src:src_mac payload
                    | Net.Rdma_sim.Send_done _ | Net.Rdma_sim.Write_done _ -> ())
                  completions;
                true);
        signal = Net.Rdma_sim.cq_signal rnic;
      }

let spawn_echo_server profile sim fabric ~index =
  let port = make_port profile sim fabric ~index in
  Engine.Fiber.spawn sim ~name:(profile.name ^ "-server") (fun () ->
      let rec loop () =
        if not (port.drain (fun ~src payload -> port.send ~dst:src payload)) then
          ignore (Engine.Condvar.wait_many sim [ port.signal ] ~timeout:None);
        loop ()
      in
      loop ());
  port

let echo profile sim fabric ~server_index ~client_index ~msg_size ~count ~record ~on_done =
  let server = spawn_echo_server profile sim fabric ~index:server_index in
  let client = make_port profile sim fabric ~index:client_index in
  Engine.Fiber.spawn sim ~name:(profile.name ^ "-client") (fun () ->
      let payload = String.make (max 1 msg_size) 'k' in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          client.send ~dst:server.mac payload;
          let got = ref false in
          let rec await () =
            if not !got then begin
              if not (client.drain (fun ~src:_ _ -> got := true)) then
                ignore (Engine.Condvar.wait_many sim [ client.signal ] ~timeout:None);
              await ()
            end
          in
          await ();
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go count;
      on_done ())

(* ---------- open-loop load (Figure 9) ---------- *)

type load_result = {
  offered_per_sec : float;
  achieved_per_sec : float;
  latencies : Metrics.Hdr.t;
}

let echo_open_loop profile sim fabric ~server_index ~client_index ~msg_size ~rate_per_sec
    ~duration_ns k =
  let server = spawn_echo_server profile sim fabric ~index:server_index in
  let client = make_port profile sim fabric ~index:client_index in
  Engine.Fiber.spawn sim ~name:(profile.name ^ "-loadgen") (fun () ->
      let prng = Engine.Prng.split (Engine.Sim.prng sim) in
      let hist = Metrics.Hdr.create () in
      let received = ref 0 in
      let start = Engine.Sim.now sim in
      let deadline = start + duration_ns in
      let grace = deadline + 500_000 in
      let next_send = ref start in
      let payload_tail = String.make (max 0 (msg_size - 8)) 'l' in
      let handler ~src:_ payload =
        if String.length payload >= 8 then begin
          let ts = Net.Wire.get_u48 (Bytes.unsafe_of_string payload) 0 in
          let sent_at = start + ts in
          Metrics.Hdr.add hist (Engine.Sim.now sim - sent_at);
          incr received
        end
      in
      let rec loop () =
        let now = Engine.Sim.now sim in
        if now >= grace then ()
        else begin
          if now >= !next_send && now < deadline then begin
            let b = Bytes.create 8 in
            Net.Wire.set_u48 b 0 (now - start);
            Net.Wire.set_u16 b 6 0;
            client.send ~dst:server.mac (Bytes.unsafe_to_string b ^ payload_tail);
            next_send :=
              !next_send
              + max 1 (int_of_float (Engine.Prng.exponential prng (1e9 /. rate_per_sec)))
          end
          else if not (client.drain handler) then begin
            let wake = if Engine.Sim.now sim < deadline then min !next_send grace else grace in
            ignore
              (Engine.Condvar.wait_many sim [ client.signal ]
                 ~timeout:(Some (max 1 (wake - Engine.Sim.now sim))))
          end;
          loop ()
        end
      in
      loop ();
      k
        {
          offered_per_sec = rate_per_sec;
          achieved_per_sec = float_of_int !received /. (float_of_int duration_ns /. 1e9);
          latencies = hist;
        })
