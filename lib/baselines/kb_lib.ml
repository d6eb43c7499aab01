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

(* Messages cross a port as byte ranges: [send] gathers the range into
   a frame, and [drain]'s handler reads the payload in place from a
   frame that is freed once the handler returns. *)
type port = {
  mac : Net.Addr.Mac.t;
  send : dst:Net.Addr.Mac.t -> Bytes.t -> int -> int -> unit;
  drain : (src:Net.Addr.Mac.t -> Bytes.t -> int -> int -> unit) -> bool;
  signal : Engine.Condvar.t;
}

let charge sim ns = if ns > 0 then Engine.Fiber.sleep sim ns

(* A port's frames are built in and read into its own header view. *)
let eth_frame nic eth ~dst ~src payload payload_off len =
  let frame = Memory.Heap.alloc (Net.Dpdk_sim.frames nic) (Net.Eth.size + len) in
  let b = Memory.Heap.data frame in
  eth.Net.Eth.dst <- dst;
  eth.Net.Eth.src <- src;
  eth.Net.Eth.ethertype <- 0x88B5;
  let off = Net.Eth.write b (Memory.Heap.offset frame) eth in
  Bytes.blit payload payload_off b off len;
  frame

(* Hand the payload of an L2 frame to [handler], dropping runts; the
   frame is freed either way. *)
let deliver_frame eth handler frame =
  let b = Memory.Heap.data frame in
  let lim = Memory.Heap.offset frame + Memory.Heap.length frame in
  (match Net.Eth.read b (Memory.Heap.offset frame) ~lim eth with
  | exception Net.Wire.Malformed _ -> ()
  | off -> handler ~src:eth.Net.Eth.src b off (lim - off));
  Memory.Heap.free frame

(* Take the [n] frames a poll counted, charging [per_frame] each. *)
let rec drain_n sim nic eth ~per_frame handler n =
  if n > 0 then begin
    let frame = Net.Dpdk_sim.rx nic in
    charge sim per_frame;
    deliver_frame eth handler frame;
    drain_n sim nic eth ~per_frame handler (n - 1)
  end

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
      let eth = Net.Eth.create () in
      let mailbox = Engine.Ring.create () in
      let mailbox_signal = Engine.Condvar.create sim in
      let iokernel_cpu_ns = 300 in
      (* The inter-core hop is a constant delay both ways: FIFO hops. *)
      let inbound =
        Net.Hop.create sim ~deliver:(fun frame ->
            Engine.Ring.push mailbox frame;
            Engine.Condvar.broadcast mailbox_signal)
      in
      let outbound = Net.Hop.create sim ~deliver:(Net.Dpdk_sim.tx nic) in
      let hop frame pipe =
        Net.Hop.send pipe ~at:(Engine.Sim.now sim + profile.per_packet_hop_ns) frame
      in
      Engine.Fiber.spawn sim ~name:"iokernel" (fun () ->
          let rec forward n =
            if n > 0 then begin
              let frame = Net.Dpdk_sim.rx nic in
              charge sim iokernel_cpu_ns;
              hop frame inbound;
              forward (n - 1)
            end
          in
          let rec loop () =
            (match Net.Dpdk_sim.rx_take nic ~max:32 with
            | 0 ->
                ignore
                  (Engine.Condvar.wait_many sim [ Net.Dpdk_sim.rx_signal nic ] ~timeout:None)
            | n -> forward n);
            loop ()
          in
          loop ());
      {
        mac;
        send =
          (fun ~dst b off len ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_tx_ns);
            (* Outbound packets cross the IOKernel too. *)
            hop (eth_frame nic eth ~dst ~src:mac b off len) outbound);
        drain =
          (fun handler ->
            if Engine.Ring.is_empty mailbox then false
            else begin
              while not (Engine.Ring.is_empty mailbox) do
                let frame = Engine.Ring.pop mailbox in
                charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_rx_ns);
                deliver_frame eth handler frame
              done;
              true
            end);
        signal = mailbox_signal;
      }
  | `Dpdk ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      let eth = Net.Eth.create () in
      let per_frame = profile.per_op_cpu_ns + cost.Net.Cost.dpdk_rx_ns in
      {
        mac;
        send =
          (fun ~dst b off len ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.dpdk_tx_ns);
            Net.Dpdk_sim.tx nic (eth_frame nic eth ~dst ~src:mac b off len));
        drain =
          (fun handler ->
            match Net.Dpdk_sim.rx_take nic ~max:32 with
            | 0 -> false
            | n ->
                drain_n sim nic eth ~per_frame handler n;
                true);
        signal = Net.Dpdk_sim.rx_signal nic;
      }
  | `Rdma ->
      let rnic = Net.Rdma_sim.create fabric ~mac ~ip () in
      for _ = 1 to 256 do
        Net.Rdma_sim.post_recv rnic
      done;
      (* The handler of the drain in progress. *)
      let handler = ref (fun ~src:_ _ _ _ -> ()) in
      let consumer =
        {
          Net.Rdma_sim.batch = ignore;
          send_done = ignore;
          recv =
            (fun ~src_mac ~imm:_ frame ->
              charge sim (profile.per_op_cpu_ns + cost.Net.Cost.rdma_poll_ns);
              Net.Rdma_sim.post_recv rnic;
              !handler ~src:src_mac (Memory.Heap.data frame) (Memory.Heap.offset frame)
                (Memory.Heap.length frame);
              Memory.Heap.free frame);
          write_done = (fun ~wr_id:_ ~ok:_ -> ());
        }
      in
      {
        mac;
        send =
          (fun ~dst b off len ->
            charge sim (profile.per_op_cpu_ns + cost.Net.Cost.rdma_post_ns);
            Net.Rdma_sim.post_send rnic ~dst ~wr_id:0 ~imm:0 b off len);
        drain =
          (fun h ->
            handler := h;
            Net.Rdma_sim.drain_cq rnic ~max:32 consumer > 0);
        signal = Net.Rdma_sim.cq_signal rnic;
      }

let spawn_echo_server profile sim fabric ~index =
  let port = make_port profile sim fabric ~index in
  Engine.Fiber.spawn sim ~name:(profile.name ^ "-server") (fun () ->
      let rec loop () =
        if not (port.drain (fun ~src b off len -> port.send ~dst:src b off len)) then
          ignore (Engine.Condvar.wait_many sim [ port.signal ] ~timeout:None);
        loop ()
      in
      loop ());
  port

let echo profile sim fabric ~server_index ~client_index ~msg_size ~count ~record ~on_done =
  let server = spawn_echo_server profile sim fabric ~index:server_index in
  let client = make_port profile sim fabric ~index:client_index in
  Engine.Fiber.spawn sim ~name:(profile.name ^ "-client") (fun () ->
      let payload = Bytes.make (max 1 msg_size) 'k' in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          client.send ~dst:server.mac payload 0 (Bytes.length payload);
          let got = ref false in
          let rec await () =
            if not !got then begin
              if not (client.drain (fun ~src:_ _ _ _ -> got := true)) then
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
      (* One request buffer, restamped per send: a send gathers it at
         once. *)
      let msg = Bytes.make (8 + max 0 (msg_size - 8)) 'l' in
      let handler ~src:_ b off len =
        if len >= 8 then begin
          let ts = Net.Wire.get_u48 b off in
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
            Net.Wire.set_u48 msg 0 (now - start);
            Net.Wire.set_u16 msg 6 0;
            client.send ~dst:server.mac msg 0 (Bytes.length msg);
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
