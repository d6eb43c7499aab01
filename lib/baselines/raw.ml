let charge sim ns = if ns > 0 then Engine.Fiber.sleep sim ns

(* ---------- testpmd: raw DPDK L2 forwarding ---------- *)

let eth_frame nic eth ~dst ~src payload =
  let frame = Memory.Heap.alloc (Net.Dpdk_sim.frames nic) (Net.Eth.size + String.length payload) in
  let b = Memory.Heap.data frame in
  eth.Net.Eth.dst <- dst;
  eth.Net.Eth.src <- src;
  eth.Net.Eth.ethertype <- 0x88B5 (* local exp. *);
  let off = Net.Eth.write b (Memory.Heap.offset frame) eth in
  Bytes.blit_string payload 0 b off (String.length payload);
  frame

(* testpmd's forwarding: swap the MACs in the received frame itself,
   which then goes back out. *)
let swap_macs frame =
  let b = Memory.Heap.data frame and base = Memory.Heap.offset frame in
  let dst = Net.Wire.get_u48 b base and src = Net.Wire.get_u48 b (base + 6) in
  Net.Wire.set_u48 b base src;
  Net.Wire.set_u48 b (base + 6) dst

let testpmd_echo sim fabric ~server_index ~client_index ~msg_size ~count ~record ~on_done =
  let cost = Net.Fabric.cost fabric in
  let server_nic =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index server_index)
      ~ip:(Net.Addr.Ip.of_index server_index) ()
  in
  let client_nic =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index client_index)
      ~ip:(Net.Addr.Ip.of_index client_index) ()
  in
  Engine.Fiber.spawn sim ~name:"testpmd-server" (fun () ->
      let rec forward n =
        if n > 0 then begin
          let frame = Net.Dpdk_sim.rx server_nic in
          charge sim (cost.Net.Cost.dpdk_rx_ns + cost.Net.Cost.dpdk_tx_ns);
          swap_macs frame;
          Net.Dpdk_sim.tx server_nic frame;
          forward (n - 1)
        end
      in
      let rec loop () =
        (match Net.Dpdk_sim.rx_take server_nic ~max:32 with
        | 0 ->
            ignore
              (Engine.Condvar.wait_many sim [ Net.Dpdk_sim.rx_signal server_nic ] ~timeout:max_int)
        | n -> forward n);
        loop ()
      in
      loop ());
  Engine.Fiber.spawn sim ~name:"testpmd-client" (fun () ->
      let payload = String.make (max 1 msg_size) 'x' in
      let eth = Net.Eth.create () in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          charge sim cost.Net.Cost.dpdk_tx_ns;
          Net.Dpdk_sim.tx client_nic
            (eth_frame client_nic eth ~dst:(Net.Dpdk_sim.mac server_nic)
               ~src:(Net.Dpdk_sim.mac client_nic) payload);
          let rec await () =
            match Net.Dpdk_sim.rx_take client_nic ~max:1 with
            | 0 ->
                ignore
                  (Engine.Condvar.wait_many sim [ Net.Dpdk_sim.rx_signal client_nic ]
                     ~timeout:max_int);
                await ()
            | _ ->
                Memory.Heap.free (Net.Dpdk_sim.rx client_nic);
                charge sim cost.Net.Cost.dpdk_rx_ns
          in
          await ();
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go count;
      on_done ())

(* ---------- perftest: raw RDMA ping-pong ---------- *)

let perftest_pingpong sim fabric ~server_index ~client_index ~msg_size ~count ~record ~on_done
    =
  let cost = Net.Fabric.cost fabric in
  let server =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index server_index)
      ~ip:(Net.Addr.Ip.of_index server_index) ()
  in
  let client =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index client_index)
      ~ip:(Net.Addr.Ip.of_index client_index) ()
  in
  for _ = 1 to 128 do
    Net.Rdma_sim.post_recv server;
    Net.Rdma_sim.post_recv client
  done;
  (* Every completion is charged one CQ poll. *)
  let consumer ~recv =
    let polled () = charge sim cost.Net.Cost.rdma_poll_ns in
    {
      Net.Rdma_sim.batch = ignore;
      send_done = (fun _ -> polled ());
      recv =
        (fun ~src_mac ~imm:_ frame ->
          polled ();
          recv src_mac frame);
      write_done = (fun ~wr_id:_ ~ok:_ -> polled ());
    }
  in
  let serve =
    consumer ~recv:(fun src_mac frame ->
        Net.Rdma_sim.post_recv server;
        charge sim cost.Net.Cost.rdma_post_ns;
        (* Echo straight from the arrived frame. *)
        Net.Rdma_sim.post_send server ~dst:src_mac ~wr_id:0 ~imm:0 (Memory.Heap.data frame)
          (Memory.Heap.offset frame) (Memory.Heap.length frame);
        Memory.Heap.free frame)
  in
  Engine.Fiber.spawn sim ~name:"perftest-server" (fun () ->
      let rec loop () =
        if Net.Rdma_sim.drain_cq server ~max:8 serve = 0 then
          ignore (Engine.Condvar.wait_many sim [ Net.Rdma_sim.cq_signal server ] ~timeout:max_int);
        loop ()
      in
      loop ());
  let got_reply = ref false in
  let reply =
    consumer ~recv:(fun _ frame ->
        Net.Rdma_sim.post_recv client;
        Memory.Heap.free frame;
        got_reply := true)
  in
  Engine.Fiber.spawn sim ~name:"perftest-client" (fun () ->
      let payload = Bytes.make (max 1 msg_size) 'p' in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          charge sim cost.Net.Cost.rdma_post_ns;
          Net.Rdma_sim.post_send client ~dst:(Net.Rdma_sim.mac server) ~wr_id:1 ~imm:0 payload 0
            (Bytes.length payload);
          got_reply := false;
          let rec await () =
            if not !got_reply then begin
              if Net.Rdma_sim.drain_cq client ~max:8 reply = 0 then
                ignore
                  (Engine.Condvar.wait_many sim [ Net.Rdma_sim.cq_signal client ] ~timeout:max_int);
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
