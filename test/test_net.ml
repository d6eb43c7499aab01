(* Tests for wire formats, the fabric, and the simulated devices. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- wire formats --- *)

let test_u48_roundtrip () =
  let b = Bytes.create 6 in
  let v = 0x0200_1234_5678 in
  Net.Wire.set_u48 b 0 v;
  check_int "u48" v (Net.Wire.get_u48 b 0)

let test_checksum_rfc1071 () =
  (* Worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 example" (lnot 0xddf2 land 0xffff) (Net.Wire.checksum ~init:0 b 0 8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402 -> complement. *)
  check_int "odd tail padded" (lnot 0x0402 land 0xffff) (Net.Wire.checksum ~init:0 b 0 3)

let test_eth_roundtrip () =
  let b = Bytes.create 64 in
  let h = Net.Eth.create () in
  h.Net.Eth.dst <- Net.Addr.Mac.of_index 2;
  h.Net.Eth.src <- Net.Addr.Mac.of_index 1;
  h.Net.Eth.ethertype <- Net.Eth.ethertype_ipv4;
  let off = Net.Eth.write b 0 h in
  check_int "header size" Net.Eth.size off;
  let h' = Net.Eth.create () in
  let off' = Net.Eth.read b 0 ~lim:(Bytes.length b) h' in
  check_bool "roundtrip" true (h = h');
  check_int "payload offset" Net.Eth.size off'

let test_arp_roundtrip () =
  let b = Bytes.create 64 in
  let p =
    {
      Net.Arp.operation = Net.Arp.Request;
      sender_mac = Net.Addr.Mac.of_index 1;
      sender_ip = Net.Addr.Ip.of_index 1;
      target_mac = 0;
      target_ip = Net.Addr.Ip.of_index 2;
    }
  in
  let _ = Net.Arp.write b 0 p in
  let p', _ = Net.Arp.read b 0 ~lim:(Bytes.length b) in
  check_bool "roundtrip" true (p = p')

let ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 header roundtrip" ~count:200
    QCheck.(quad (int_bound 0xffff) (int_range 1 255) (int_bound 0xff) (int_bound 0xffffffff))
    (fun (identification, ttl, proto_raw, src) ->
      let h = Net.Ipv4.create () in
      Net.Ipv4.set h ~total_length:(20 + 100) ~identification ~protocol:proto_raw ~src
        ~dst:(Net.Addr.Ip.of_index 7) ~more_fragments:false ~fragment_offset:0;
      h.Net.Ipv4.ttl <- ttl;
      let b = Bytes.create 200 in
      let _ = Net.Ipv4.write b 0 h in
      let h' = Net.Ipv4.create () in
      let off = Net.Ipv4.read b 0 ~lim:(Bytes.length b) h' in
      h = h' && off = Net.Ipv4.size)

let test_ipv4_checksum_detects_corruption () =
  let h = Net.Ipv4.create () in
  Net.Ipv4.set h ~total_length:40 ~identification:9 ~protocol:Net.Ipv4.protocol_udp ~src:1
    ~dst:2 ~more_fragments:false ~fragment_offset:0;
  let b = Bytes.create 64 in
  let _ = Net.Ipv4.write b 0 h in
  Net.Wire.set_u8 b 8 65 (* flip the ttl *);
  Alcotest.check_raises "corruption detected" (Net.Wire.Malformed "ipv4: bad checksum")
    (fun () -> ignore (Net.Ipv4.read b 0 ~lim:(Bytes.length b) h))

let udp_roundtrip =
  QCheck.Test.make ~name:"udp header+payload roundtrip" ~count:200
    QCheck.(triple (int_bound 0xffff) (int_bound 0xffff) (string_of_size (Gen.int_range 0 512)))
    (fun (src_port, dst_port, payload) ->
      let src_ip = Net.Addr.Ip.of_index 1 and dst_ip = Net.Addr.Ip.of_index 2 in
      let len = Net.Udp_wire.size + String.length payload in
      let b = Bytes.create (len + 8) in
      Bytes.blit_string payload 0 b Net.Udp_wire.size (String.length payload);
      let h = { Net.Udp_wire.src_port; dst_port; length = len } in
      let off = Net.Udp_wire.write b 0 h ~src_ip ~dst_ip in
      let h' = Net.Udp_wire.create () in
      let off' = Net.Udp_wire.read b 0 ~lim:(Bytes.length b) h' ~src_ip ~dst_ip in
      h = h' && off = off'
      && Bytes.sub_string b off' (h'.Net.Udp_wire.length - Net.Udp_wire.size) = payload)

let test_udp_checksum_detects_corruption () =
  let src_ip = 1 and dst_ip = 2 in
  let payload = "hello" in
  let len = Net.Udp_wire.size + String.length payload in
  let b = Bytes.create len in
  Bytes.blit_string payload 0 b Net.Udp_wire.size (String.length payload);
  let _ = Net.Udp_wire.write b 0 { Net.Udp_wire.src_port = 1; dst_port = 2; length = len } ~src_ip ~dst_ip in
  Bytes.set b (len - 1) 'x';
  Alcotest.check_raises "bad checksum" (Net.Wire.Malformed "udp: bad checksum") (fun () ->
      ignore (Net.Udp_wire.read b 0 ~lim:len (Net.Udp_wire.create ()) ~src_ip ~dst_ip))

let tcp_gen =
  QCheck.Gen.(
    let* src_port = int_bound 0xffff in
    let* dst_port = int_bound 0xffff in
    let* seq = int_bound 0xffffffff in
    let* ack = int_bound 0xffffffff in
    let* syn = bool in
    let* ack_flag = bool in
    let* fin = bool in
    let* psh = bool in
    let* window = int_bound 0xffff in
    let* mss = opt (int_bound 0xffff) in
    let* wscale = opt (int_bound 14) in
    let* ts = opt (pair (int_bound 0xffffffff) (int_bound 0xffffffff)) in
    let* sack_permitted = bool in
    let* sack_blocks =
      list_size (int_bound 3) (pair (int_bound 0xffffffff) (int_bound 0xffffffff))
    in
    (* Keep the header within the 60-byte limit: SACK blocks never ride
       with the SYN-only options (mirrors real segments). *)
    let mss = if sack_blocks = [] then mss else None in
    let wscale = if sack_blocks = [] then wscale else None in
    let sack_permitted = sack_permitted && sack_blocks = [] in
    let* payload = string_size (int_range 0 256) in
    let h = Net.Tcp_wire.create () in
    Net.Tcp_wire.set h ~src_port ~dst_port ~seq ~ack ~syn ~ack_flag ~fin ~rst:false ~psh ~window;
    h.Net.Tcp_wire.mss <- Option.value mss ~default:(-1);
    h.Net.Tcp_wire.window_scale <- Option.value wscale ~default:(-1);
    (match ts with
    | Some (tsval, tsecr) ->
        h.Net.Tcp_wire.has_ts <- true;
        h.Net.Tcp_wire.ts_val <- tsval;
        h.Net.Tcp_wire.ts_ecr <- tsecr
    | None -> ());
    h.Net.Tcp_wire.sack_permitted <- sack_permitted;
    List.iteri
      (fun i (left, right) ->
        h.Net.Tcp_wire.sack_edges.(2 * i) <- left;
        h.Net.Tcp_wire.sack_edges.((2 * i) + 1) <- right)
      sack_blocks;
    h.Net.Tcp_wire.sack_count <- List.length sack_blocks;
    return (h, payload))

let tcp_roundtrip =
  QCheck.Test.make ~name:"tcp header+options roundtrip" ~count:300
    (QCheck.make tcp_gen) (fun (h, payload) ->
      let src_ip = Net.Addr.Ip.of_index 3 and dst_ip = Net.Addr.Ip.of_index 4 in
      let hsize = Net.Tcp_wire.header_size h in
      let seg_len = hsize + String.length payload in
      let b = Bytes.create (seg_len + 16) in
      Bytes.blit_string payload 0 b hsize (String.length payload);
      let off = Net.Tcp_wire.write b 0 h ~payload_len:(String.length payload) ~src_ip ~dst_ip in
      let h' = Net.Tcp_wire.create () in
      let off' = Net.Tcp_wire.read b 0 ~lim:(Bytes.length b) h' ~seg_len ~src_ip ~dst_ip in
      h = h' && off = off' && Bytes.sub_string b off' (seg_len - off') = payload)

let test_tcp_checksum_detects_corruption () =
  let h = Net.Tcp_wire.create () in
  Net.Tcp_wire.set h ~src_port:80 ~dst_port:8080 ~seq:1 ~ack:2 ~syn:false ~ack_flag:true
    ~fin:false ~rst:false ~psh:true ~window:1000;
  let b = Bytes.create 64 in
  let _ = Net.Tcp_wire.write b 0 h ~payload_len:4 ~src_ip:1 ~dst_ip:2 in
  Net.Wire.set_u32 b 4 999 (* corrupt seq *);
  Alcotest.check_raises "bad checksum" (Net.Wire.Malformed "tcp: bad checksum") (fun () ->
      ignore (Net.Tcp_wire.read b 0 ~lim:64 h ~seg_len:24 ~src_ip:1 ~dst_ip:2))

(* --- fabric --- *)

let bare = Net.Cost.bare_metal

let eth_bytes ~dst ~src payload =
  let b = Bytes.create (Net.Eth.size + String.length payload) in
  let off = Net.Eth.write b 0 { Net.Eth.dst; src; ethertype = 0x0800 } in
  Bytes.blit_string payload 0 b off (String.length payload);
  Bytes.unsafe_to_string b

(* A frame in the fabric's frame heap, as a NIC would build it. *)
let eth_frame fabric ~dst ~src payload =
  Memory.Heap.alloc_of_string (Net.Fabric.frames fabric) (eth_bytes ~dst ~src payload)

let test_fabric_unicast () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let m1 = Net.Addr.Mac.of_index 1 and m2 = Net.Addr.Mac.of_index 2 in
  let got = ref [] in
  let p1 = Net.Fabric.attach fabric ~mac:m1 ~rx:(fun _ -> got := `P1 :: !got) in
  let _p2 = Net.Fabric.attach fabric ~mac:m2 ~rx:(fun _ -> got := `P2 :: !got) in
  Net.Fabric.send fabric p1 (eth_frame fabric ~dst:m2 ~src:m1 "hi");
  Engine.Sim.run sim;
  Alcotest.(check bool) "delivered to p2 only" true (!got = [ `P2 ]);
  check_int "stats" 1 (Net.Fabric.stats fabric).frames_delivered

let test_fabric_broadcast () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let got = ref [] in
  let mk i =
    Net.Fabric.attach fabric ~mac:(Net.Addr.Mac.of_index i) ~rx:(fun frame ->
        got := frame :: !got)
  in
  let p1 = mk 1 in
  let _ = mk 2 and _ = mk 3 in
  Net.Fabric.send fabric p1
    (eth_frame fabric ~dst:Net.Addr.Mac.broadcast ~src:(Net.Addr.Mac.of_index 1) "arp");
  Engine.Sim.run sim;
  check_int "everyone but sender" 2 (List.length !got);
  (* Each receiver owns its own copy. *)
  List.iter
    (fun frame ->
      Alcotest.(check string) "same bytes"
        (eth_bytes ~dst:Net.Addr.Mac.broadcast ~src:(Net.Addr.Mac.of_index 1) "arp")
        (Memory.Heap.to_string frame);
      Memory.Heap.free frame)
    !got;
  check_int "no frame left" 0 (Memory.Heap.live_objects (Net.Fabric.frames fabric))

let test_fabric_latency () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let m1 = Net.Addr.Mac.of_index 1 and m2 = Net.Addr.Mac.of_index 2 in
  let arrived = ref 0 in
  let p1 = Net.Fabric.attach fabric ~mac:m1 ~rx:(fun _ -> ()) in
  let _ = Net.Fabric.attach fabric ~mac:m2 ~rx:(fun _ -> arrived := Engine.Sim.now sim) in
  let frame = eth_frame fabric ~dst:m2 ~src:m1 (String.make 50 'x') in
  let len = Memory.Heap.length frame in
  Net.Fabric.send fabric p1 frame;
  Engine.Sim.run sim;
  let expect =
    (* Store-and-forward: serialization onto the sender's link and again
       onto the receiver's. *)
    (2 * Net.Cost.serialization_ns bare len)
    + bare.Net.Cost.propagation_ns + bare.Net.Cost.switch_ns
  in
  check_int "arrival time" expect !arrived

let test_fabric_serialization_queueing () =
  (* Two back-to-back frames: the second waits for the first to leave. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let m1 = Net.Addr.Mac.of_index 1 and m2 = Net.Addr.Mac.of_index 2 in
  let times = ref [] in
  let p1 = Net.Fabric.attach fabric ~mac:m1 ~rx:(fun _ -> ()) in
  let _ = Net.Fabric.attach fabric ~mac:m2 ~rx:(fun _ -> times := Engine.Sim.now sim :: !times) in
  let frame () = eth_frame fabric ~dst:m2 ~src:m1 (String.make 1000 'x') in
  Net.Fabric.send fabric p1 (frame ());
  Net.Fabric.send fabric p1 (frame ());
  Engine.Sim.run sim;
  match List.rev !times with
  | [ t1; t2 ] ->
      check_int "gap is one serialization"
        (Net.Cost.serialization_ns bare (Net.Eth.size + 1000))
        (t2 - t1)
  | _ -> Alcotest.fail "expected two arrivals"

let test_fabric_loss () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~loss:1.0 () in
  let m1 = Net.Addr.Mac.of_index 1 and m2 = Net.Addr.Mac.of_index 2 in
  let got = ref 0 in
  let p1 = Net.Fabric.attach fabric ~mac:m1 ~rx:(fun _ -> ()) in
  let _ = Net.Fabric.attach fabric ~mac:m2 ~rx:(fun _ -> incr got) in
  Net.Fabric.send fabric p1 (eth_frame fabric ~dst:m2 ~src:m1 "drop me");
  Net.Fabric.send fabric p1 ~lossless:true (eth_frame fabric ~dst:m2 ~src:m1 "keep me");
  Engine.Sim.run sim;
  check_int "lossless survives full loss" 1 !got;
  check_int "lossy dropped" 1 (Net.Fabric.stats fabric).frames_dropped

(* --- dpdk device --- *)

let test_dpdk_tx_rx () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let nic1 =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1) ()
  in
  let nic2 =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index 2) ~ip:(Net.Addr.Ip.of_index 2) ()
  in
  let bytes = eth_bytes ~dst:(Net.Dpdk_sim.mac nic2) ~src:(Net.Dpdk_sim.mac nic1) "ping" in
  Net.Dpdk_sim.tx nic1 (Memory.Heap.alloc_of_string (Net.Dpdk_sim.frames nic1) bytes);
  Engine.Sim.run sim;
  check_int "one frame in ring" 1 (Net.Dpdk_sim.rx_pending nic2);
  match Net.Dpdk_sim.rx_take nic2 ~max:8 with
  | 1 -> Alcotest.(check string) "frame intact" bytes (Memory.Heap.to_string (Net.Dpdk_sim.rx nic2))
  | _ -> Alcotest.fail "expected one frame"

let test_dpdk_ring_overflow () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let nic1 =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1) ()
  in
  let nic2 =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index 2) ~ip:(Net.Addr.Ip.of_index 2)
      ~rx_ring_size:4 ()
  in
  for _ = 1 to 10 do
    Net.Dpdk_sim.tx nic1 (eth_frame fabric ~dst:(Net.Dpdk_sim.mac nic2) ~src:(Net.Dpdk_sim.mac nic1) "x")
  done;
  Engine.Sim.run sim;
  check_int "ring capped" 4 (Net.Dpdk_sim.rx_pending nic2);
  check_int "rest dropped" 6 (Net.Dpdk_sim.rx_dropped nic2);
  check_int "dropped frames freed" 4 (Memory.Heap.live_objects (Net.Fabric.frames fabric))

(* --- rdma device --- *)

let rdma_pair () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let r1 =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1) ()
  in
  let r2 =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index 2) ~ip:(Net.Addr.Ip.of_index 2) ()
  in
  (sim, r1, r2)

let post_string r ~dst ~wr_id ~imm s =
  Net.Rdma_sim.post_send r ~dst ~wr_id ~imm (Bytes.of_string s) 0 (String.length s)

(* A completion as the tests below see it, collected by [drain]. *)
type cqe =
  | Send_done of int
  | Recv of { src_mac : Net.Addr.Mac.t; imm : int; frame : Memory.Heap.buffer }
  | Write_done of { wr_id : int; ok : bool }

let drain r ~max =
  let got = ref [] and taken = ref 0 in
  let queued = Net.Rdma_sim.cq_pending r in
  let n =
    Net.Rdma_sim.drain_cq r ~max
      {
        Net.Rdma_sim.batch =
          (fun n ->
            taken := n;
            check_int "the batch leaves the queue when taken" (queued - n)
              (Net.Rdma_sim.cq_pending r));
        send_done = (fun wr_id -> got := Send_done wr_id :: !got);
        recv = (fun ~src_mac ~imm frame -> got := Recv { src_mac; imm; frame } :: !got);
        write_done = (fun ~wr_id ~ok -> got := Write_done { wr_id; ok } :: !got);
      }
  in
  check_int "drain returns the entries it handed over" (List.length !got) n;
  check_int "and took them as one batch" n !taken;
  List.rev !got

let test_rdma_send_recv () =
  let sim, r1, r2 = rdma_pair () in
  Net.Rdma_sim.post_recv r2;
  (* Only the posted range is gathered, and it may be reused at once. *)
  let src = Bytes.of_string "<<payload>>" in
  Net.Rdma_sim.post_send r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:7 ~imm:42 src 2 7;
  Bytes.fill src 0 (Bytes.length src) '!';
  Engine.Sim.run sim;
  (match drain r1 ~max:4 with
  | [ Send_done wr_id ] -> check_int "send completion" 7 wr_id
  | _ -> Alcotest.fail "expected send completion");
  match drain r2 ~max:4 with
  | [ Recv { imm; frame; src_mac } ] ->
      check_int "imm" 42 imm;
      Alcotest.(check string) "payload" "payload" (Memory.Heap.to_string frame);
      check_int "src" (Net.Rdma_sim.mac r1) src_mac;
      Memory.Heap.free frame
  | _ -> Alcotest.fail "expected recv completion"

let test_rdma_rnr_drop () =
  let sim, r1, r2 = rdma_pair () in
  post_string r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:1 ~imm:0 "no buffer posted";
  Engine.Sim.run sim;
  check_int "rnr drop" 1 (Net.Rdma_sim.rnr_drops r2);
  check_int "no recv completion" 0 (Net.Rdma_sim.cq_pending r2)

(* Delivery is ordered, and a drain hands over at most [max] entries,
   oldest first, leaving the rest queued. *)
let test_rdma_ordering () =
  let sim, r1, r2 = rdma_pair () in
  for _ = 1 to 10 do Net.Rdma_sim.post_recv r2 done;
  for i = 1 to 10 do
    post_string r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:i ~imm:i (string_of_int i)
  done;
  Engine.Sim.run sim;
  let imms max =
    List.filter_map
      (function
        | Recv { imm; frame; _ } ->
            Memory.Heap.free frame;
            Some imm
        | Send_done _ | Write_done _ -> None)
      (drain r2 ~max)
  in
  let first = imms 4 in
  check_int "the rest stays queued" 6 (Net.Rdma_sim.cq_pending r2);
  Alcotest.(check (list int)) "ordered delivery" (List.init 10 (fun i -> i + 1))
    (first @ imms 100)

let test_rdma_one_sided_write () =
  let sim, r1, r2 = rdma_pair () in
  let region = Bytes.make 16 '.' in
  let rkey = Net.Rdma_sim.register_region r2 region in
  Net.Rdma_sim.post_write r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:3 ~rkey ~offset:4
    (Bytes.of_string "..ABCD") 2 4;
  Engine.Sim.run sim;
  Alcotest.(check string) "remote memory updated" "....ABCD........" (Bytes.to_string region);
  (match drain r1 ~max:4 with
  | [ Write_done { wr_id; ok } ] ->
      check_int "wr_id" 3 wr_id;
      check_bool "ok" true ok
  | _ -> Alcotest.fail "expected write completion");
  check_int "target cq silent" 0 (Net.Rdma_sim.cq_pending r2)

let test_rdma_write_bad_rkey () =
  let sim, r1, r2 = rdma_pair () in
  Net.Rdma_sim.post_write r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:9 ~rkey:999 ~offset:0
    (Bytes.of_string "x") 0 1;
  Engine.Sim.run sim;
  match drain r1 ~max:4 with
  | [ Write_done { ok; _ } ] -> check_bool "failed" false ok
  | _ -> Alcotest.fail "expected write completion"

(* A 700 B message's whole trip through the RNICs — the sender
   gathering it from the caller's bytes, the device and fabric hops, the
   receive completion and both drains — allocates no block the size of
   the payload: the frame moves by reference from post to drain, and the
   completion queues are rings of operands drained into consumers built
   once. What it does allocate per message, in words:
     the frame's buffer record (Heap.alloc)             5
   = 5. *)
let test_rdma_send_words () =
  let sim, r1, r2 = rdma_pair () in
  let msg = Bytes.make 700 'r' in
  let recvs = ref 0 and sends = ref 0 and others = ref 0 in
  let consumer =
    {
      Net.Rdma_sim.batch = ignore;
      send_done = (fun _ -> incr sends);
      recv =
        (fun ~src_mac:_ ~imm:_ frame ->
          if Memory.Heap.length frame = 700 then incr recvs else incr others;
          Memory.Heap.free frame);
      write_done = (fun ~wr_id:_ ~ok:_ -> incr others);
    }
  in
  let round () =
    Net.Rdma_sim.post_recv r2;
    Net.Rdma_sim.post_send r1 ~dst:(Net.Rdma_sim.mac r2) ~wr_id:1 ~imm:7 msg 0 700;
    Engine.Sim.run sim;
    let from_r2 = Net.Rdma_sim.drain_cq r2 ~max:4 consumer in
    let from_r1 = Net.Rdma_sim.drain_cq r1 ~max:4 consumer in
    if from_r2 <> 1 || from_r1 <> 1 then Alcotest.fail "expected one completion per CQ"
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    round ()
  done;
  let words = (Gc.minor_words () -. before) /. 10. in
  check_int "one recv completion per message" 11 !recvs;
  check_int "one send completion per message" 11 !sends;
  check_int "no other completion" 0 !others;
  Alcotest.(check (float 0.)) "minor words per message" 5. words

(* --- ssd device --- *)

let test_ssd_write_read () =
  let sim = Engine.Sim.create () in
  let ssd = Net.Ssd_sim.create sim ~cost:bare ~capacity:4096 in
  Net.Ssd_sim.submit_write ssd ~id:1 ~off:100 "persist me";
  Engine.Sim.run sim;
  (match Net.Ssd_sim.poll_cq ssd ~max:4 with
  | [ { Net.Ssd_sim.id = 1; ok = true; _ } ] -> ()
  | _ -> Alcotest.fail "expected write completion");
  Net.Ssd_sim.submit_read ssd ~id:2 ~off:100 ~len:10;
  Engine.Sim.run sim;
  match Net.Ssd_sim.poll_cq ssd ~max:4 with
  | [ { Net.Ssd_sim.id = 2; ok = true; data } ] ->
      Alcotest.(check string) "read back" "persist me" data
  | _ -> Alcotest.fail "expected read completion"

let test_ssd_latency () =
  let sim = Engine.Sim.create () in
  let ssd = Net.Ssd_sim.create sim ~cost:bare ~capacity:4096 in
  Net.Ssd_sim.submit_write ssd ~id:1 ~off:0 (String.make 100 'x');
  Engine.Sim.run sim;
  check_int "optane-class write latency" (Net.Cost.ssd_op_ns bare ~write:true 100)
    (Engine.Sim.now sim)

let test_ssd_out_of_bounds () =
  let sim = Engine.Sim.create () in
  let ssd = Net.Ssd_sim.create sim ~cost:bare ~capacity:64 in
  Net.Ssd_sim.submit_write ssd ~id:1 ~off:60 "too long for the device";
  Engine.Sim.run sim;
  match Net.Ssd_sim.poll_cq ssd ~max:4 with
  | [ { Net.Ssd_sim.ok = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected failed completion"

let test_ssd_serializes_commands () =
  let sim = Engine.Sim.create () in
  let ssd = Net.Ssd_sim.create sim ~cost:bare ~capacity:4096 in
  Net.Ssd_sim.submit_write ssd ~id:1 ~off:0 (String.make 64 'a');
  Net.Ssd_sim.submit_write ssd ~id:2 ~off:64 (String.make 64 'b');
  Engine.Sim.run sim;
  let expect = 2 * Net.Cost.ssd_op_ns bare ~write:true 64 in
  check_int "second waits for first" expect (Engine.Sim.now sim)

(* --- packet hops --- *)

(* Incast: two or three senders put frames of random sizes on the wire
   at random instants, all toward one port. The port's downlink is one
   FIFO hop, so deliveries must come out in the order, and at the
   instants, the serialization model gives: each frame leaves its
   sender's uplink after the frames before it, crosses the switch, then
   queues behind whatever the receiver's link is still carrying. The
   model walks the sends in event order: by instant, ties in scheduling
   order. *)
let fabric_incast_matches_model =
  QCheck.Test.make ~name:"fabric incast delivers in the serialization model's order" ~count:100
    QCheck.(
      pair (int_range 2 3)
        (list_of_size (Gen.int_range 1 40)
           (triple (int_bound 2) (int_bound 20_000) (int_range 1 1500))))
    (fun (senders, sends) ->
      (* Shrinking may step outside the generator's ranges. *)
      let senders = max 2 senders in
      let sim = Engine.Sim.create () in
      let fabric = Net.Fabric.create sim ~cost:bare () in
      let sink = Net.Addr.Mac.of_index 9 in
      let got = ref [] in
      let _ =
        Net.Fabric.attach fabric ~mac:sink ~rx:(fun frame ->
            got :=
              ( Engine.Sim.now sim,
                Net.Wire.get_u16 (Memory.Heap.data frame) (Memory.Heap.offset frame + 14) )
              :: !got;
            Memory.Heap.free frame)
      in
      let ports =
        Array.init senders (fun i ->
            Net.Fabric.attach fabric ~mac:(Net.Addr.Mac.of_index i) ~rx:(fun _ -> ()))
      in
      let sends =
        List.mapi (fun id (s, at, len) -> (id, abs s mod senders, abs at, max 2 len)) sends
      in
      List.iter
        (fun (id, s, at, len) ->
          let payload = Bytes.make len 'x' in
          Net.Wire.set_u16 payload 0 id;
          let frame =
            eth_frame fabric ~dst:sink ~src:(Net.Addr.Mac.of_index s) (Bytes.to_string payload)
          in
          Engine.Sim.at sim ~time:at (fun _ -> Net.Fabric.send fabric ports.(s) frame) 0)
        sends;
      Engine.Sim.run sim;
      let ser len = Net.Cost.serialization_ns bare (Net.Eth.size + len) in
      let tx_free = Array.make senders 0 and rx_free = ref 0 in
      let expected =
        List.map
          (fun (id, s, at, len) ->
            let depart = max at tx_free.(s) + ser len in
            tx_free.(s) <- depart;
            let at_switch = depart + bare.Net.Cost.propagation_ns + bare.Net.Cost.switch_ns in
            let arrival = max at_switch !rx_free + ser len in
            rx_free := arrival;
            (arrival, id))
          (List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) sends)
      in
      List.rev !got = expected)

(* A frame's whole trip — NIC tx pipeline, fabric uplink and downlink,
   NIC rx pipeline, rx ring, and a poll taking it — allocates nothing
   once the rings have grown: every stage is a ring plus one handler
   built when the device attached, and the frame moves by reference.
   The same [burst] frames make every round trip. *)
let test_frame_hop_words () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let nic i =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index i) ~ip:(Net.Addr.Ip.of_index i) ()
  in
  let nic1 = nic 1 and nic2 = nic 2 in
  let burst = 64 in
  let frames =
    Array.init burst (fun _ ->
        eth_frame fabric ~dst:(Net.Dpdk_sim.mac nic2) ~src:(Net.Dpdk_sim.mac nic1) "ping")
  in
  let round () =
    for i = 0 to burst - 1 do
      Net.Dpdk_sim.tx nic1 frames.(i)
    done;
    Engine.Sim.run sim;
    let n = Net.Dpdk_sim.rx_take nic2 ~max:burst in
    for i = 0 to n - 1 do
      frames.(i) <- Net.Dpdk_sim.rx nic2
    done;
    n
  in
  check_int "warm-up burst delivered" burst (round ());
  let before = Gc.minor_words () in
  let delivered = ref 0 in
  for _ = 1 to 10 do
    delivered := !delivered + round ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "every frame delivered" (10 * burst) !delivered;
  Alcotest.(check (float 0.)) "minor words per frame" 0. (words /. float_of_int !delivered)

(* --- frame bounds --- *)

(* Frames sit side by side in one heap store, so every reader must stop
   at its frame's end, not at the store's. Each case below hands a
   stack a frame whose bytes go on, validly, past its end: into the
   rest of its slot or into the slot after it. The stack must drop it,
   while the same bytes as one whole frame get an answer. *)

let local_ip = Net.Addr.Ip.of_index 1 and peer_ip = Net.Addr.Ip.of_index 2

(* Ethernet and IPv4 from the peer to the local host, then [l4]. The
   IPv4 total length covers [l4] unless [ip_len] says otherwise. *)
let ipv4_bytes ?ip_len ~protocol l4 =
  let b = Bytes.create (Net.Eth.size + Net.Ipv4.size + Bytes.length l4) in
  let off =
    Net.Eth.write b 0
      {
        Net.Eth.dst = Net.Addr.Mac.of_index 1;
        src = Net.Addr.Mac.of_index 2;
        ethertype = Net.Eth.ethertype_ipv4;
      }
  in
  let ip = Net.Ipv4.create () in
  Net.Ipv4.set ip
    ~total_length:(Option.value ip_len ~default:(Net.Ipv4.size + Bytes.length l4))
    ~identification:1 ~protocol ~src:peer_ip ~dst:local_ip ~more_fragments:false
    ~fragment_offset:0;
  let off = Net.Ipv4.write b off ip in
  Bytes.blit l4 0 b off (Bytes.length l4);
  Bytes.unsafe_to_string b

(* A checksummed TCP segment; [options] adds the SYN options (a
   40-byte header). *)
let tcp_bytes ~dst_port ~syn ~options payload =
  let h = Net.Tcp_wire.create () in
  Net.Tcp_wire.set h ~src_port:4000 ~dst_port ~seq:1000 ~ack:0 ~syn ~ack_flag:false ~fin:false
    ~rst:false ~psh:(not syn) ~window:0xffff;
  if options then begin
    h.Net.Tcp_wire.mss <- 1460;
    h.Net.Tcp_wire.window_scale <- 7;
    h.Net.Tcp_wire.sack_permitted <- true;
    h.Net.Tcp_wire.has_ts <- true;
    h.Net.Tcp_wire.ts_val <- 1
  end;
  let hsize = Net.Tcp_wire.header_size h in
  let b = Bytes.create (hsize + String.length payload) in
  Bytes.blit_string payload 0 b hsize (String.length payload);
  ignore
    (Net.Tcp_wire.write b 0 h ~payload_len:(String.length payload) ~src_ip:peer_ip
       ~dst_ip:local_ip);
  b

let udp_bytes payload =
  let len = Net.Udp_wire.size + String.length payload in
  let b = Bytes.create len in
  Bytes.blit_string payload 0 b Net.Udp_wire.size (String.length payload);
  ignore
    (Net.Udp_wire.write b 0 { Net.Udp_wire.src_port = 4000; dst_port = 53; length = len }
       ~src_ip:peer_ip ~dst_ip:local_ip);
  b

(* Recompute a truncated transport's TCP checksum over what is left, so
   only a bound can reject it. *)
let tcp_checksum_over b len =
  Net.Wire.set_u16 b 16 0;
  let init =
    Net.Wire.pseudo_sum ~src:peer_ip ~dst:local_ip ~proto:Net.Ipv4.protocol_tcp ~len
  in
  Net.Wire.set_u16 b 16 (Net.Wire.checksum ~init b 0 len)

(* A 64-byte frame filling its slot, holding [s]'s first 64 bytes, with
   the rest of [s] at the start of the slot after it ([next]). *)
let straddle frames ~next:next_slots s =
  let next = Memory.Heap.alloc frames 64 in
  next_slots := next :: !next_slots;
  let frame = Memory.Heap.alloc frames 64 in
  check_int "frame fills its slot" 64 (Memory.Heap.capacity frame);
  check_int "the next slot follows" (Memory.Heap.offset frame + 64) (Memory.Heap.offset next);
  Memory.Heap.blit_string (String.sub s 0 64) frame;
  Memory.Heap.blit_string (String.sub s 64 (String.length s - 64)) next;
  frame

let test_frame_bounds () =
  let frames = Memory.Heap.create ~headroom:0 ~mode:Memory.Heap.Pool_backed () in
  let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let replies = ref 0 in
  let iface =
    Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:local_ip
      ~clock:(fun () -> 0)
      ~frames
      ~tx_frame:(fun f ->
        incr replies;
        Memory.Heap.free f)
      ()
  in
  let stack =
    Tcp.Stack.create ~iface ~heap ~prng:(Engine.Prng.create 1L) ~events:(fun _ -> ()) ()
  in
  let _listener = Tcp.Stack.tcp_listen stack ~port:80 in
  let sock = Tcp.Stack.udp_bind stack ~port:53 in
  let input frame =
    let before = !replies in
    Tcp.Stack.input stack frame;
    !replies - before
  in
  let whole s = input (Memory.Heap.alloc_of_string frames s) in
  let next_slots = ref [] in
  let straddle s = straddle frames ~next:next_slots s in
  (* IPv4 total length past the frame: a 40-byte data segment to a port
     with no listener, so a whole one draws a reset. *)
  let data =
    ipv4_bytes ~protocol:Net.Ipv4.protocol_tcp
      (tcp_bytes ~dst_port:81 ~syn:false ~options:false (String.make 40 'd'))
  in
  check_int "whole data segment: reset" 1 (whole data);
  check_int "total length past the frame: dropped" 0 (input (straddle data));
  (* TCP data offset past the frame: a SYN whose options lie beyond a
     consistent IPv4 total length. *)
  let syn = tcp_bytes ~dst_port:80 ~syn:true ~options:true "" in
  check_int "whole SYN: SYN-ACK" 1
    (whole (ipv4_bytes ~protocol:Net.Ipv4.protocol_tcp syn));
  let cut = Bytes.sub syn 0 30 in
  tcp_checksum_over cut 30;
  let short_syn = ipv4_bytes ~protocol:Net.Ipv4.protocol_tcp cut ^ Bytes.sub_string syn 30 10 in
  check_int "data offset past the frame: dropped" 0 (input (straddle short_syn));
  check_int "no connection from it" 1 (Tcp.Stack.conn_stats stack).Tcp.Stack.ever_opened;
  (* UDP length past the frame: the datagram's first 30 bytes in the
     frame, under a consistent IPv4 total length. *)
  let dgram = udp_bytes (String.make 60 'u') in
  ignore (whole (ipv4_bytes ~protocol:Net.Ipv4.protocol_udp dgram) : int);
  check_int "whole datagram: delivered" 1 (Tcp.Stack.udp_pending sock);
  let short_dgram =
    ipv4_bytes ~protocol:Net.Ipv4.protocol_udp (Bytes.sub dgram 0 30)
    ^ Bytes.sub_string dgram 30 38
  in
  ignore (input (straddle short_dgram) : int);
  check_int "udp length past the frame: dropped" 1 (Tcp.Stack.udp_pending sock);
  (* A short Ethernet frame: a whole segment in the slot, a 10-byte
     frame around its start. *)
  let runt = Memory.Heap.alloc_of_string frames data in
  Memory.Heap.set_length runt 10;
  check_int "short ethernet frame: dropped" 0 (input runt);
  List.iter Memory.Heap.free !next_slots;
  check_int "every frame freed" 0 (Memory.Heap.live_objects frames)

(* Fragment eviction at one clock tick, twice in one process. Every
   partial datagram is born at tick 0, so the table's victim is decided
   by its tie-break alone; with OCAMLRUNPARAM=R (as `dune runtest` runs)
   each interface's table hashes with its own seed, so a victim chosen
   in hash order changes which datagrams complete. *)
let test_fragment_eviction_same_survivors () =
  let survivors () =
    let frames = Memory.Heap.create ~headroom:0 ~mode:Memory.Heap.Pool_backed () in
    let iface =
      Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:local_ip
        ~clock:(fun () -> 0)
        ~frames ~tx_frame:Memory.Heap.free ()
    in
    let got = ref [] in
    let deliver (h : Net.Ipv4.t) _ _ = got := h.Net.Ipv4.identification :: !got in
    (* Half of a 16-byte datagram: the first (more fragments, offset 0)
       or the last (offset 8). *)
    let half ~id ~first =
      let b = Bytes.make (Net.Eth.size + Net.Ipv4.size + 8) 'f' in
      let off =
        Net.Eth.write b 0
          {
            Net.Eth.dst = Net.Addr.Mac.of_index 1;
            src = Net.Addr.Mac.of_index 2;
            ethertype = Net.Eth.ethertype_ipv4;
          }
      in
      let ip = Net.Ipv4.create () in
      Net.Ipv4.set ip ~total_length:(Net.Ipv4.size + 8) ~identification:id
        ~protocol:Net.Ipv4.protocol_udp ~src:peer_ip ~dst:local_ip ~more_fragments:first
        ~fragment_offset:(if first then 0 else 8);

      ignore (Net.Ipv4.write b off ip : int);
      let frame = Memory.Heap.alloc_of_string frames (Bytes.unsafe_to_string b) in
      Tcp.Iface.input iface frame ~deliver;
      Memory.Heap.free frame
    in
    for id = 1 to 256 do
      half ~id ~first:true
    done;
    for id = 1 to 256 do
      half ~id ~first:false
    done;
    List.rev !got
  in
  let first = survivors () in
  check_bool "some datagrams complete" true (first <> []);
  Alcotest.(check (list int)) "same datagrams complete" first (survivors ())

let suite =
  [
    Alcotest.test_case "u48 roundtrip" `Quick test_u48_roundtrip;
    Alcotest.test_case "checksum rfc1071 example" `Quick test_checksum_rfc1071;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "ethernet roundtrip" `Quick test_eth_roundtrip;
    Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
    QCheck_alcotest.to_alcotest ipv4_roundtrip;
    Alcotest.test_case "ipv4 checksum detects corruption" `Quick test_ipv4_checksum_detects_corruption;
    QCheck_alcotest.to_alcotest udp_roundtrip;
    Alcotest.test_case "udp checksum detects corruption" `Quick test_udp_checksum_detects_corruption;
    QCheck_alcotest.to_alcotest tcp_roundtrip;
    Alcotest.test_case "tcp checksum detects corruption" `Quick test_tcp_checksum_detects_corruption;
    Alcotest.test_case "fabric unicast" `Quick test_fabric_unicast;
    Alcotest.test_case "fabric broadcast" `Quick test_fabric_broadcast;
    Alcotest.test_case "fabric latency model" `Quick test_fabric_latency;
    Alcotest.test_case "fabric serialization queueing" `Quick test_fabric_serialization_queueing;
    Alcotest.test_case "fabric loss spares lossless class" `Quick test_fabric_loss;
    Alcotest.test_case "dpdk tx/rx" `Quick test_dpdk_tx_rx;
    Alcotest.test_case "dpdk rx ring overflow" `Quick test_dpdk_ring_overflow;
    Alcotest.test_case "rdma send/recv" `Quick test_rdma_send_recv;
    Alcotest.test_case "rdma rnr drop without recv buffer" `Quick test_rdma_rnr_drop;
    Alcotest.test_case "rdma ordered delivery" `Quick test_rdma_ordering;
    Alcotest.test_case "rdma one-sided write" `Quick test_rdma_one_sided_write;
    Alcotest.test_case "rdma write with bad rkey" `Quick test_rdma_write_bad_rkey;
    Alcotest.test_case "words: RoCE send to recv allocates no payload-sized block" `Quick
      test_rdma_send_words;
    Alcotest.test_case "ssd write/read" `Quick test_ssd_write_read;
    Alcotest.test_case "ssd latency model" `Quick test_ssd_latency;
    Alcotest.test_case "ssd bounds check" `Quick test_ssd_out_of_bounds;
    Alcotest.test_case "ssd serializes commands" `Quick test_ssd_serializes_commands;
    QCheck_alcotest.to_alcotest fabric_incast_matches_model;
    Alcotest.test_case "words: frame across tx, fabric and NIC rx" `Quick test_frame_hop_words;
    Alcotest.test_case "frame bounds: bytes past a frame's end are not read" `Quick
      test_frame_bounds;
    Alcotest.test_case "fragment eviction: same seed, same survivors" `Quick
      test_fragment_eviction_same_survivors;
  ]

