(* Demiscope: pcap capture, the packet decoder, deterministic flow ids,
   causal flow arrows in the Chrome export, time-series telemetry — and
   the observer-effect-free contract for all of them (capture/sampling
   on vs off: byte-identical trace digests and RTT distributions). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let bare = Net.Cost.bare_metal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- pcap writer/reader --- *)

let test_pcap_roundtrip () =
  let w = Net.Pcap.create_writer () in
  Net.Pcap.add w ~ts_ns:1_500 "hello";
  Net.Pcap.add w ~ts_ns:2_000_003_000 (String.make 2000 '\xab');
  check_int "frames written" 2 (Net.Pcap.frames_written w);
  match Net.Pcap.parse (Net.Pcap.contents w) with
  | Error why -> Alcotest.failf "parse failed: %s" why
  | Ok cap ->
      check_int "link type" Net.Pcap.linktype_ethernet cap.Net.Pcap.link_type;
      (match cap.Net.Pcap.packets with
      | [ a; b ] ->
          (* sec/usec resolution: ns are truncated to the enclosing µs. *)
          check_int "ts 1 (µs-truncated)" 1_000 a.Net.Pcap.ts_ns;
          check_string "frame 1" "hello" a.Net.Pcap.frame;
          check_int "orig_len 1" 5 a.Net.Pcap.orig_len;
          check_int "ts 2" 2_000_003_000 b.Net.Pcap.ts_ns;
          check_int "frame 2 length" 2000 (String.length b.Net.Pcap.frame)
      | l -> Alcotest.failf "expected 2 packets, got %d" (List.length l))

let test_pcap_header_bytes () =
  (* The first 24 bytes are the classic little-endian global header:
     anything else and Wireshark will not open the file. *)
  let w = Net.Pcap.create_writer () in
  let s = Net.Pcap.contents w in
  check_int "header size" 24 (String.length s);
  let b = Bytes.unsafe_of_string s in
  let u32 off =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)
  in
  let u16 off =
    Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  in
  check_int "magic" Net.Pcap.magic (u32 0);
  check_int "version major" 2 (u16 4);
  check_int "version minor" 4 (u16 6);
  check_int "snaplen" 65535 (u32 16);
  check_int "network" Net.Pcap.linktype_ethernet (u32 20)

let test_pcap_truncated_rejected () =
  let w = Net.Pcap.create_writer () in
  Net.Pcap.add w ~ts_ns:0 "abc";
  let s = Net.Pcap.contents w in
  check_bool "truncated record rejected" true
    (match Net.Pcap.parse (String.sub s 0 (String.length s - 1)) with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "bad magic rejected" true
    (match Net.Pcap.parse "not a pcap file at all......." with Error _ -> true | Ok _ -> false)

(* --- decoder --- *)

let test_decode_short_frame () =
  (match Net.Decode.parse "tiny" with
  | Net.Decode.Short 4 -> ()
  | _ -> Alcotest.fail "short frame not flagged");
  check_string "short line" "malformed frame (4 bytes)" (Net.Decode.line "tiny")

let udp_frame ~src_ip ~dst_ip ~src_port ~dst_port payload =
  (* Build a real frame with the repo's own wire codecs. *)
  let payload_len = String.length payload in
  let len = Net.Udp_wire.size + payload_len in
  let b = Bytes.create (Net.Eth.size + Net.Ipv4.size + len) in
  let off =
    Net.Eth.write b 0
      {
        Net.Eth.dst = Net.Addr.Mac.of_index 1;
        src = Net.Addr.Mac.of_index 2;
        ethertype = Net.Eth.ethertype_ipv4;
      }
  in
  let ip = Net.Ipv4.create () in
  Net.Ipv4.set ip ~total_length:(Net.Ipv4.size + len) ~protocol:Net.Ipv4.protocol_udp
    ~src:src_ip ~dst:dst_ip ~identification:0 ~more_fragments:false ~fragment_offset:0;
  let off = Net.Ipv4.write b off ip in
  Bytes.blit_string payload 0 b (off + Net.Udp_wire.size) payload_len;
  ignore
    (Net.Udp_wire.write b off
       { Net.Udp_wire.src_port; dst_port; length = len }
       ~src_ip ~dst_ip);
  Bytes.unsafe_to_string b

let test_decode_udp () =
  let src_ip = Net.Addr.Ip.of_index 2 and dst_ip = Net.Addr.Ip.of_index 1 in
  let frame = udp_frame ~src_ip ~dst_ip ~src_port:5001 ~dst_port:7 "ping!" in
  match Net.Decode.parse frame with
  | Net.Decode.Udp_info u ->
      check_int "src port" 5001 u.u_src.Net.Addr.port;
      check_int "dst port" 7 u.u_dst.Net.Addr.port;
      check_int "payload length" 5 u.u_len;
      check_bool "line mentions UDP" true (contains (Net.Decode.line frame) "UDP, length 5")
  | _ -> Alcotest.fail "UDP frame not decoded"

let test_decode_tolerates_corruption () =
  let src_ip = Net.Addr.Ip.of_index 2 and dst_ip = Net.Addr.Ip.of_index 1 in
  let frame = udp_frame ~src_ip ~dst_ip ~src_port:5001 ~dst_port:7 "ping!" in
  (* Flip every byte position in turn; the decoder must never raise. *)
  for i = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
    ignore (Net.Decode.line (Bytes.unsafe_to_string b))
  done

(* --- flow ids --- *)

let test_flow_direction_free () =
  let a = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7 in
  let b = Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 49152 in
  let proto = Net.Ipv4.protocol_tcp in
  check_bool "endpoint order irrelevant" true
    (Net.Flow.of_endpoints ~proto a b = Net.Flow.of_endpoints ~proto b a);
  check_bool "proto distinguishes" true
    (Net.Flow.of_endpoints ~proto a b
    <> Net.Flow.of_endpoints ~proto:Net.Ipv4.protocol_udp a b);
  let c = Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 49153 in
  check_bool "different conversation, different id" true
    (Net.Flow.of_endpoints ~proto a b <> Net.Flow.of_endpoints ~proto a c);
  let m1 = Net.Addr.Mac.of_index 1 and m2 = Net.Addr.Mac.of_index 2 in
  check_bool "mac order irrelevant" true (Net.Flow.of_macs m1 m2 = Net.Flow.of_macs m2 m1)

let test_flow_of_frame () =
  let src_ip = Net.Addr.Ip.of_index 2 and dst_ip = Net.Addr.Ip.of_index 1 in
  let frames = Memory.Heap.create ~headroom:0 ~mode:Memory.Heap.Pool_backed () in
  let frame s = Memory.Heap.alloc_of_string frames s in
  let req = frame (udp_frame ~src_ip ~dst_ip ~src_port:5001 ~dst_port:7 "x") in
  let rsp = frame (udp_frame ~src_ip:dst_ip ~dst_ip:src_ip ~src_port:7 ~dst_port:5001 "x") in
  (match (Net.Flow.of_frame req, Net.Flow.of_frame rsp) with
  | Some a, Some b -> check_bool "request and reply share a flow id" true (a = b)
  | _ -> Alcotest.fail "UDP frames must have flow ids");
  (* A frame is only its own bytes: a whole UDP frame in the slot, under
     a 2-byte window, is short. *)
  let short = frame (udp_frame ~src_ip ~dst_ip ~src_port:5001 ~dst_port:7 "x") in
  Memory.Heap.set_length short 2;
  check_bool "short frame has no flow" true (Net.Flow.of_frame short = None)

(* --- captured echo: the capture is real traffic, in order --- *)

let test_capture_catnip_echo () =
  let r =
    Harness.Observe.run
      { Harness.Observe.off with capture = true }
      (Test_observe.echo ~count:4 Demikernel.Boot.Catnip_os)
  in
  let session = Option.get r.capture in
  match Net.Pcap.parse (Net.Pcap.contents session.Net.Pcap.wire) with
  | Error why -> Alcotest.failf "capture does not parse: %s" why
  | Ok cap ->
      let packets = cap.Net.Pcap.packets in
      check_int "every delivered frame captured"
        r.fabric_stats.Net.Fabric.frames_delivered (List.length packets);
      let mono =
        let rec go last = function
          | [] -> true
          | p :: rest -> p.Net.Pcap.ts_ns >= last && go p.Net.Pcap.ts_ns rest
        in
        go 0 packets
      in
      check_bool "timestamps monotone" true mono;
      (* The TCP stream starts with the handshake, decoded as tcpdump
         would print it. *)
      let tcp_lines =
        List.filter_map
          (fun p ->
            match Net.Decode.parse p.Net.Pcap.frame with
            | Net.Decode.Tcp_info _ -> Some (Net.Decode.line p.Net.Pcap.frame)
            | _ -> None)
          packets
      in
      (match tcp_lines with
      | syn :: synack :: ack :: _ ->
          check_bool "1st: SYN" true (contains syn "Flags [S],");
          check_bool "2nd: SYN/ACK" true (contains synack "Flags [S.],");
          check_bool "3rd: ACK" true (contains ack "Flags [.],")
      | _ -> Alcotest.fail "no TCP handshake in capture")

let test_capture_observer_effect_free () =
  ignore (Test_observe.gate { Harness.Observe.off with capture = true } Test_observe.echo)

let test_lost_tap_sees_injected_loss () =
  let r =
    Harness.Observe.run
      { Harness.Observe.off with capture = true }
      { (Test_observe.echo Demikernel.Boot.Catnip_os) with loss = 0.2 }
  in
  let session = Option.get r.capture in
  check_bool "fabric dropped frames" true (r.fabric_stats.Net.Fabric.frames_dropped > 0);
  check_int "every drop captured on the lost tap" r.fabric_stats.Net.Fabric.frames_dropped
    (Net.Pcap.frames_written session.Net.Pcap.lost)

(* The same seed twice in one process gives the same wire bytes: the
   trace digest never sees a sequence number or a payload, so this is
   the check that an ambient source (Random, the wall clock) reaching a
   header fails. *)
let test_same_seed_same_wire flavor () =
  let capture () =
    let r =
      Harness.Observe.run { Harness.Observe.off with capture = true } (Test_observe.echo flavor)
    in
    let s = Option.get r.capture in
    (Net.Pcap.contents s.Net.Pcap.wire, Net.Pcap.contents s.Net.Pcap.lost)
  in
  let wire, lost = capture () in
  let wire', lost' = capture () in
  check_bool "frames captured" true (String.length wire > 24 * 16);
  check_bool "wire bytes identical" true (String.equal wire wire');
  check_bool "lost bytes identical" true (String.equal lost lost')

(* --- causal flows in the Chrome export --- *)

let traced_spans ~count =
  Option.get
    (Harness.Observe.run
       { Harness.Observe.off with spans = true }
       (Test_observe.echo ~count Demikernel.Boot.Catnip_os))
      .spans

let test_chrome_flow_events () =
  let json = Harness.Chrome_trace.export (traced_spans ~count:4) in
  (match Harness.Chrome_trace.validate json with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "flow-bearing trace invalid: %s" why);
  check_bool "flow tails present" true (contains json "\"ph\":\"s\"");
  check_bool "flow heads present" true (contains json "\"ph\":\"f\"");
  check_bool "heads bind to the enclosing slice" true (contains json "\"bp\":\"e\"")

let test_validator_rejects_orphan_flow_head () =
  let json =
    {|{"traceEvents":[
{"name":"x","cat":"flow","ph":"f","ts":1.000,"pid":1,"tid":1,"id":7,"bp":"e"}
]}|}
  in
  check_bool "orphan f rejected" true
    (match Harness.Chrome_trace.validate json with Error _ -> true | Ok _ -> false)

let test_wire_events_recorded () =
  let wires = Engine.Span.wire_events (traced_spans ~count:2) in
  check_bool "wire events recorded" true (List.length wires > 0);
  List.iter
    (fun w ->
      check_bool "wire event is labelled" true (String.length w.Engine.Span.wire_label > 0);
      check_bool "wire interval ordered" true (w.Engine.Span.wire_t1 >= w.Engine.Span.wire_t0))
    wires;
  (* Every delivered TCP/ARP data frame between the two hosts names both
     ends (ports were labelled at boot). *)
  check_bool "some wire events name both hosts" true
    (List.exists
       (fun w -> w.Engine.Span.wire_src = "catnip-2" && w.Engine.Span.wire_dst = "catnip-1")
       wires)

(* --- time series --- *)

let test_timeseries_unit () =
  let g = ref 3 and c = ref 100 in
  let ts = Metrics.Timeseries.create ~interval_ns:1000 in
  Metrics.Timeseries.gauge ts "depth" (fun () -> !g);
  Metrics.Timeseries.counter ts "bytes" (fun () -> !c);
  Metrics.Timeseries.sample ts ~now:1000;
  g := 7;
  c := 164;
  Metrics.Timeseries.sample ts ~now:2000;
  check_int "two rows" 2 (Metrics.Timeseries.length ts);
  (match Metrics.Timeseries.rows ts with
  | [ (1000, [ 3; 0 ]); (2000, [ 7; 64 ]) ] -> ()
  | _ -> Alcotest.fail "rows: gauges verbatim, counters as deltas");
  check_string "csv"
    "t_ns,depth,bytes\n1000,3,0\n2000,7,64\n"
    (Metrics.Timeseries.to_csv ts)

let test_timeline_sampling_observer_effect_free () =
  List.iter
    (fun (r : Harness.Observe.run) ->
      let ts = Option.get r.timeline in
      check_bool "samples were taken" true (Metrics.Timeseries.length ts > 0);
      (* Fixed grid: rows are spaced exactly one interval apart. *)
      let rec spaced = function
        | (t0, _) :: ((t1, _) :: _ as rest) ->
            t1 - t0 = Metrics.Timeseries.interval_ns ts && spaced rest
        | _ -> true
      in
      check_bool "rows on the interval grid" true (spaced (Metrics.Timeseries.rows ts));
      check_bool "fabric bytes show up" true
        (List.exists (fun (_, vals) -> List.exists (fun v -> v > 0) vals)
           (Metrics.Timeseries.rows ts)))
    (Test_observe.gate { Harness.Observe.off with timeline = Some 10_000 } Test_observe.echo)

(* --- corruption: UDP has no repair, so bit rot means loss --- *)

let test_udp_corruption_to_loss () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~corrupt:0.2 () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnap_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnap_os in
  Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7);
  let total = 50 in
  let delivered = ref 0 and lost = ref 0 and garbled = ref 0 in
  let payload = String.make 256 'x' in
  Demikernel.Boot.run_app client (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      api.Demikernel.Pdpix.bind qd (Net.Addr.endpoint 0 5001);
      let dst = Demikernel.Boot.endpoint server 7 in
      (* Outstanding pop tokens accumulate across timeouts: a reply
         completes the oldest pending pop, so wait on all of them. *)
      let outstanding = ref [] in
      for _ = 1 to total do
        let buf = api.Demikernel.Pdpix.alloc_str payload in
        (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pushto qd dst [ buf ]) with
        | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
        | _ -> failwith "udp push failed");
        outstanding := !outstanding @ [ api.Demikernel.Pdpix.pop qd ];
        match
          api.Demikernel.Pdpix.wait_any_t (Array.of_list !outstanding)
            ~timeout_ns:10_000_000
        with
        | Some (i, Demikernel.Pdpix.Popped_from (_, sga)) ->
            outstanding := List.filteri (fun j _ -> j <> i) !outstanding;
            if Demikernel.Pdpix.sga_to_string sga = payload then incr delivered
            else incr garbled;
            List.iter api.Demikernel.Pdpix.free sga
        | Some _ -> failwith "unexpected completion"
        | None -> incr lost (* request or reply corrupted => dropped *)
      done);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_int "every datagram accounted for" total (!delivered + !lost);
  check_bool "some were lost to corruption" true (!lost > 0);
  check_bool "some survived" true (!delivered > 0);
  check_int "checksums let nothing garbled through" 0 !garbled

(* --- the lossless (RDMA) class is immune to injected corruption --- *)

let test_rdma_immune_to_corruption () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~corrupt:0.2 () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catmint_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catmint_os in
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:256 ~count:50
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_bool "all 50 echos completed" true !finished;
  check_int "lossless class: no fabric drops" 0
    (Net.Fabric.stats fabric).Net.Fabric.frames_dropped

let suite =
  [
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap header bytes" `Quick test_pcap_header_bytes;
    Alcotest.test_case "pcap rejects truncation" `Quick test_pcap_truncated_rejected;
    Alcotest.test_case "decode short frame" `Quick test_decode_short_frame;
    Alcotest.test_case "decode udp" `Quick test_decode_udp;
    Alcotest.test_case "decode tolerates corruption" `Quick test_decode_tolerates_corruption;
    Alcotest.test_case "flow ids direction-free" `Quick test_flow_direction_free;
    Alcotest.test_case "flow id from frames" `Quick test_flow_of_frame;
    Alcotest.test_case "captured catnip echo" `Quick test_capture_catnip_echo;
    Alcotest.test_case "capture observer-effect-free" `Quick test_capture_observer_effect_free;
    Alcotest.test_case "lost tap sees injected loss" `Quick test_lost_tap_sees_injected_loss;
    Alcotest.test_case "chrome flow events" `Quick test_chrome_flow_events;
    Alcotest.test_case "validator rejects orphan flow head" `Quick
      test_validator_rejects_orphan_flow_head;
    Alcotest.test_case "wire events recorded" `Quick test_wire_events_recorded;
    Alcotest.test_case "timeseries unit" `Quick test_timeseries_unit;
    Alcotest.test_case "timeline sampling observer-effect-free" `Quick
      test_timeline_sampling_observer_effect_free;
    Alcotest.test_case "udp corruption becomes loss" `Quick test_udp_corruption_to_loss;
    Alcotest.test_case "rdma immune to corruption" `Quick test_rdma_immune_to_corruption;
  ]
  @ List.map
      (fun flavor ->
        Alcotest.test_case
          (Printf.sprintf "same seed, same wire bytes (%s)" (Demikernel.Boot.flavor_name flavor))
          `Quick (test_same_seed_same_wire flavor))
      Test_observe.flavors

