(* Tests for the Demikernel datapath OS: waker blocks, the coroutine
   scheduler, the PDPIX runtime, and end-to-end echo over every libOS. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- waker blocks --- *)

let test_waker_basic () =
  let w = Demikernel.Waker.create () in
  let a = Demikernel.Waker.alloc w in
  let b = Demikernel.Waker.alloc w in
  Demikernel.Waker.set w b;
  check_bool "b set" true (Demikernel.Waker.is_set w b);
  check_bool "a clear" false (Demikernel.Waker.is_set w a);
  let drained = ref [] in
  Demikernel.Waker.drain w (fun slot -> drained := slot :: !drained);
  Alcotest.(check (list int)) "drained b" [ b ] !drained;
  check_bool "cleared by drain" false (Demikernel.Waker.is_set w b)

let test_waker_many_blocks () =
  (* Cross the 63-bit block boundary several times. *)
  let w = Demikernel.Waker.create () in
  let slots = List.init 400 (fun _ -> Demikernel.Waker.alloc w) in
  let chosen = List.filter (fun s -> s mod 7 = 0) slots in
  List.iter (Demikernel.Waker.set w) chosen;
  let drained = ref [] in
  Demikernel.Waker.drain w (fun slot -> drained := slot :: !drained);
  Alcotest.(check (list int)) "all set bits found in order" chosen (List.rev !drained)

let test_waker_set_idempotent () =
  let w = Demikernel.Waker.create () in
  let a = Demikernel.Waker.alloc w in
  Demikernel.Waker.set w a;
  Demikernel.Waker.set w a;
  let count = ref 0 in
  Demikernel.Waker.drain w (fun _ -> incr count);
  check_int "one wake" 1 !count

let waker_random =
  QCheck.Test.make ~name:"waker drain = sorted set bits" ~count:200
    QCheck.(list (int_bound 300))
    (fun picks ->
      let w = Demikernel.Waker.create () in
      for _ = 0 to 300 do ignore (Demikernel.Waker.alloc w) done;
      List.iter (Demikernel.Waker.set w) picks;
      let drained = ref [] in
      Demikernel.Waker.drain w (fun s -> drained := s :: !drained);
      List.rev !drained = List.sort_uniq compare picks)

(* --- scheduler --- *)

let make_sched () =
  let sim = Engine.Sim.create () in
  let host =
    Demikernel.Host.create sim ~name:"test" ~cost:Net.Cost.bare_metal
      ~heap_mode:Memory.Heap.Pool_backed
  in
  (sim, Demikernel.Dsched.create host)

let test_sched_run_to_completion () =
  let sim, sched = make_sched () in
  let log = ref [] in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () -> log := "a" :: !log));
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () -> log := "b" :: !log));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "both ran FIFO" [ "a"; "b" ] (List.rev !log)

let test_sched_yield_interleaves () =
  let sim, sched = make_sched () in
  let log = ref [] in
  let worker tag () =
    log := tag :: !log;
    Demikernel.Dsched.yield sched;
    log := tag :: !log
  in
  ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (worker "a"));
  ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (worker "b"));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "interleaved" [ "a"; "b"; "a"; "b" ] (List.rev !log)

let test_sched_priorities () =
  (* A fast-path coroutine runs only when no app coroutine is ready. *)
  let sim, sched = make_sched () in
  let log = ref [] in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.Fast_path (fun () ->
         log := "fp" :: !log));
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.Background (fun () ->
         log := "bg" :: !log));
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () -> log := "app" :: !log));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "app > bg > fp" [ "app"; "bg"; "fp" ] (List.rev !log)

let test_sched_block_wake () =
  let sim, sched = make_sched () in
  let log = ref [] in
  let blocked =
    Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
        log := "before" :: !log;
        Demikernel.Dsched.block sched;
        log := "after" :: !log)
  in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         log := "waker" :: !log;
         Demikernel.Dsched.wake sched blocked));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "block then wake" [ "before"; "waker"; "after" ]
    (List.rev !log)

let test_sched_wake_before_block () =
  (* No lost wakeups: a wake delivered while running is consumed by the
     next block. *)
  let sim, sched = make_sched () in
  let finished = ref false in
  let rec coro = lazy
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         Demikernel.Dsched.wake sched (Lazy.force coro);
         Demikernel.Dsched.block sched;
         finished := true))
  in
  ignore (Lazy.force coro);
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  check_bool "did not deadlock" true !finished

let test_sched_deadlock_detection () =
  let sim, sched = make_sched () in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         Demikernel.Dsched.block sched));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  match Engine.Sim.run sim with
  | () -> Alcotest.fail "expected deadlock failure"
  | exception Failure _ -> ()

let test_sched_charge_advances_time () =
  let sim, sched = make_sched () in
  let host = Demikernel.Dsched.host sched in
  let seen = ref (-1) in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         Demikernel.Host.charge host 5_000;
         seen := Engine.Sim.now sim));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  check_bool "coroutine charge advances virtual time" true (!seen >= 5_000)

(* A charge inside a coroutine is a [Fiber.sleep]: the coroutine's
   handler forwards the effect, so the whole host fiber sleeps while the
   event loop runs everyone else, and the coroutine resumes exactly when
   the charged span ends. *)
let test_sched_charge_forwarded_to_host_fiber () =
  let sim, sched = make_sched () in
  let host = Demikernel.Dsched.host sched in
  let charging = ref false and seen_mid_charge = ref false and span = ref (-1) in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         let t0 = Engine.Sim.now sim in
         charging := true;
         Demikernel.Host.charge host 5_000;
         charging := false;
         span := Engine.Sim.now sim - t0));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 1_000;
      seen_mid_charge := !charging);
  Engine.Sim.run sim;
  check_bool "another fiber ran during the charge" true !seen_mid_charge;
  check_int "the charge took exactly its span" 5_000 !span

(* Word budgets for the scheduler's steady state (helpers in
   Test_engine). *)
let test_sched_charge_words () =
  let sim, sched = make_sched () in
  let host = Demikernel.Dsched.host sched in
  let words = ref 0 in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         words := Test_engine.steady_words (fun () -> Demikernel.Host.charge host 1)));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Test_engine.check_budget "Host.charge in a coroutine" ~bound:2 !words
    ~per:Test_engine.budget_ops

(* Two coroutines yield to each other, so each yield of the measured one
   is two dispatches, and every dispatch pays the charged switch cost (a
   host-fiber sleep): this is the whole switch. *)
let test_sched_yield_words () =
  let sim, sched = make_sched () in
  let words = ref 0 in
  let yield () = Demikernel.Dsched.yield sched in
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         words := Test_engine.steady_words yield));
  ignore
    (Demikernel.Dsched.spawn sched Demikernel.Dsched.App (fun () ->
         for _ = 1 to 2 * Test_engine.budget_ops do
           yield ()
         done));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Test_engine.check_budget "yield round trip, per switch" ~bound:4 !words
    ~per:(2 * Test_engine.budget_ops)

(* --- echo over every libOS: the portability claim --- *)

let bare = Net.Cost.bare_metal

let run_echo ?(msg_size = 64) ?(count = 50) flavor =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  let rtts = Metrics.Hdr.create () in
  let finished = ref false in
  Demikernel.Boot.run_app server ~name:"echo-server" (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client ~name:"echo-client"
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size ~count
       ~record:(Metrics.Hdr.add rtts)
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_bool "client finished" true !finished;
  check_int "all rtts recorded" count (Metrics.Hdr.count rtts);
  (rtts, server, client)

let test_echo_catnip () =
  let rtts, _, _ = run_echo Demikernel.Boot.Catnip_os in
  (* Catnip TCP echo should land in single-digit microseconds. *)
  let p50 = Metrics.Hdr.p50 rtts in
  check_bool "catnip rtt in us range" true (p50 > 2_000 && p50 < 20_000)

let test_echo_catmint () =
  let rtts, _, _ = run_echo Demikernel.Boot.Catmint_os in
  let p50 = Metrics.Hdr.p50 rtts in
  check_bool "catmint rtt in us range" true (p50 > 1_000 && p50 < 15_000)

let test_echo_catnap () =
  let rtts, _, _ = run_echo ~count:30 Demikernel.Boot.Catnap_os in
  let p50 = Metrics.Hdr.p50 rtts in
  check_bool "catnap much slower than bypass" true (p50 > 8_000)

let test_echo_ordering_matches_paper () =
  (* Figure 5 shape: Catmint < Catnip < Catnap. *)
  let r_mint, _, _ = run_echo Demikernel.Boot.Catmint_os in
  let r_nip, _, _ = run_echo Demikernel.Boot.Catnip_os in
  let r_nap, _, _ = run_echo ~count:30 Demikernel.Boot.Catnap_os in
  let m = Metrics.Hdr.p50 r_mint
  and n = Metrics.Hdr.p50 r_nip
  and p = Metrics.Hdr.p50 r_nap in
  check_bool (Printf.sprintf "catmint (%d) < catnip (%d)" m n) true (m < n);
  check_bool (Printf.sprintf "catnip (%d) < catnap (%d)" n p) true (n < p)

let test_echo_zero_copy_accounting () =
  (* Catnip with >1kB messages must move payloads without CPU copies;
     the kernel path must copy every byte at least twice per echo. *)
  let _, server_nip, _ = run_echo ~msg_size:2048 ~count:20 Demikernel.Boot.Catnip_os in
  let nip_copied =
    (Memory.Heap.stats server_nip.Demikernel.Boot.host.Demikernel.Host.heap)
      .Memory.Heap.bytes_copied
  in
  check_int "catnip server copies nothing" 0 nip_copied;
  let _, server_nap, _ = run_echo ~msg_size:2048 ~count:20 Demikernel.Boot.Catnap_os in
  let nap_kernel =
    match server_nap.Demikernel.Boot.kernel with Some k -> k | None -> assert false
  in
  let nap_copied = (Memory.Heap.stats (Oskernel.Kernel.heap nap_kernel)).Memory.Heap.bytes_copied in
  check_bool "kernel path copies every byte" true (nap_copied >= 20 * 2048 * 2)

(* A Catnip UDP echo of [count] datagrams of [msg_size] bytes; returns
   whether the client finished and its RTTs. *)
let udp_echo ~msg_size ~count =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let finished = ref false in
  let rtts = Metrics.Hdr.create () in
  Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:53);
  Demikernel.Boot.run_app client
    (Apps.Echo.udp_client
       ~dst:(Demikernel.Boot.endpoint server 53)
       ~src_port:5001 ~msg_size ~count
       ~record:(Metrics.Hdr.add rtts)
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  (!finished, rtts)

let test_echo_udp_catnip () =
  let finished, rtts = udp_echo ~msg_size:64 ~count:50 in
  check_bool "finished" true finished;
  check_int "rtts" 50 (Metrics.Hdr.count rtts);
  (* UDP skips the TCP machinery: cheaper than TCP echo. *)
  check_bool "udp rtt sane" true (Metrics.Hdr.p50 rtts < 15_000)

let test_echo_with_persistence () =
  (* Figure 7 configuration: every message hits the SSD before the
     reply. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server =
    Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os
  in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let rtts = Metrics.Hdr.create () in
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7 ~persist:true);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:64 ~count:20
       ~record:(Metrics.Hdr.add rtts)
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_bool "finished" true !finished;
  (* Every echo paid at least one Optane write. *)
  check_bool "rtt includes ssd write" true
    (Metrics.Hdr.p50 rtts > bare.Net.Cost.ssd_write_ns);
  match server.Demikernel.Boot.ssd with
  | Some ssd -> check_bool "device persisted data" true (Net.Ssd_sim.bytes_written ssd >= 20 * 64)
  | None -> Alcotest.fail "no ssd"

let test_uaf_protection_live () =
  (* The echo server frees sga buffers right after push completes; under
     retransmission pressure the heap must show deferred frees. Force
     loss so TCP holds references past the app free. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~loss:0.05 () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:64 ~count:200
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_bool "finished despite loss" true !finished

(* Run [f] with every heap it creates sanitizing. *)
let sanitized f =
  let prior = Memory.Heap.sanitize_default () in
  Memory.Heap.set_sanitize_default true;
  Fun.protect ~finally:(fun () -> Memory.Heap.set_sanitize_default prior) f

let test_tcb_churn_catnip () =
  (* Two rounds of 1,024 connect -> push -> pop -> close cycles against
     the echo server on a Catnip world, each on a freshly opened
     connection, with the heap sanitizer on. The client holds all 1,024
     of a round in TIME_WAIT at once; the pause between rounds outlasts
     TIME_WAIT, so the second round opens onto a stack that has already
     closed a thousand connections. At the end no connection is live
     and the heaps report no leak, double free or write-after-free.
     (The test's name predates connection records; the "pool" is now
     the stack's set of connections.) *)
  let cycles = 1_024 in
  sanitized @@ fun () ->
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let done_cycles = ref 0 in
  let round api =
    for _ = 1 to cycles do
      Apps.Echo.client ~dst:(Demikernel.Boot.endpoint server 7) ~msg_size:64 ~count:1
        ~on_done:(fun () -> incr done_cycles)
        api
    done
  in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client (fun api ->
      round api;
      (* Block (not spin) past TIME_WAIT so the fast path reaps it. *)
      let idle = api.Demikernel.Pdpix.pop (api.Demikernel.Pdpix.queue ()) in
      let time_wait = Tcp.Stack.default_config.Tcp.Stack.time_wait_ns in
      check_bool "pause times out" true
        (api.Demikernel.Pdpix.wait_any_t [| idle |] ~timeout_ns:(2 * time_wait) = None);
      round api);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  Engine.Sim.teardown sim;
  check_int "every cycle completed" (2 * cycles) !done_cycles;
  List.iter
    (fun (role, (node : Demikernel.Boot.node)) ->
      let stack = Demikernel.Catnip.stack (Option.get node.catnip) in
      let conns = Tcp.Stack.conn_stats stack in
      check_int (role ^ ": every connection opened") (2 * cycles) conns.Tcp.Stack.ever_opened;
      check_int (role ^ ": no connection left live") 0 conns.Tcp.Stack.live;
      match Memory.Heap.sanitizer_report node.host.Demikernel.Host.heap with
      | Some r ->
          check_int (role ^ ": no leaks") 0 (List.length r.Memory.Heap.leaks);
          check_int (role ^ ": no canary violations") 0 r.Memory.Heap.canary_violations;
          check_int (role ^ ": no double frees") 0 r.Memory.Heap.double_frees
      | None -> Alcotest.fail (role ^ ": heap not sanitizing"))
    [ ("server", server); ("client", client) ];
  let client_stack = Demikernel.Catnip.stack (Option.get client.catnip) in
  check_bool "client held >=1k TCBs at once" true
    ((Tcp.Stack.conn_stats client_stack).Tcp.Stack.peak >= cycles)

(* The frame heap at the end of a sanitized run: nothing live, leaked,
   written after free or freed twice. *)
let frame_heap_clean frames =
  check_int "no frame live" 0 (Memory.Heap.live_objects frames);
  match Memory.Heap.sanitizer_report frames with
  | Some r ->
      check_int "no leaks" 0 (List.length r.Memory.Heap.leaks);
      check_int "no canary violations" 0 r.Memory.Heap.canary_violations;
      check_int "no double frees" 0 r.Memory.Heap.double_frees
  | None -> Alcotest.fail "frame heap not sanitizing"

(* Every frame has one owner at a time, from the sender that allocates
   it to the holder that frees it. A sanitized Catnip echo world whose
   fabric loses and corrupts frames, with an ARP broadcast (the
   client's first connect) and a bystander NIC whose one-slot receive
   ring overflows, ends with no frame live, no double free and no
   write-after-free in the fabric's frame heap. *)
let test_frame_lifecycle () =
  sanitized @@ fun () ->
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~loss:0.02 ~corrupt:0.02 () in
  let frames = Net.Fabric.frames fabric in
  let corrupted = ref 0 and arp_requests = ref 0 in
  Net.Fabric.set_tap fabric
    (Some
       {
         Net.Fabric.tap_deliver =
           (fun ~ts:_ frame ->
             match Net.Decode.parse_frame frame with
             | Net.Decode.Arp_info { Net.Arp.operation = Net.Arp.Request; _ } ->
                 incr arp_requests
             | _ -> ());
         tap_drop =
           (fun ~ts:_ ~reason _ ->
             match reason with Net.Fabric.Corrupt -> incr corrupted | _ -> ());
       });
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let nic i ?rx_ring_size () =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index i) ~ip:(Net.Addr.Ip.of_index i)
      ?rx_ring_size ()
  in
  let sender = nic 8 () and tiny = nic 9 ~rx_ring_size:1 () in
  for _ = 1 to 4 do
    let frame = Memory.Heap.alloc frames 64 in
    Net.Eth.write (Memory.Heap.data frame) (Memory.Heap.offset frame)
      { Net.Eth.dst = Net.Dpdk_sim.mac tiny; src = Net.Dpdk_sim.mac sender; ethertype = 0x88B5 }
    |> ignore;
    Net.Dpdk_sim.tx sender frame
  done;
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:256 ~count:200
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_bool "echo finished" true !finished;
  (* The bystanders never poll: take and free what their rings hold. *)
  List.iter
    (fun nic ->
      for _ = 1 to Net.Dpdk_sim.rx_take nic ~max:max_int do
        Memory.Heap.free (Net.Dpdk_sim.rx nic)
      done)
    [ sender; tiny ];
  check_bool "frames lost" true ((Net.Fabric.stats fabric).Net.Fabric.frames_dropped > 0);
  check_bool "frames corrupted" true (!corrupted > 0);
  check_bool "an ARP broadcast reached every other port" true (!arp_requests >= 3);
  check_bool "the one-slot ring overflowed" true (Net.Dpdk_sim.rx_dropped tiny > 0);
  frame_heap_clean frames

(* The same rule on RoCE frames: a frame that lands in a posted receive
   buffer belongs to its completion-queue entry, and Catmint frees it
   once it has handled the completion; the device frees every frame it
   drops. Before the echo server starts, a raw RNIC sends it 12
   messages: 8 fill the posted receive buffers (window 2, so 4 x 2
   posted) and wait in its CQ, the other 4 find it at 0 credits and are
   RNR drops. The server then handles the 8 (an unknown message type,
   ignored) and serves a sanitized echo. *)
let test_frame_lifecycle_catmint () =
  sanitized @@ fun () ->
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server =
    Demikernel.Boot.make sim fabric ~index:1 ~catmint_window:2 Demikernel.Boot.Catmint_os
  in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catmint_os in
  let rnic = Option.get server.Demikernel.Boot.rnic in
  let raw =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index 9) ~ip:(Net.Addr.Ip.of_index 9) ()
  in
  let junk = Bytes.make 100 'j' in
  for i = 1 to 12 do
    Net.Rdma_sim.post_send raw ~dst:(Net.Rdma_sim.mac rnic) ~wr_id:i ~imm:0 junk 0 100
  done;
  Engine.Sim.run ~until:(Engine.Clock.us 100) sim;
  check_int "RNR drops at 0 credits" 4 (Net.Rdma_sim.rnr_drops rnic);
  check_int "no receive buffer left" 0 (Net.Rdma_sim.recv_credits rnic);
  check_int "the CQ holds the landed frames" 8 (Net.Rdma_sim.cq_pending rnic);
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:700 ~count:200
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_bool "echo finished" true !finished;
  check_int "the server's receive buffers are back" 8 (Net.Rdma_sim.recv_credits rnic);
  frame_heap_clean (Net.Fabric.frames fabric)

(* A Catmint host on a fabric shared with Catnip hosts receives their
   ARP broadcasts. Its RNIC must drop them as not RoCE and free them,
   consuming no posted receive and completing nothing. The Catmint host
   is never started, so nothing would repost a receive a stray frame
   took. *)
let test_rnic_drops_non_roce () =
  sanitized @@ fun () ->
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let not_roce = ref 0 in
  Net.Fabric.set_tap fabric
    (Some
       {
         Net.Fabric.tap_deliver = (fun ~ts:_ _ -> ());
         tap_drop =
           (fun ~ts:_ ~reason _ ->
             match reason with Net.Fabric.Nic_drop "not-roce" -> incr not_roce | _ -> ());
       });
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let bystander = Demikernel.Boot.make sim fabric ~index:3 Demikernel.Boot.Catmint_os in
  let rnic = Option.get bystander.Demikernel.Boot.rnic in
  let credits = Net.Rdma_sim.recv_credits rnic in
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:64 ~count:10
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_bool "echo finished" true !finished;
  check_int "posted receives untouched" credits (Net.Rdma_sim.recv_credits rnic);
  check_int "no completion" 0 (Net.Rdma_sim.cq_pending rnic);
  check_int "no RNR drop" 0 (Net.Rdma_sim.rnr_drops rnic);
  check_bool "the ARP broadcast was dropped as not RoCE" true (!not_roce >= 1);
  frame_heap_clean (Net.Fabric.frames fabric)

let test_memq () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let got = ref None in
  Demikernel.Boot.run_app node (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      let buf = api.Demikernel.Pdpix.alloc_str "through the channel" in
      (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push q [ buf ]) with
      | Demikernel.Pdpix.Pushed -> ()
      | _ -> failwith "memq push");
      match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop q) with
      | Demikernel.Pdpix.Popped sga -> got := Some (Demikernel.Pdpix.sga_to_string sga)
      | _ -> failwith "memq pop");
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (option string)) "roundtrip" (Some "through the channel") !got

let test_wait_any_wakes_one () =
  (* Two workers wait on distinct pops; one message must wake exactly
     one worker (the §4.2 thundering-herd fix). *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let woken = ref [] in
  Demikernel.Boot.run_app node (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      let q2 = api.Demikernel.Pdpix.queue () in
      (* Worker coroutines are modelled as two wait_any calls in
         sequence within one app; spawn a second app for the real test
         below. Here: wait_any returns the completed index. *)
      let buf = api.Demikernel.Pdpix.alloc_str "x" in
      ignore (api.Demikernel.Pdpix.push q2 [ buf ]);
      let qts = [| api.Demikernel.Pdpix.pop q; api.Demikernel.Pdpix.pop q2 |] in
      let i, completion = api.Demikernel.Pdpix.wait_any qts in
      (match completion with
      | Demikernel.Pdpix.Popped _ -> woken := i :: !woken
      | _ -> failwith "unexpected"));
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (list int)) "second queue completed" [ 1 ] !woken

let test_multi_worker_dispatch () =
  (* Table 1's C2: the datapath OS assigns I/O requests to application
     workers — three workers pop the same connection; three pipelined
     requests wake exactly one worker each (no thundering herd). *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let served = ref [] in
  let handoff = ref None in
  (* Server: the acceptor creates an in-memory queue() and hands the
     accepted connection qd to each worker through it — the acceptor is
     registered first, so the queue exists before any worker runs. *)
  Demikernel.Boot.run_app server ~name:"acceptor" (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      handoff := Some q;
      let lqd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      api.Demikernel.Pdpix.bind lqd (Net.Addr.endpoint 0 7);
      api.Demikernel.Pdpix.listen lqd ~backlog:4;
      match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.accept lqd) with
      | Demikernel.Pdpix.Accepted qd ->
          for _ = 1 to 3 do
            let msg = api.Demikernel.Pdpix.alloc_str (string_of_int qd) in
            ignore (api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push q [ msg ]))
          done
      | _ -> failwith "accept failed");
  for w = 1 to 3 do
    Demikernel.Boot.run_app server ~name:(Printf.sprintf "worker-%d" w) (fun api ->
        let q = match !handoff with Some q -> q | None -> failwith "no handoff queue" in
        let qd =
          match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop q) with
          | Demikernel.Pdpix.Popped sga ->
              let qd = int_of_string (Demikernel.Pdpix.sga_to_string sga) in
              List.iter api.Demikernel.Pdpix.free sga;
              qd
          | _ -> failwith "handoff pop failed"
        in
        match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop qd) with
        | Demikernel.Pdpix.Popped sga ->
            served := (w, Demikernel.Pdpix.sga_to_string sga) :: !served;
            List.iter api.Demikernel.Pdpix.free sga
        | _ -> failwith "worker pop failed")
  done;
  Demikernel.Boot.run_app client (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.connect qd (Demikernel.Boot.endpoint server 7)) with
      | Demikernel.Pdpix.Connected -> ()
      | _ -> failwith "connect failed");
      (* Space requests out so each arrives as its own segment. *)
      List.iter
        (fun msg ->
          let buf = api.Demikernel.Pdpix.alloc_str msg in
          ignore (api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push qd [ buf ]));
          api.Demikernel.Pdpix.free buf;
          api.Demikernel.Pdpix.spin 50_000)
        [ "req1"; "req2"; "req3" ]);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  let served = List.rev !served in
  check_int "three requests served" 3 (List.length served);
  let workers = List.map fst served in
  check_int "each worker served exactly one" 3
    (List.length (List.sort_uniq compare workers));
  Alcotest.(check (list string)) "requests dispatched in order" [ "req1"; "req2"; "req3" ]
    (List.map snd served)

let test_cattree_log_roundtrip () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node =
    Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os
  in
  let results = ref [] in
  Demikernel.Boot.run_app node (fun api ->
      let log = api.Demikernel.Pdpix.open_log "test.log" in
      List.iter
        (fun record ->
          let buf = api.Demikernel.Pdpix.alloc_str record in
          match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push log [ buf ]) with
          | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
          | _ -> failwith "log push")
        [ "first"; "second"; "third" ];
      let rec read_all () =
        match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop log) with
        | Demikernel.Pdpix.Popped sga ->
            results := Demikernel.Pdpix.sga_to_string sga :: !results;
            List.iter api.Demikernel.Pdpix.free sga;
            read_all ()
        | Demikernel.Pdpix.Failed _ -> () (* read past tail *)
        | _ -> failwith "log pop"
      in
      read_all ());
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (list string)) "records replay in order" [ "first"; "second"; "third" ]
    (List.rev !results)

(* ---------- runtime ownership oracle ---------- *)

let connect_echo api dst =
  let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
  (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.connect qd dst) with
  | Demikernel.Pdpix.Connected -> ()
  | _ -> failwith "connect failed");
  qd

(* Run [main] as a client against a TCP echo server, with the client's
   api wrapped by a fresh ownership oracle; returns the violations. *)
let oracle_run ?(flavor = Demikernel.Boot.Catnip_os) main =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  let oracle = Demikernel.Pdpix.oracle ~name:"oracle-under-test" () in
  Demikernel.Boot.run_app client
    ~wrap:(Demikernel.Pdpix.checked oracle)
    (main (Demikernel.Boot.endpoint server 7));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  Engine.Sim.teardown sim;
  Demikernel.Pdpix.oracle_finish oracle

let kinds vs = List.map (fun (v : Demikernel.Pdpix.ownership_violation) -> v.kind) vs

(* Catmint retries stalled senders every poll in channel-id order. A
   client with 8 channels at a 2-message window pushes 8 messages on

   each to a server that only consumes, so the channels stall together
   and several get credit in one round. The same world twice in one
   process must put the same bytes on the wire: `dune runtest` runs
   with OCAMLRUNPARAM=R, so each run's tables hash with their own seed
   and a retry in hash order reorders the frames. A grant lands with no
   local completion, so a ticker keeps the client polling until its
   senders are done: a parked client is not woken to retry. *)

let test_catmint_stalled_retry_same_wire () =
  let run () =
    let sim = Engine.Sim.create () in
    let fabric = Net.Fabric.create sim ~cost:bare () in
    let session = Net.Pcap.tap fabric in
    let boot index =
      Demikernel.Boot.make sim fabric ~index ~catmint_window:2 Demikernel.Boot.Catmint_os
    in
    let server = boot 1 and client = boot 2 in
    let consumed = ref 0 in
    Demikernel.Boot.run_app server (fun api ->
        let lqd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
        api.Demikernel.Pdpix.bind lqd (Net.Addr.endpoint 0 7);
        api.Demikernel.Pdpix.listen lqd ~backlog:64;
        Apps.Serve.run api ~name:"sink" lqd ~conn:Fun.id ~on_data:(fun _ ~op:_ sga ->
            List.iter api.Demikernel.Pdpix.free sga;
            incr consumed));
    let done_conns = ref 0 in
    Demikernel.Boot.run_app client (fun api ->
        let idle = api.Demikernel.Pdpix.pop (api.Demikernel.Pdpix.queue ()) in
        while !done_conns < 8 do
          ignore (api.Demikernel.Pdpix.wait_any_t [| idle |] ~timeout_ns:1_000)
        done);
    for c = 1 to 8 do
      Demikernel.Boot.run_app client (fun api ->
          let qd = connect_echo api (Demikernel.Boot.endpoint server 7) in
          let sent =
            List.init 8 (fun i ->
                let buf = api.Demikernel.Pdpix.alloc_str (Printf.sprintf "conn %d msg %d" c i) in
                (api.Demikernel.Pdpix.push qd [ buf ], buf))
          in
          ignore (api.Demikernel.Pdpix.wait_all (Array.of_list (List.map fst sent)));
          List.iter (fun (_, buf) -> api.Demikernel.Pdpix.free buf) sent;
          incr done_conns)
    done;
    Demikernel.Boot.start server;
    Demikernel.Boot.start client;
    Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
    check_int "every message consumed" (8 * 8) !consumed;
    Net.Pcap.contents session.Net.Pcap.wire
  in
  let first = run () in
  check_bool "same bytes on the wire" true (String.equal first (run ()))

let test_oracle_clean_echo () =
  let clean dst api =
    let qd = connect_echo api dst in
    let buf = api.Demikernel.Pdpix.alloc_str "well-behaved" in
    let qt = api.Demikernel.Pdpix.push qd [ buf ] in
    (match api.Demikernel.Pdpix.wait qt with
    | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
    | _ -> failwith "push failed");
    match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop qd) with
    | Demikernel.Pdpix.Popped sga -> List.iter api.Demikernel.Pdpix.free sga
    | _ -> failwith "pop failed"
  in
  Alcotest.(check (list string)) "catnip clean" [] (kinds (oracle_run clean));
  Alcotest.(check (list string)) "catmint clean" []
    (kinds (oracle_run ~flavor:Demikernel.Boot.Catmint_os clean))

let test_oracle_write_in_flight () =
  let vs =
    oracle_run (fun dst api ->
        let qd = connect_echo api dst in
        let buf = api.Demikernel.Pdpix.alloc_str "payload-under-test" in
        let qt = api.Demikernel.Pdpix.push qd [ buf ] in
        (* The libOS owns [buf] until [qt] completes: this write races
           the (zero-copy) transmit path. *)
        Bytes.set (Memory.Heap.data buf) (Memory.Heap.offset buf) 'Z';
        (match api.Demikernel.Pdpix.wait qt with
        | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
        | _ -> failwith "push failed"))
  in
  Alcotest.(check (list string)) "write detected" [ "write-in-flight" ] (kinds vs)

let test_oracle_free_in_flight () =
  let vs =
    oracle_run (fun dst api ->
        let qd = connect_echo api dst in
        let buf = api.Demikernel.Pdpix.alloc_str "freed-too-early" in
        let qt = api.Demikernel.Pdpix.push qd [ buf ] in
        api.Demikernel.Pdpix.free buf;
        ignore (api.Demikernel.Pdpix.wait qt))
  in
  Alcotest.(check (list string)) "early free detected" [ "free-in-flight" ] (kinds vs)

let test_oracle_dropped_token () =
  let vs =
    oracle_run (fun dst api ->
        let qd = connect_echo api dst in
        let buf = api.Demikernel.Pdpix.alloc_str "fire-and-forget" in
        ignore (api.Demikernel.Pdpix.push qd [ buf ]))
  in
  Alcotest.(check (list string)) "unredeemed token flagged at finish" [ "dropped-token" ]
    (kinds vs)

(* ---------- wait_any_t timeout semantics ---------- *)

let wait_any_t_timeout_roundtrip flavor =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  let echoed = ref None in
  let timed_out = ref false in
  Demikernel.Boot.run_app client (fun api ->
      let qd = connect_echo api (Demikernel.Boot.endpoint server 7) in
      let buf = api.Demikernel.Pdpix.alloc_str "timeout-keeps-token" in
      (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push qd [ buf ]) with
      | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
      | _ -> failwith "push failed");
      let qt = api.Demikernel.Pdpix.pop qd in
      (* The echo takes a full RTT; a 1ns timeout must expire first —
         and per the PDPIX contract the token survives the timeout. *)
      (match api.Demikernel.Pdpix.wait_any_t [| qt |] ~timeout_ns:1 with
      | None -> timed_out := true
      | Some _ -> failwith "echo arrived inside 1ns");
      match api.Demikernel.Pdpix.wait qt with
      | Demikernel.Pdpix.Popped sga ->
          echoed := Some (Demikernel.Pdpix.sga_to_string sga);
          List.iter api.Demikernel.Pdpix.free sga
      | _ -> failwith "pop failed after timeout");
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_bool "wait_any_t returned None" true !timed_out;
  Alcotest.(check (option string))
    "token stayed redeemable and delivered the payload" (Some "timeout-keeps-token")
    !echoed

let test_wait_any_t_timeout_catnip () =
  wait_any_t_timeout_roundtrip Demikernel.Boot.Catnip_os

let test_wait_any_t_timeout_catnap () =
  wait_any_t_timeout_roundtrip Demikernel.Boot.Catnap_os

(* ---------- close semantics ---------- *)

(* Close [qd] under its waiting token [qt]: what [wait_any_t] answers
   within 1 ms. *)
let close_under (api : Demikernel.Pdpix.api) qd qt =
  api.close qd;
  match api.wait_any_t [| qt |] ~timeout_ns:1_000_000 with
  | Some (_, Demikernel.Pdpix.Failed reason) -> reason
  | Some _ -> "completed"
  | None -> "still pending"

(* Every kind of waiting token: a UDP pop (not on Catmint, which has no
   datagram sockets), a connection pop, an accept, a [queue()] pop and a
   connect to an index no host answers. Each completes [Failed "queue
   closed"] when its qd closes. *)
let close_fails_pending flavor () =
  let open Demikernel.Pdpix in
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  let got = ref [] in
  let note what reason = got := (what, reason) :: !got in
  Demikernel.Boot.run_app server (fun api ->
      let lqd = api.socket Tcp in
      api.bind lqd (Demikernel.Boot.endpoint server 7);
      api.listen lqd ~backlog:8;
      (match api.wait (api.accept lqd) with Accepted _ -> () | _ -> failwith "accept");
      note "accept" (close_under api lqd (api.accept lqd));
      let q = api.queue () in
      note "queue() pop" (close_under api q (api.pop q));
      if flavor <> Demikernel.Boot.Catmint_os then begin
        let u = api.socket Udp in
        api.bind u (Demikernel.Boot.endpoint server 9);
        note "udp pop" (close_under api u (api.pop u))
      end);
  Demikernel.Boot.run_app client (fun api ->
      let qd = connect_echo api (Demikernel.Boot.endpoint server 7) in
      note "connection pop" (close_under api qd (api.pop qd));
      let nowhere = api.socket Tcp in
      note "connect"
        (close_under api nowhere (api.connect nowhere (Net.Addr.endpoint (Net.Addr.Ip.of_index 9) 7))));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  let kinds =
    [ "accept"; "connect"; "connection pop"; "queue() pop" ]
    @ if flavor = Demikernel.Boot.Catmint_os then [] else [ "udp pop" ]
  in
  Alcotest.(check (list (pair string string)))
    "every waiting token fails on close"
    (List.map (fun k -> (k, "queue closed")) kinds)
    (List.sort compare !got)

(* Closing a listener or a UDP socket releases its port: listening or
   binding on it again works. *)
let close_releases_ports flavor () =
  let open Demikernel.Pdpix in
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let outcomes = ref [] in
  let attempt what f =
    let r = match f () with () -> "ok" | exception Invalid_argument m -> m in
    outcomes := (what, r) :: !outcomes
  in
  Demikernel.Boot.run_app node (fun api ->
      let ep port = Demikernel.Boot.endpoint node port in
      let listen () =
        let qd = api.socket Tcp in
        api.bind qd (ep 7);
        api.listen qd ~backlog:8;
        api.close qd
      in
      let bind () =
        let qd = api.socket Udp in
        api.bind qd (ep 9);
        api.close qd
      in
      attempt "listen" listen;
      attempt "listen again" listen;
      if flavor <> Demikernel.Boot.Catmint_os then begin
        attempt "bind" bind;
        attempt "bind again" bind
      end);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.ms 1) sim;
  let expected =
    [ "listen"; "listen again" ]
    @ if flavor = Demikernel.Boot.Catmint_os then [] else [ "bind"; "bind again" ]
  in
  Alcotest.(check (list (pair string string)))
    "the port is free again after close"
    (List.map (fun w -> (w, "ok")) expected)
    (List.rev !outcomes)

(* A connection the listener never handed out ends when the listener
   closes: Catnip and Catnap reset it, Catmint closes the channel (the
   peer reads end-of-file). Once its pop has ended, the client pushes
   once: on a reset connection the push fails, on a closed channel it
   still completes. *)
let close_ends_unaccepted flavor expected () =
  let open Demikernel.Pdpix in
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  let listener = ref None and got = ref ("not run", "not run") in
  Demikernel.Boot.run_app server (fun api ->
      let lqd = api.socket Tcp in
      api.bind lqd (Demikernel.Boot.endpoint server 7);
      api.listen lqd ~backlog:8;
      listener := Some lqd);
  Demikernel.Boot.run_app client (fun api ->
      let qd = connect_echo api (Demikernel.Boot.endpoint server 7) in
      let outcome qt =
        match api.wait_any_t [| qt |] ~timeout_ns:1_000_000 with
        | Some (_, Failed reason) -> reason
        | Some (_, Popped []) -> "eof"
        | Some (_, Pushed) -> "pushed"
        | Some _ -> "data"
        | None -> "still pending"
      in
      let popped = outcome (api.pop qd) in
      let buf = api.alloc_str "after" in
      let pushed = outcome (api.push qd [ buf ]) in
      api.free buf;
      got := (popped, pushed));
  Demikernel.Boot.run_app server ~name:"closer" (fun api ->
      (* Sleep until the client's connection is established, then
         close the listener under it. *)
      ignore (api.wait_any_t [| api.pop (api.queue ()) |] ~timeout_ns:200_000);
      api.close (Option.get !listener));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (pair string string)) "the client's pop ends, then its push" expected !got

(* Misusing PDPIX raises [Invalid_argument] on every libOS, each with a
   disk (so the host has logs): a call the qd's kind does not support,
   and any call on an unknown or closed qd. *)
let misuse_raises flavor () =
  let open Demikernel.Pdpix in
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 ~with_disk:true flavor in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  let outcomes = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let ep = Demikernel.Boot.endpoint client in
      let buf = api.alloc_str "misuse" in
      let conn = connect_echo api (Demikernel.Boot.endpoint server 7) in
      let listener = api.socket Tcp in
      api.bind listener (ep 8);
      api.listen listener ~backlog:4;
      let unbound = api.socket Tcp in
      let bound = api.socket Tcp in
      api.bind bound (ep 9);
      let closed = api.socket Tcp in
      api.close closed;
      let calls qd =
        [
          ("bind", fun () -> api.bind qd (ep 10));
          ("listen", fun () -> api.listen qd ~backlog:4);
          ("accept", fun () -> ignore (api.accept qd));
          ("connect", fun () -> ignore (api.connect qd (Demikernel.Boot.endpoint server 7)));
          ("close", fun () -> api.close qd);
          ("push", fun () -> ignore (api.push qd [ buf ]));
          ("pushto", fun () -> ignore (api.pushto qd (Demikernel.Boot.endpoint server 7) [ buf ]));
          ("pop", fun () -> ignore (api.pop qd));
          ("seek", fun () -> api.seek qd 0);
          ("truncate", fun () -> api.truncate qd 0);
        ]
      in
      let case what f =
        let r =
          match f () with
          | () -> "no error"
          | exception Invalid_argument _ -> "Invalid_argument"
          | exception Unsupported _ -> "Unsupported"
        in
        outcomes := (what, r) :: !outcomes
      in
      case "push on a listener" (fun () -> ignore (api.push listener [ buf ]));
      case "pop on a listener" (fun () -> ignore (api.pop listener));
      case "accept on a connection" (fun () -> ignore (api.accept conn));
      case "listen on an unbound socket" (fun () -> api.listen unbound ~backlog:4);
      case "bind on a bound socket" (fun () -> api.bind bound (ep 11));
      case "connect on a listener" (fun () ->
          ignore (api.connect listener (Demikernel.Boot.endpoint server 7)));
      case "pushto on a TCP qd" (fun () ->
          ignore (api.pushto conn (Demikernel.Boot.endpoint server 7) [ buf ]));
      case "seek on a socket" (fun () -> api.seek conn 0);
      List.iter (fun (call, f) -> case (call ^ " on an unknown qd") f) (calls 999);
      List.iter (fun (call, f) -> case (call ^ " on a closed qd") f) (calls closed);
      api.close conn;
      api.free buf);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  let outcomes = List.rev !outcomes in
  check_int "every case ran" 28 (List.length outcomes);
  Alcotest.(check (list (pair string string)))
    "every misuse raises Invalid_argument"
    (List.map (fun (what, _) -> (what, "Invalid_argument")) outcomes)
    outcomes

(* ---------- wait_any against a reference scan ---------- *)

(* One step of a wait_any script: the slots completed before the call,
   the slots a second coroutine completes once the caller has blocked,
   and whether the call carries a timeout. Slot [i] is the token at
   index [i] of the wait set; each slot pops its own in-memory queue. *)
type wait_step = { before : int list; while_blocked : int list; timed : bool }

let wait_step_gen n =
  QCheck.Gen.(
    map3
      (fun before while_blocked timed -> { before; while_blocked; timed })
      (list_size (int_bound 3) (int_bound (n - 1)))
      (list_size (int_bound 3) (int_bound (n - 1)))
      bool)

let wait_script_gen =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    pair (return n)
      (pair (shuffle_l (List.init n Fun.id)) (list_size (int_range 1 30) (wait_step_gen n))))

(* The reference: a scan of the whole set for its lowest ready index. *)
let lowest_ready ready =
  let rec scan i = if i >= Array.length ready then None else if ready.(i) then Some i else scan (i + 1) in
  scan 0

let wait_any_matches_reference =
  QCheck.Test.make ~name:"wait_any returns the lowest ready index (reference scan)" ~count:150
    (QCheck.make wait_script_gen) (fun (n, (order, steps)) ->
      let sim = Engine.Sim.create () in
      let fabric = Net.Fabric.create sim ~cost:bare () in
      let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
      let open Demikernel.Pdpix in
      let control = ref None in
      let slots = ref [||] in
      let completer_done = ref false in
      let ok = ref true in
      let finished = ref false in
      let expect what holds =
        if not holds then begin
          ok := false;
          Printf.eprintf "wait_any script mismatch: %s\n" what
        end
      in
      Demikernel.Boot.run_app node ~name:"caller" (fun api ->
          let ctl = api.queue () in
          control := Some ctl;
          let queues = Array.init n (fun _ -> api.queue ()) in
          slots := queues;
          let qts = Array.make n 0 in
          (* Mint the first tokens in a shuffled order, so the set is not
             sorted by token number. *)
          List.iter (fun i -> qts.(i) <- api.pop queues.(i)) order;
          let ready = Array.make n false in
          let complete i =
            (* Only pending slots: a second push would queue an item for
               the slot's next pop instead. *)
            if not ready.(i) then begin
              ready.(i) <- true;
              match api.wait (api.push queues.(i) [ api.alloc_str (string_of_int i) ]) with
              | Pushed -> ()
              | _ -> failwith "push"
            end
          in
          let redeemed i c =
            (match c with
            | Popped sga ->
                expect "payload names the slot" (sga_to_string sga = string_of_int i);
                List.iter api.free sga
            | _ -> expect "popped" false);
            ready.(i) <- false;
            qts.(i) <- api.pop queues.(i)
          in
          List.iter
            (fun step ->
              List.iter complete step.before;
              let later =
                List.sort_uniq compare (List.filter (fun i -> not ready.(i)) step.while_blocked)
              in
              let expected =
                match lowest_ready ready with
                | Some i -> Some i
                | None -> ( match later with i :: _ -> Some i | [] -> None)
              in
              (* Hand the completer its slots only when this call will
                 block; they are marked ready as it completes them. *)
              if lowest_ready ready = None && later <> [] then begin
                List.iter (fun i -> ready.(i) <- true) later;
                let msg = String.concat "," (List.map string_of_int later) in
                match api.wait (api.push ctl [ api.alloc_str msg ]) with
                | Pushed -> ()
                | _ -> failwith "control push"
              end;
              if step.timed || expected = None then
                (* Short when nothing can complete; generous when the
                   completer has work, so the timeout never races it. *)
                let timeout_ns = if expected = None then 1_000 else 1_000_000 in
                match (api.wait_any_t qts ~timeout_ns, expected) with
                | None, None -> ()
                | Some (i, c), Some e ->
                    expect "wait_any_t index" (i = e);
                    redeemed i c
                | _ -> expect "wait_any_t timed out iff nothing was ready" false
              else
                match expected with
                | Some e ->
                    let i, c = api.wait_any qts in
                    expect "wait_any index" (i = e);
                    redeemed i c
                | None -> assert false)
            steps;
          (* Whatever is still outstanding — timed-out tokens included —
             stays redeemable. *)
          for i = 0 to n - 1 do complete i done;
          for _ = 1 to n do
            let e = match lowest_ready ready with Some e -> e | None -> -1 in
            let i, c = api.wait_any qts in
            expect "final drain index" (i = e);
            (match c with Popped sga -> List.iter api.free sga | _ -> expect "popped" false);
            ready.(i) <- false;
            qts.(i) <- api.pop queues.(i)
          done;
          ignore (api.wait (api.push ctl []));
          finished := true);
      Demikernel.Boot.run_app node ~name:"completer" (fun api ->
          let ctl = Option.get !control in
          let rec serve () =
            match api.wait (api.pop ctl) with
            | Popped [] -> completer_done := true
            | Popped sga ->
                let msg = sga_to_string sga in
                List.iter api.free sga;
                List.iter
                  (fun i ->
                    let q = !slots.(int_of_string i) in
                    match api.wait (api.push q [ api.alloc_str i ]) with
                    | Pushed -> ()
                    | _ -> failwith "push")
                  (String.split_on_char ',' msg);
                serve ()
            | _ -> failwith "control pop"
          in
          serve ());
      Demikernel.Boot.start node;
      Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
      !ok && !finished && !completer_done)

let test_wait_any_shared_token () =
  (* Two wait_any calls blocked on overlapping sets: the shared token's
     completion wakes only the later registrant, as one waiter slot per
     token would, so it is the later call that redeems it. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let open Demikernel.Pdpix in
  let queues = ref [||] and tokens = ref [||] in
  let got = ref [] in
  let waiter name set =
    Demikernel.Boot.run_app node ~name (fun api ->
        if !queues = [||] then begin
          queues := Array.init 3 (fun _ -> api.queue ());
          tokens := Array.map api.pop !queues
        end;
        let qts = Array.map (fun k -> !tokens.(k)) set in
        let i, c = api.wait_any qts in
        (match c with Popped sga -> List.iter api.free sga | _ -> failwith "popped");
        got := (name, set.(i)) :: !got)
  in
  (* Slots: 0 = x, 1 = y (shared), 2 = z. *)
  waiter "first" [| 0; 1 |];
  waiter "second" [| 1; 2 |];
  Demikernel.Boot.run_app node ~name:"completer" (fun api ->
      List.iter
        (fun k ->
          (match api.wait (api.push !queues.(k) [ api.alloc_str "m" ]) with
          | Pushed -> ()
          | _ -> failwith "push");
          (* Let whoever was woken run before the next completion. *)
          for _ = 1 to 3 do api.yield () done)
        [ 1; 0; 2 ]);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (list (pair string int)))
    "the later registrant takes the shared token" [ ("first", 0); ("second", 1) ]
    (List.sort compare !got)

(* Words allocated per wait_any call (minor heap plus direct major
   allocations, which is where an O(n) array of 2,048 entries would
   land) must not depend on the size of the wait set. The mean is taken
   over the calls whose measured window saw no minor collection: one
   that lands inside a window can inflate that window's Gc.counters
   reading by tens of thousands of words with no simulator event run
   (seen with OCAMLRUNPARAM=s=64k). *)
let wait_any_words ~tokens =
  let sim = Engine.Sim.create () in
  (* Free libcalls: the PDPIX wrapper never sleeps, so no other event
     runs inside a measured call. *)
  let fabric = Net.Fabric.create sim ~cost:{ bare with Net.Cost.libos_sched_ns = 0 } () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let per_call = ref nan in
  Demikernel.Boot.run_app node (fun api ->
      let open Demikernel.Pdpix in
      let q = api.queue () in
      let qts = Array.init tokens (fun _ -> api.pop q) in
      let buf = api.alloc_str "x" in
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let minor_gcs () = (Gc.quick_stat ()).minor_collections in
      let calls = 512 in
      let words = ref 0.0 and counted = ref 0 in
      for _ = 1 to calls do
        (* The push completes the oldest pending pop: one ready token. *)
        (match api.wait (api.push q [ buf ]) with Pushed -> () | _ -> failwith "push");
        let gcs = minor_gcs () in
        let before = allocated () in
        let i, _ = api.wait_any qts in
        let after = allocated () in
        if minor_gcs () = gcs then begin
          words := !words +. (after -. before);
          incr counted
        end;
        qts.(i) <- api.pop q
      done;
      if !counted >= calls / 2 then per_call := !words /. float_of_int !counted);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  !per_call

let test_wait_any_words_flat () =
  let small = wait_any_words ~tokens:16 in
  let large = wait_any_words ~tokens:2048 in
  if Float.is_nan small || Float.is_nan large then Alcotest.fail "measurement did not run";
  if Float.abs (large -. small) > 4.0 then
    Alcotest.failf "words per wait_any: %.1f at 16 tokens, %.1f at 2048" small large

(* Words allocated per complete -> wake -> redeem cycle while [blocked]
   coroutines wait, each in [wait] on its own pop of one in-memory
   queue. A push completes the oldest pop; its receiver redeems it, pops
   again and blocks again. With one waiter slot per token the cycle
   costs the same words however many coroutines wait. Sent through the
   [wait_any] watcher list instead, every unlink re-conses the list's
   prefix. Windows that saw a minor collection are skipped, as in
   [wait_any_words], and so are the first cycles: the first push grows
   the token table past the receivers' tokens, once. *)
let wait_cycle_words ~blocked =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:{ bare with Net.Cost.libos_sched_ns = 0 } () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let queue = ref None in
  let served = ref 0 in
  let per_cycle = ref nan in
  Demikernel.Boot.run_app node ~name:"driver" (fun api ->
      let open Demikernel.Pdpix in
      let q = api.queue () in
      queue := Some q;
      (* Every receiver runs once, up to its first blocking wait. *)
      api.yield ();
      let buf = api.alloc_str "x" in
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let minor_gcs () = (Gc.quick_stat ()).minor_collections in
      let warmup = 16 and cycles = 512 in
      let words = ref 0.0 and counted = ref 0 in
      for i = 1 to warmup + cycles do
        let target = !served + 1 in
        let gcs = minor_gcs () in
        let before = allocated () in
        (match api.wait (api.push q [ buf ]) with Pushed -> () | _ -> failwith "push");
        while !served < target do
          api.yield ()
        done;
        let after = allocated () in
        if i > warmup && minor_gcs () = gcs then begin
          words := !words +. (after -. before);
          incr counted
        end
      done;
      if !counted >= cycles / 2 then per_cycle := !words /. float_of_int !counted);
  for _ = 1 to blocked do
    Demikernel.Boot.run_app node ~name:"receiver" (fun api ->
        let q = Option.get !queue in
        let rec receive () =
          match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop q) with
          | Demikernel.Pdpix.Popped _ ->
              incr served;
              receive ()
          | _ -> failwith "pop"
        in
        receive ())
  done;
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  !per_cycle

let test_wait_cycle_words_flat () =
  let small = wait_cycle_words ~blocked:16 in
  let large = wait_cycle_words ~blocked:2048 in
  if Float.is_nan small || Float.is_nan large then Alcotest.fail "measurement did not run";
  if Float.abs (large -. small) > 4.0 then
    Alcotest.failf "words per wait cycle: %.1f with 16 blocked, %.1f with 2048" small large

(* ---------- bytes moved off the selfcheck's paths ---------- *)

(* The selfcheck pins the bytes each flavor's echo moves. These worlds
   reach the copy sites it never runs: out-of-order reassembly under
   loss, IP fragments, and Cattree on an SSD. Every world is
   deterministic, so each count is exact: one more copy fails it. *)
let bytes_moved f =
  let moved0 = Engine.Copies.moved () in
  f ();
  Engine.Copies.moved () - moved0

let test_copies_off_selfcheck () =
  let lossy =
    bytes_moved (fun () ->
        let r =
          Harness.Observe.run Harness.Observe.off
            { (Harness.Observe.echo Demikernel.Boot.Catnip_os) with loss = 0.2; msg_size = 8192 }
        in
        check_int "lossy echo: every request answered" 16 (List.length r.latencies))
  in
  let fragments =
    bytes_moved (fun () ->
        let finished, _ = udp_echo ~msg_size:4000 ~count:8 in
        check_bool "fragmented udp echo finished" true finished)
  in
  let disk = bytes_moved (fun () -> ignore (Test_recovery.compaction_world ())) in
  check_int "lossy catnip tcp echo (8 KiB messages, 20% loss)" 856_928 lossy;
  check_int "udp echo of 4,000 B datagrams (IP fragments)" 356_392 fragments;
  check_int "dkv sets persisted through cattree" 3_639_080 disk

let suite =
  [
    Alcotest.test_case "waker basic" `Quick test_waker_basic;
    Alcotest.test_case "waker across blocks" `Quick test_waker_many_blocks;
    Alcotest.test_case "waker set idempotent" `Quick test_waker_set_idempotent;
    QCheck_alcotest.to_alcotest waker_random;
    Alcotest.test_case "sched run to completion" `Quick test_sched_run_to_completion;
    Alcotest.test_case "sched yield interleaves" `Quick test_sched_yield_interleaves;
    Alcotest.test_case "sched priorities" `Quick test_sched_priorities;
    Alcotest.test_case "sched block/wake" `Quick test_sched_block_wake;
    Alcotest.test_case "sched wake before block" `Quick test_sched_wake_before_block;
    Alcotest.test_case "sched deadlock detection" `Quick test_sched_deadlock_detection;
    Alcotest.test_case "sched charge advances time" `Quick test_sched_charge_advances_time;
    Alcotest.test_case "echo over catnip" `Quick test_echo_catnip;
    Alcotest.test_case "echo over catmint" `Quick test_echo_catmint;
    Alcotest.test_case "echo over catnap" `Quick test_echo_catnap;
    Alcotest.test_case "echo latency ordering (fig 5 shape)" `Quick test_echo_ordering_matches_paper;
    Alcotest.test_case "zero-copy accounting" `Quick test_echo_zero_copy_accounting;
    Alcotest.test_case "udp echo over catnip" `Quick test_echo_udp_catnip;
    Alcotest.test_case "echo with persistence (fig 7 path)" `Quick test_echo_with_persistence;
    Alcotest.test_case "echo under loss (UAF protection live)" `Quick test_uaf_protection_live;
    Alcotest.test_case "tcb pool clean after 1k-connection churn (catnip)" `Quick
      test_tcb_churn_catnip;
    Alcotest.test_case "frame lifecycle: every frame freed once (catnip)" `Quick
      test_frame_lifecycle;
    Alcotest.test_case "frame lifecycle: every frame freed once (catmint)" `Quick
      test_frame_lifecycle_catmint;
    Alcotest.test_case "rnic drops non-RoCE frames (ARP broadcast)" `Quick
      test_rnic_drops_non_roce;
    Alcotest.test_case "memq roundtrip" `Quick test_memq;
    Alcotest.test_case "wait_any returns completed index" `Quick test_wait_any_wakes_one;
    QCheck_alcotest.to_alcotest wait_any_matches_reference;
    Alcotest.test_case "wait_any shared token wakes the later registrant" `Quick
      test_wait_any_shared_token;
    Alcotest.test_case "wait_any words do not grow with the wait set" `Quick
      test_wait_any_words_flat;
    Alcotest.test_case "wait words do not grow with the blocked coroutines" `Quick
      test_wait_cycle_words_flat;
    Alcotest.test_case "multi-worker request dispatch (C2)" `Quick test_multi_worker_dispatch;
    Alcotest.test_case "cattree log roundtrip" `Quick test_cattree_log_roundtrip;
    Alcotest.test_case "oracle: clean echo has no violations" `Quick test_oracle_clean_echo;
    Alcotest.test_case "oracle: write in flight" `Quick test_oracle_write_in_flight;
    Alcotest.test_case "oracle: free in flight" `Quick test_oracle_free_in_flight;
    Alcotest.test_case "oracle: dropped token" `Quick test_oracle_dropped_token;
    Alcotest.test_case "wait_any_t timeout keeps tokens (catnip)" `Quick
      test_wait_any_t_timeout_catnip;
    Alcotest.test_case "wait_any_t timeout keeps tokens (catnap)" `Quick
      test_wait_any_t_timeout_catnap;
    Alcotest.test_case "sched charge is forwarded to the host fiber" `Quick
      test_sched_charge_forwarded_to_host_fiber;
    Alcotest.test_case "words: host charge in a coroutine" `Quick test_sched_charge_words;
    Alcotest.test_case "words: yield round trip" `Quick test_sched_yield_words;
  ]
  @ List.concat_map
      (fun flavor ->
        let name = Demikernel.Boot.flavor_name flavor in
        [
          Alcotest.test_case (Printf.sprintf "close fails pending tokens (%s)" name) `Quick
            (close_fails_pending flavor);
          Alcotest.test_case (Printf.sprintf "close releases ports (%s)" name) `Quick
            (close_releases_ports flavor);
          Alcotest.test_case (Printf.sprintf "misuse raises Invalid_argument (%s)" name) `Quick
            (misuse_raises flavor);
        ])
      Demikernel.Boot.[ Catnip_os; Catnap_os; Catmint_os ]
  @ [
      Alcotest.test_case "listener close resets unaccepted connections (catnip)" `Quick
        (close_ends_unaccepted Demikernel.Boot.Catnip_os ("connection reset", "connection reset"));
      Alcotest.test_case "listener close ends unaccepted channels (catmint)" `Quick
        (close_ends_unaccepted Demikernel.Boot.Catmint_os ("eof", "pushed"));
      Alcotest.test_case "listener close resets unaccepted connections (catnap)" `Quick
        (close_ends_unaccepted Demikernel.Boot.Catnap_os ("connection reset", "connection reset"));
      Alcotest.test_case "catmint stalled retry: same seed, same wire bytes" `Quick
        test_catmint_stalled_retry_same_wire;
      Alcotest.test_case "copies: lossy reassembly, IP fragments and a Dkv log on disk" `Quick
        test_copies_off_selfcheck;
    ]

