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

let test_echo_udp_catnip () =
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
       ~src_port:5001 ~msg_size:64 ~count:50
       ~record:(Metrics.Hdr.add rtts)
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_bool "finished" true !finished;
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
    Alcotest.test_case "memq roundtrip" `Quick test_memq;
    Alcotest.test_case "wait_any returns completed index" `Quick test_wait_any_wakes_one;
    QCheck_alcotest.to_alcotest wait_any_matches_reference;
    Alcotest.test_case "wait_any shared token wakes the later registrant" `Quick
      test_wait_any_shared_token;
    Alcotest.test_case "wait_any words do not grow with the wait set" `Quick
      test_wait_any_words_flat;
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
  ]
