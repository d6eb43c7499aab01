(* Focused unit tests for remaining public-surface edges: cost
   profiles, addressing, boot wiring, API error paths. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

(* --- cost profiles --- *)

let test_profiles_ordering () =
  let w = Net.Cost.windows and a = Net.Cost.azure_vm in
  check_bool "WSL crossings dwarf native" true (w.Net.Cost.syscall_ns > 3 * bare.Net.Cost.syscall_ns);
  check_bool "WSL wakeups dwarf native" true
    (w.Net.Cost.kernel_wakeup_ns > 2 * bare.Net.Cost.kernel_wakeup_ns);
  check_int "no vnet on bare metal" 0 bare.Net.Cost.vnet_ns;
  check_bool "azure pays vnet" true (a.Net.Cost.vnet_ns > 0);
  check_bool "infiniband switch is faster" true (w.Net.Cost.switch_ns < bare.Net.Cost.switch_ns)

let serialization_monotone =
  QCheck.Test.make ~name:"serialization cost monotone in size" ~count:200
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (a, b) ->
      let sa = Net.Cost.serialization_ns bare a and sb = Net.Cost.serialization_ns bare b in
      if a <= b then sa <= sb else sa >= sb)

let copy_cost_positive =
  QCheck.Test.make ~name:"copy cost includes the fixed call overhead" ~count:100
    QCheck.(int_bound 100_000)
    (fun n -> Net.Cost.copy_cost_ns bare n >= bare.Net.Cost.copy_base_ns)

(* --- addresses --- *)

let test_mac_rendering () =
  Alcotest.(check string) "mac format" "02:00:00:00:00:03"
    (Format.asprintf "%a" Net.Addr.Mac.pp (Net.Addr.Mac.of_index 2));
  check_bool "broadcast" true (Net.Addr.Mac.is_broadcast Net.Addr.Mac.broadcast);
  check_bool "unicast" false (Net.Addr.Mac.is_broadcast (Net.Addr.Mac.of_index 1))

let test_ip_rendering () =
  Alcotest.(check string) "ip format" "10.0.0.2"
    (Format.asprintf "%a" Net.Addr.Ip.pp (Net.Addr.Ip.of_index 1));
  Alcotest.(check string) "endpoint format" "10.0.0.2:80"
    (Format.asprintf "%a" Net.Addr.pp_endpoint (Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 80))

let mac_indexes_distinct =
  QCheck.Test.make ~name:"host indexes map to distinct addresses" ~count:100
    QCheck.(pair (int_bound 60_000) (int_bound 60_000))
    (fun (i, j) ->
      i = j
      || (Net.Addr.Mac.of_index i <> Net.Addr.Mac.of_index j
         && Net.Addr.Ip.of_index i <> Net.Addr.Ip.of_index j))

(* --- boot wiring --- *)

let test_boot_heap_modes () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let mode flavor i =
    let node = Demikernel.Boot.make sim fabric ~index:i flavor in
    Memory.Heap.mode node.Demikernel.Boot.host.Demikernel.Host.heap
  in
  check_bool "catnap heap cannot DMA" true (mode Demikernel.Boot.Catnap_os 1 = Memory.Heap.Not_dma);
  check_bool "catnip heap is pool-backed" true
    (mode Demikernel.Boot.Catnip_os 2 = Memory.Heap.Pool_backed);
  check_bool "catmint heap registers on demand" true
    (mode Demikernel.Boot.Catmint_os 3 = Memory.Heap.Register_on_demand)

let test_boot_devices_match_flavor () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let catnip = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let catmint = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catmint_os in
  let catnap = Demikernel.Boot.make sim fabric ~index:3 Demikernel.Boot.Catnap_os in
  check_bool "catnip has a dpdk nic" true (catnip.Demikernel.Boot.nic <> None);
  check_bool "catnip has no rnic" true (catnip.Demikernel.Boot.rnic = None);
  check_bool "catmint has an rnic" true (catmint.Demikernel.Boot.rnic <> None);
  check_bool "catnap has a kernel" true (catnap.Demikernel.Boot.kernel <> None)

(* --- API error paths --- *)

let run_app_world f =
  let sim, _, node = Test_demikernel.host Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app node f;
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim

let test_wait_on_redeemed_token () =
  let saw = ref false in
  run_app_world (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      let buf = api.Demikernel.Pdpix.alloc_str "x" in
      let qt = api.Demikernel.Pdpix.push q [ buf ] in
      ignore (api.Demikernel.Pdpix.wait qt);
      match api.Demikernel.Pdpix.wait qt with
      | _ -> ()
      | exception Invalid_argument _ -> saw := true);
  check_bool "double redeem rejected" true !saw

let test_udp_oversize_datagram_rejected () =
  let saw = ref false in
  run_app_world (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      api.Demikernel.Pdpix.bind qd (Net.Addr.endpoint 0 9);
      let buf = api.Demikernel.Pdpix.alloc 66_000 in
      (try
         ignore
           (api.Demikernel.Pdpix.pushto qd (Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9)
              [ buf ])
       with Invalid_argument _ -> saw := true);
      api.Demikernel.Pdpix.free buf);
  check_bool "oversize datagram rejected" true !saw

let test_bind_port_collision () =
  let saw = ref false in
  run_app_world (fun api ->
      let a = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      api.Demikernel.Pdpix.bind a (Net.Addr.endpoint 0 9);
      let b = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      try api.Demikernel.Pdpix.bind b (Net.Addr.endpoint 0 9)
      with Invalid_argument _ -> saw := true);
  check_bool "port collision rejected" true !saw

let test_dkv_error_response () =
  (* The server keeps serving after ordinary traffic (the hostile-bytes
     case is covered by the protocol parse tests and the fuzzers). *)
  let sim, server, client = Test_demikernel.pair Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Dkv.server ~port:6379);
  let results = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server 6379) in
      let set_status = Apps.Dkv.set c "k" "v" in
      let get_status = fst (Apps.Dkv.get c "k") in
      results := [ set_status; get_status ];
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "normal traffic fine" true (!results = [ Apps.Dkv.Ok; Apps.Dkv.Ok ])

let test_relay_unknown_session () =
  (* Relaying to an unregistered session is silently dropped; the relay
     stays up. *)
  let sim, relay, gen = Test_demikernel.pair Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app relay (Apps.Relay.server ~port:3478);
  let alive = ref false in
  Demikernel.Boot.run_app gen (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      api.Demikernel.Pdpix.bind qd (Net.Addr.endpoint 0 4000);
      (* op=1 (relay) for a session nobody registered. *)
      let b = Bytes.make 10 'x' in
      Net.Wire.set_u32 b 0 777;
      Net.Wire.set_u8 b 4 1;
      let buf = api.Demikernel.Pdpix.alloc_str (Bytes.unsafe_to_string b) in
      ignore
        (api.Demikernel.Pdpix.wait
           (api.Demikernel.Pdpix.pushto qd (Demikernel.Boot.endpoint relay 3478) [ buf ]));
      api.Demikernel.Pdpix.free buf;
      (* Now register and relay for real; the server must still work. *)
      alive := true);
  Demikernel.Boot.start relay;
  Demikernel.Boot.start gen;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_bool "relay survived garbage" true !alive

let test_kernel_connect_refused () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let k1 = Baselines.Linux_apps.make_kernel sim fabric ~index:1 () in
  let _k2 = Baselines.Linux_apps.make_kernel sim fabric ~index:2 () in
  let refused = ref false in
  Engine.Fiber.spawn sim (fun () ->
      match Oskernel.Kernel.connect k1 ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 99) with
      | _ -> ()
      | exception Failure _ -> refused := true);
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "kernel connect refused" true !refused

let test_table_rendering_smoke () =
  let t = Metrics.Table.create ~title:"smoke" ~columns:[ "a"; "b" ] in
  Metrics.Table.add_row t [ "x"; Metrics.Table.cell_ns 1234 ];
  Metrics.Table.print t (* must not raise *)

let suite =
  [
    Alcotest.test_case "cost profiles ordering" `Quick test_profiles_ordering;
    QCheck_alcotest.to_alcotest serialization_monotone;
    QCheck_alcotest.to_alcotest copy_cost_positive;
    Alcotest.test_case "mac rendering" `Quick test_mac_rendering;
    Alcotest.test_case "ip rendering" `Quick test_ip_rendering;
    QCheck_alcotest.to_alcotest mac_indexes_distinct;
    Alcotest.test_case "boot heap modes per flavor" `Quick test_boot_heap_modes;
    Alcotest.test_case "boot devices per flavor" `Quick test_boot_devices_match_flavor;
    Alcotest.test_case "double token redeem rejected" `Quick test_wait_on_redeemed_token;
    Alcotest.test_case "oversize udp datagram rejected" `Quick test_udp_oversize_datagram_rejected;
    Alcotest.test_case "bind port collision" `Quick test_bind_port_collision;
    Alcotest.test_case "dkv stays up for hostile clients" `Quick test_dkv_error_response;
    Alcotest.test_case "relay ignores unknown sessions" `Quick test_relay_unknown_session;
    Alcotest.test_case "kernel connect refused" `Quick test_kernel_connect_refused;
    Alcotest.test_case "table rendering smoke" `Quick test_table_rendering_smoke;
  ]
