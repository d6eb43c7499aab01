type world = { sim : Engine.Sim.t; fabric : Net.Fabric.t; cost : Net.Cost.t }

let default_count = ref 2_000

let make_world ?(cost = Net.Cost.bare_metal) ?(loss = 0.) ?(seed = 1L) () =
  let sim = Engine.Sim.create ~seed () in
  let fabric = Net.Fabric.create sim ~cost ~loss () in
  { sim; fabric; cost }

let run_world ?(horizon_s = 600) w =
  Engine.Sim.run ~until:(Engine.Clock.s horizon_s) w.sim;
  Engine.Sim.teardown w.sim

type echo_proto = Echo_tcp | Echo_udp

(* One measurement in a fresh world: [setup] wires the apps, every RTT
   they record lands in the returned histogram. *)
let measure ?cost ?count setup =
  let count = match count with Some c -> c | None -> !default_count in
  let w = make_world ?cost () in
  let rtts = Metrics.Hdr.create () in
  setup w ~count ~record:(Metrics.Hdr.add rtts);
  run_world w;
  rtts

let linux_echo_rtt ?cost ?(persist = false) ?(msg_size = 64) ?count ~proto () =
  measure ?cost ?count (fun w ~count ~record ->
      let server_kernel =
        Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:1 ~with_disk:persist ()
      in
      let client_kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:2 () in
      let dst = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7 in
      match proto with
      | Echo_tcp ->
          Baselines.Linux_apps.echo_tcp_server w.sim server_kernel ~port:7 ~persist;
          Baselines.Linux_apps.echo_tcp_client w.sim client_kernel ~dst ~msg_size ~count ~record
            ~on_done:ignore
      | Echo_udp ->
          Baselines.Linux_apps.echo_udp_server w.sim server_kernel ~port:7 ~persist;
          Baselines.Linux_apps.echo_udp_client w.sim client_kernel ~dst ~src_port:5001 ~msg_size
            ~count ~record ~on_done:ignore)

let kb_echo_rtt ?cost ?(msg_size = 64) ?count profile =
  measure ?cost ?count (fun w ~count ~record ->
      Baselines.Kb_lib.echo profile w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size
        ~count ~record ~on_done:ignore)

let raw_dpdk_rtt ?cost ?(msg_size = 64) ?count () =
  measure ?cost ?count (fun w ~count ~record ->
      Baselines.Raw.testpmd_echo w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size ~count
        ~record ~on_done:ignore)

let raw_rdma_rtt ?cost ?(msg_size = 64) ?count () =
  measure ?cost ?count (fun w ~count ~record ->
      Baselines.Raw.perftest_pingpong w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size
        ~count ~record ~on_done:ignore)
