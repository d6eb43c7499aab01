(* The TURN-style UDP relay (§7.4) on Catnip, driven by the same
   kernel-path traffic generator the paper uses.

   Run with:  dune exec examples/relay_demo.exe *)

let () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
  let relay = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app relay ~name:"relay" (Apps.Relay.server ~port:3478);
  Demikernel.Boot.start relay;
  let generator = Baselines.Linux_apps.make_kernel sim fabric ~index:2 () in
  let hist = Metrics.Hdr.create () in
  Baselines.Linux_apps.relay_generator sim generator
    ~dst:(Demikernel.Boot.endpoint relay 3478)
    ~src_port:4000 ~session:42 ~msg_size:200 ~count:1_000
    ~record:(Metrics.Hdr.add hist)
    ~on_done:(fun () -> ());
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  Format.printf "relayed %d packets: avg %a, p99 %a@." (Metrics.Hdr.count hist)
    Engine.Clock.pp
    (int_of_float (Metrics.Hdr.mean hist))
    Engine.Clock.pp (Metrics.Hdr.p99 hist)
