type row = {
  system : string;
  avg_ns : int;
  p99_ns : int;
  datapath_ns_per_io : int option;
}

let row_of ?baseline system hist =
  let avg = int_of_float (Metrics.Hdr.mean hist) in
  {
    system;
    avg_ns = avg;
    p99_ns = Metrics.Hdr.p99 hist;
    (* Four datapath I/O operations per echo: client push/pop, server
       pop/push (Figure 5's upper numbers). *)
    datapath_ns_per_io =
      (match baseline with Some b when avg > b -> Some ((avg - b) / 4) | Some _ | None -> None);
  }

type system =
  | Demi of Demikernel.Boot.flavor * Observe.echo_proto
  | Linux of Observe.echo_proto
  | Kb of Baselines.Kb_lib.profile
  | Raw_dpdk
  | Raw_rdma

(* One closed-loop echo between hosts 1 (server) and 2 (client) in a
   fresh world, every recorder off; each RTT reaches the world's
   [record]. *)
let echo_rtt ?(cost = Net.Cost.bare_metal) ?(persist = false) ?(msg_size = 64) ?count system =
  let count = match count with Some c -> c | None -> !Observe.default_count in
  let baseline wire =
    Observe.build Observe.off
      (Observe.cell ~cost "baseline echo" (fun w ->
           wire w;
           []))
  in
  let r =
    match system with
    | Demi (flavor, proto) ->
        Observe.run Observe.off
          { (Observe.echo flavor) with app = Echo proto; count; msg_size; cost; persist }
    | Linux proto ->
        baseline (fun w ->
            let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric in
            let server = kernel ~index:1 ~with_disk:persist () in
            let client = kernel ~index:2 () in
            let dst = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7 in
            match proto with
            | Observe.Echo_tcp ->
                Baselines.Linux_apps.echo_tcp_server w.sim server ~port:7 ~persist;
                Baselines.Linux_apps.echo_tcp_client w.sim client ~dst ~msg_size ~count
                  ~record:w.record ~on_done:ignore
            | Observe.Echo_udp ->
                Baselines.Linux_apps.echo_udp_server w.sim server ~port:7 ~persist;
                Baselines.Linux_apps.echo_udp_client w.sim client ~dst ~src_port:5001 ~msg_size
                  ~count ~record:w.record ~on_done:ignore)
    | Kb profile ->
        baseline (fun w ->
            Baselines.Kb_lib.echo profile w.sim w.fabric ~server_index:1 ~client_index:2
              ~msg_size ~count ~record:w.record ~on_done:ignore)
    | Raw_dpdk ->
        baseline (fun w ->
            Baselines.Raw.testpmd_echo w.sim w.fabric ~server_index:1 ~client_index:2 ~msg_size
              ~count ~record:w.record ~on_done:ignore)
    | Raw_rdma ->
        baseline (fun w ->
            Baselines.Raw.perftest_pingpong w.sim w.fabric ~server_index:1 ~client_index:2
              ~msg_size ~count ~record:w.record ~on_done:ignore)
  in
  Metrics.Hdr.of_list r.latencies

let fig5 () =
  let raw_dpdk = echo_rtt Raw_dpdk in
  let raw_rdma = echo_rtt Raw_rdma in
  let dpdk_base = int_of_float (Metrics.Hdr.mean raw_dpdk) in
  let rdma_base = int_of_float (Metrics.Hdr.mean raw_rdma) in
  Demikernel.Boot.
    [
      row_of "Linux" (echo_rtt (Linux Echo_udp));
      row_of "Catnap" (echo_rtt (Demi (Catnap_os, Echo_udp)));
      row_of "Catmint" ~baseline:rdma_base (echo_rtt (Demi (Catmint_os, Echo_tcp)));
      row_of "Catnip (UDP)" ~baseline:dpdk_base (echo_rtt (Demi (Catnip_os, Echo_udp)));
      row_of "Catnip (TCP)" ~baseline:dpdk_base (echo_rtt (Demi (Catnip_os, Echo_tcp)));
      row_of "eRPC" (echo_rtt (Kb Baselines.Kb_lib.erpc));
      row_of "Shenango" (echo_rtt (Kb Baselines.Kb_lib.shenango));
      row_of "Caladan" (echo_rtt (Kb Baselines.Kb_lib.caladan));
      row_of "Raw DPDK" raw_dpdk;
      row_of "Raw RDMA" raw_rdma;
    ]

let fig6_windows () =
  let cost = Net.Cost.windows in
  Demikernel.Boot.
    [
      row_of "Linux (WSL)" (echo_rtt ~cost (Linux Echo_udp));
      row_of "Catnap (WSL)" (echo_rtt ~cost (Demi (Catnap_os, Echo_udp)));
      row_of "Catpaw (RDMA)" (echo_rtt ~cost (Demi (Catmint_os, Echo_tcp)));
    ]

let fig6_azure () =
  let cost = Net.Cost.azure_vm in
  Demikernel.Boot.
    [
      row_of "Linux (VM)" (echo_rtt ~cost (Linux Echo_udp));
      row_of "Catnap (VM)" (echo_rtt ~cost (Demi (Catnap_os, Echo_udp)));
      row_of "Catnip (vnet DPDK)" (echo_rtt ~cost (Demi (Catnip_os, Echo_udp)));
      row_of "Catmint (bare-metal IB)" (echo_rtt ~cost (Demi (Catmint_os, Echo_tcp)));
    ]

let fig7 () =
  let persist = true in
  Demikernel.Boot.
    [
      row_of "Linux" (echo_rtt ~persist (Linux Echo_udp));
      row_of "Catnap" (echo_rtt ~persist (Demi (Catnap_os, Echo_tcp)));
      row_of "Catmint x Cattree" (echo_rtt ~persist (Demi (Catmint_os, Echo_tcp)));
      row_of "Catnip (TCP) x Cattree" (echo_rtt ~persist (Demi (Catnip_os, Echo_tcp)));
    ]

let fig5_orderings_hold ?cost () =
  let avg system = int_of_float (Metrics.Hdr.mean (echo_rtt ?cost system)) in
  let linux = avg (Linux Echo_udp) in
  let catnap = avg (Demi (Catnap_os, Echo_udp)) in
  let catmint = avg (Demi (Catmint_os, Echo_tcp)) in
  let catnip_udp = avg (Demi (Catnip_os, Echo_udp)) in
  let catnip_tcp = avg (Demi (Catnip_os, Echo_tcp)) in
  let raw_rdma = avg Raw_rdma in
  let raw_dpdk = avg Raw_dpdk in
  let checks =
    [
      ("raw-rdma<catmint", raw_rdma < catmint);
      ("catmint<catnip-udp", catmint < catnip_udp);
      ("raw-dpdk<catnip-udp", raw_dpdk < catnip_udp);
      ("catnip-udp<catnip-tcp", catnip_udp < catnip_tcp);
      ("catnip-tcp<catnap", catnip_tcp < catnap);
      ("catnap<linux", catnap < linux);
    ]
  in
  let ok = List.for_all snd checks in
  let summary =
    Printf.sprintf "rdma=%.1f mint=%.1f dpdk=%.1f nip-u=%.1f nip-t=%.1f nap=%.1f linux=%.1f%s"
      (float_of_int raw_rdma /. 1e3)
      (float_of_int catmint /. 1e3)
      (float_of_int raw_dpdk /. 1e3)
      (float_of_int catnip_udp /. 1e3)
      (float_of_int catnip_tcp /. 1e3)
      (float_of_int catnap /. 1e3)
      (float_of_int linux /. 1e3)
      (if ok then ""
       else
         " broken:"
         ^ String.concat ","
             (List.filter_map (fun (n, v) -> if v then None else Some n) checks))
  in
  (ok, summary)

let print ~title rows =
  let table =
    Metrics.Table.create ~title
      ~columns:[ "system"; "avg RTT"; "p99 RTT"; "datapath OS ns/IO" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          r.system;
          Metrics.Table.cell_ns r.avg_ns;
          Metrics.Table.cell_ns r.p99_ns;
          (match r.datapath_ns_per_io with Some n -> Metrics.Table.cell_ns n | None -> "-");
        ])
    rows;
  Metrics.Table.print table
