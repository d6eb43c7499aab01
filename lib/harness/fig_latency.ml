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

let fig5 () =
  let raw_dpdk = Common.raw_dpdk_rtt () in
  let raw_rdma = Common.raw_rdma_rtt () in
  let dpdk_base = int_of_float (Metrics.Hdr.mean raw_dpdk) in
  let rdma_base = int_of_float (Metrics.Hdr.mean raw_rdma) in
  [
    row_of "Linux" (Common.linux_echo_rtt ~proto:Common.Echo_udp ());
    row_of "Catnap" (Common.demi_echo_rtt ~proto:Common.Echo_udp Demikernel.Boot.Catnap_os);
    row_of "Catmint" ~baseline:rdma_base
      (Common.demi_echo_rtt ~proto:Common.Echo_tcp Demikernel.Boot.Catmint_os);
    row_of "Catnip (UDP)" ~baseline:dpdk_base
      (Common.demi_echo_rtt ~proto:Common.Echo_udp Demikernel.Boot.Catnip_os);
    row_of "Catnip (TCP)" ~baseline:dpdk_base
      (Common.demi_echo_rtt ~proto:Common.Echo_tcp Demikernel.Boot.Catnip_os);
    row_of "eRPC" (Common.kb_echo_rtt Baselines.Kb_lib.erpc);
    row_of "Shenango" (Common.kb_echo_rtt Baselines.Kb_lib.shenango);
    row_of "Caladan" (Common.kb_echo_rtt Baselines.Kb_lib.caladan);
    row_of "Raw DPDK" raw_dpdk;
    row_of "Raw RDMA" raw_rdma;
  ]

let fig6_windows () =
  let cost = Net.Cost.windows in
  [
    row_of "Linux (WSL)" (Common.linux_echo_rtt ~cost ~proto:Common.Echo_udp ());
    row_of "Catnap (WSL)"
      (Common.demi_echo_rtt ~cost ~proto:Common.Echo_udp Demikernel.Boot.Catnap_os);
    row_of "Catpaw (RDMA)"
      (Common.demi_echo_rtt ~cost ~proto:Common.Echo_tcp Demikernel.Boot.Catmint_os);
  ]

let fig6_azure () =
  let cost = Net.Cost.azure_vm in
  [
    row_of "Linux (VM)" (Common.linux_echo_rtt ~cost ~proto:Common.Echo_udp ());
    row_of "Catnap (VM)"
      (Common.demi_echo_rtt ~cost ~proto:Common.Echo_udp Demikernel.Boot.Catnap_os);
    row_of "Catnip (vnet DPDK)"
      (Common.demi_echo_rtt ~cost ~proto:Common.Echo_udp Demikernel.Boot.Catnip_os);
    row_of "Catmint (bare-metal IB)"
      (Common.demi_echo_rtt ~cost ~proto:Common.Echo_tcp Demikernel.Boot.Catmint_os);
  ]

let fig7 () =
  [
    row_of "Linux" (Common.linux_echo_rtt ~persist:true ~proto:Common.Echo_udp ());
    row_of "Catnap"
      (Common.demi_echo_rtt ~persist:true ~proto:Common.Echo_tcp Demikernel.Boot.Catnap_os);
    row_of "Catmint x Cattree"
      (Common.demi_echo_rtt ~persist:true ~proto:Common.Echo_tcp Demikernel.Boot.Catmint_os);
    row_of "Catnip (TCP) x Cattree"
      (Common.demi_echo_rtt ~persist:true ~proto:Common.Echo_tcp Demikernel.Boot.Catnip_os);
  ]

let fig5_orderings_hold ?cost () =
  let avg hist = int_of_float (Metrics.Hdr.mean hist) in
  let linux = avg (Common.linux_echo_rtt ?cost ~proto:Common.Echo_udp ()) in
  let catnap = avg (Common.demi_echo_rtt ?cost ~proto:Common.Echo_udp Demikernel.Boot.Catnap_os) in
  let catmint = avg (Common.demi_echo_rtt ?cost ~proto:Common.Echo_tcp Demikernel.Boot.Catmint_os) in
  let catnip_udp = avg (Common.demi_echo_rtt ?cost ~proto:Common.Echo_udp Demikernel.Boot.Catnip_os) in
  let catnip_tcp = avg (Common.demi_echo_rtt ?cost ~proto:Common.Echo_tcp Demikernel.Boot.Catnip_os) in
  let raw_rdma = avg (Common.raw_rdma_rtt ?cost ()) in
  let raw_dpdk = avg (Common.raw_dpdk_rtt ?cost ()) in
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
