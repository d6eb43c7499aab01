(* ---------- Figures 10 and 12: latency rows ---------- *)

type latency_row = { system : string; avg_ns : int; p99_ns : int }

(* One latency cell with every recorder off: [wire] boots the systems
   and hands each request's latency to the world's [record]. *)
let latency_point system wire =
  let hist = Metrics.Hdr.of_list (Observe.build Observe.off (Observe.cell system wire)).latencies in
  { system; avg_ns = int_of_float (Metrics.Hdr.mean hist); p99_ns = Metrics.Hdr.p99 hist }

let print_latency ~title rows =
  let table = Metrics.Table.create ~title ~columns:[ "system"; "avg"; "p99" ] in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [ r.system; Metrics.Table.cell_ns r.avg_ns; Metrics.Table.cell_ns r.p99_ns ])
    rows;
  Metrics.Table.print table

(* ---------- Figure 10: UDP relay ---------- *)

let relay_count = ref 2_000

let fig10 ?count () =
  let count = match count with Some c -> c | None -> !relay_count in
  (* [server] installs the relay under test on host index 1; the traffic
     generator is always the same kernel-path host. *)
  let point system server =
    latency_point system (fun w ->
        let roles = server w in
        let gen_kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:2 () in
        Baselines.Linux_apps.relay_generator w.sim gen_kernel
          ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 3478)
          ~src_port:4000 ~session:7 ~msg_size:200 ~count ~record:w.record ~on_done:ignore;
        roles)
  in
  let kernel_relay ?mode (w : Observe.world) =
    let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:1 ?mode () in
    Baselines.Linux_apps.relay_server w.sim kernel ~port:3478;
    []
  in
  [
    point "Linux" kernel_relay;
    point "io_uring" (kernel_relay ~mode:Oskernel.Kernel.Uring);
    point "Catnip" (fun w ->
        let node = Demikernel.Boot.make w.Observe.sim w.fabric ~index:1 Catnip_os in
        Demikernel.Boot.run_app node (Apps.Relay.server ~port:3478);
        Demikernel.Boot.start node;
        [ ("relay", node) ]);
  ]

let print_fig10 = print_latency ~title:"Figure 10: UDP relay latency (common kernel generator)"

(* ---------- Figure 11: KV store throughput ---------- *)

type kv_row = {
  system : string;
  op : [ `Get | `Set ];
  persist : bool;
  kops : float;
}

let kv_keys = 512
let kv_value = 64

type kv_system = Linux_kv | Demi_server of Demikernel.Boot.flavor | Demi_kv of Demikernel.Boot.flavor

(* The benchmark client is redis-benchmark on a kernel host (as in the
   paper) for every TCP-compatible server; only Catmint — whose wire
   protocol is RDMA messages — uses a Demikernel client, which inflates
   its relative numbers (recorded in EXPERIMENTS.md). *)
let kv_cell system ~op ~persist ~clients ~ops_per_client ~on_start ~on_done =
  Observe.cell "fig11 kv" @@ fun w ->
  let dst = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 6379 in
  let server =
    match system with
    | Linux_kv ->
        let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:1 ~with_disk:persist () in
        Baselines.Linux_apps.kv_server w.sim kernel ~port:6379 ~persist;
        []
    | Demi_server flavor | Demi_kv flavor ->
        let node = Demikernel.Boot.make w.sim w.fabric ~index:1 ~with_disk:persist flavor in
        Demikernel.Boot.run_app node (Apps.Dkv.server ~port:6379 ~persist);
        Demikernel.Boot.start node;
        [ ("server", node) ]
  in
  let on_start () = on_start (Engine.Sim.now w.sim) and on_done () = on_done (Engine.Sim.now w.sim) in
  let demi_clients = ref [] in
  for seed = 1 to clients do
    let index = 1 + seed in
    match system with
    | Demi_kv flavor ->
        let node = Demikernel.Boot.make w.sim w.fabric ~index flavor in
        Demikernel.Boot.run_app node
          (Apps.Dkv.bench_client ~dst ~keys:kv_keys ~value_size:kv_value ~ops:ops_per_client
             ~kind:op ~seed ~on_start ~on_done);
        Demikernel.Boot.start node;
        demi_clients := (Printf.sprintf "client%d" seed, node) :: !demi_clients
    | Linux_kv | Demi_server _ ->
        let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index () in
        Baselines.Linux_apps.kv_bench_client w.sim kernel ~dst ~keys:kv_keys ~value_size:kv_value
          ~ops:ops_per_client ~kind:op ~seed ~on_start ~record:ignore ~on_done
  done;
  server @ List.rev !demi_clients

(* Closed-loop throughput over [clients] connections: ops/sec measured
   from the first post-preload operation to the last completion. *)
let kv_throughput ~clients ~ops_per_client ~op ~persist (name, system) =
  let first_start = ref max_int and last_end = ref 0 and done_count = ref 0 in
  ignore
    (Observe.build Observe.off
       (kv_cell system ~op ~persist ~clients ~ops_per_client
          ~on_start:(fun now -> first_start := min !first_start now)
          ~on_done:(fun now ->
            last_end := max !last_end now;
            incr done_count))
      : Observe.run);
  let elapsed = float_of_int (!last_end - !first_start) /. 1e9 in
  let kops =
    if elapsed > 0. && !done_count = clients then
      float_of_int (!done_count * ops_per_client) /. elapsed /. 1e3
    else 0.
  in
  { system = name; op; persist; kops }

let fig11 ?(ops_per_client = 300) ?(clients = 32) () =
  List.concat_map
    (fun system ->
      List.concat_map
        (fun persist ->
          List.map
            (fun op -> kv_throughput ~clients ~ops_per_client ~op ~persist system)
            [ `Get; `Set ])
        [ false; true ])
    Demikernel.Boot.
      [
        ("Linux", Linux_kv);
        ("Catnap", Demi_server Catnap_os);
        ("Catmint", Demi_kv Catmint_os);
        ("Catnip", Demi_server Catnip_os);
      ]

let print_fig11 rows =
  let table =
    Metrics.Table.create ~title:"Figure 11: KV store throughput (kops/s)"
      ~columns:[ "system"; "op"; "persistence"; "kops" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          r.system;
          (match r.op with `Get -> "GET" | `Set -> "SET");
          (if r.persist then "fsync-per-SET" else "in-memory");
          Metrics.Table.cell_f ~decimals:1 r.kops;
        ])
    rows;
  Metrics.Table.print table

(* ---------- Figure 12: TxnStore YCSB-F ---------- *)

let txn_value = 700 (* §7.6: 700 B values *)

let demi_txn flavor ~keys ~txns (w : Observe.world) =
  let replicas =
    List.map
      (fun i ->
        let node = Demikernel.Boot.make w.sim w.fabric ~index:i flavor in
        Demikernel.Boot.run_app node (Apps.Txnstore.server ~port:7447);
        Demikernel.Boot.start node;
        (Printf.sprintf "replica%d" i, node))
      [ 1; 2; 3 ]
  in
  let client = Demikernel.Boot.make w.sim w.fabric ~index:4 flavor in
  Demikernel.Boot.run_app client
    (Apps.Txnstore.ycsb_f
       ~dst_replicas:(List.map (fun (_, node) -> Demikernel.Boot.endpoint node 7447) replicas)
       ~keys ~value_size:txn_value ~txns ~theta:0.99 ~seed:9 ~record:w.record);
  Demikernel.Boot.start client;
  replicas @ [ ("client", client) ]

let linux_txn transport ~keys ~txns (w : Observe.world) =
  let replicas =
    List.map
      (fun i ->
        let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:i () in
        (match transport with
        | `Tcp -> Baselines.Linux_apps.txn_replica w.sim kernel ~port:7447
        | `Udp -> Baselines.Linux_apps.txn_replica_udp w.sim kernel ~port:7447);
        Net.Addr.endpoint (Net.Addr.Ip.of_index i) 7447)
      [ 1; 2; 3 ]
  in
  let kernel = Baselines.Linux_apps.make_kernel w.sim w.fabric ~index:4 () in
  Baselines.Linux_apps.txn_ycsb_client ~transport w.sim kernel ~replicas ~keys
    ~value_size:txn_value ~txns ~theta:0.99 ~seed:9 ~record:w.record ~on_done:ignore;
  []

let rdma_txn ~keys ~txns (w : Observe.world) =
  List.iter (fun i -> Baselines.Txn_rdma.replica w.sim w.fabric ~index:i) [ 1; 2; 3 ];
  Baselines.Txn_rdma.ycsb_client w.sim w.fabric ~index:4 ~replica_indexes:[ 1; 2; 3 ] ~keys
    ~value_size:txn_value ~txns ~theta:0.99 ~seed:9 ~record:w.record ~on_done:ignore;
  []

let fig12 ?(txns = 1_000) ?(keys = 200) () =
  List.map
    (fun (system, wire) -> latency_point system (wire ~keys ~txns))
    [
      ("Linux (TCP)", linux_txn `Tcp);
      ("Linux (UDP)", linux_txn `Udp);
      ("RDMA (custom)", rdma_txn);
      ("Catnap", demi_txn Demikernel.Boot.Catnap_os);
      ("Catmint", demi_txn Demikernel.Boot.Catmint_os);
      ("Catnip (TCP)", demi_txn Demikernel.Boot.Catnip_os);
    ]

let print_fig12 = print_latency ~title:"Figure 12: TxnStore YCSB-F transaction latency"
