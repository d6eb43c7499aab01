(* ---------- Figure 10: UDP relay ---------- *)

type relay_row = { system : string; avg_ns : int; p99_ns : int }

let relay_count = ref 2_000

let relay_point system ~server ~count =
  (* [server] installs the relay under test on host index 1; the traffic
     generator is always the same kernel-path host. *)
  let w = Common.make_world () in
  server w;
  let gen_kernel = Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:2 () in
  let hist = Metrics.Hdr.create () in
  Baselines.Linux_apps.relay_generator w.Common.sim gen_kernel
    ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 3478)
    ~src_port:4000 ~session:7 ~msg_size:200 ~count
    ~record:(Metrics.Hdr.add hist)
    ~on_done:(fun () -> ());
  Common.run_world w;
  {
    system;
    avg_ns = int_of_float (Metrics.Hdr.mean hist);
    p99_ns = Metrics.Hdr.p99 hist;
  }

let fig10 ?count () =
  let count = match count with Some c -> c | None -> !relay_count in
  [
    relay_point "Linux" ~count ~server:(fun w ->
        let kernel = Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:1 () in
        Baselines.Linux_apps.relay_server w.Common.sim kernel ~port:3478);
    relay_point "io_uring" ~count ~server:(fun w ->
        let kernel =
          Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:1
            ~mode:Oskernel.Kernel.Uring ()
        in
        Baselines.Linux_apps.relay_server w.Common.sim kernel ~port:3478);
    relay_point "Catnip" ~count ~server:(fun w ->
        let node =
          Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:1 Demikernel.Boot.Catnip_os
        in
        Demikernel.Boot.run_app node (Apps.Relay.server ~port:3478);
        Demikernel.Boot.start node);
  ]

let print_fig10 rows =
  let table =
    Metrics.Table.create ~title:"Figure 10: UDP relay latency (common kernel generator)"
      ~columns:[ "system"; "avg"; "p99" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [ r.system; Metrics.Table.cell_ns r.avg_ns; Metrics.Table.cell_ns r.p99_ns ])
    rows;
  Metrics.Table.print table

(* ---------- Figure 11: KV store throughput ---------- *)

type kv_row = {
  system : string;
  op : [ `Get | `Set ];
  persist : bool;
  kops : float;
}

(* Closed-loop throughput over [clients] connections: ops/sec measured
   from the first post-preload operation to the last completion. *)
let kv_throughput ~system ~op ~persist ~clients ~ops_per_client ~make_server ~make_client =
  let w = Common.make_world () in
  make_server w ~persist;
  let first_start = ref max_int in
  let last_end = ref 0 in
  let done_count = ref 0 in
  for c = 1 to clients do
    make_client w ~index:(1 + c) ~seed:c ~op ~ops:ops_per_client
      ~on_start:(fun () -> first_start := min !first_start (Engine.Sim.now w.Common.sim))
      ~on_done:(fun () ->
        last_end := max !last_end (Engine.Sim.now w.Common.sim);
        incr done_count)
  done;
  Common.run_world w;
  let elapsed = !last_end - !first_start in
  let total_ops = !done_count * ops_per_client in
  {
    system;
    op;
    persist;
    kops =
      (if elapsed > 0 && !done_count = clients then
         float_of_int total_ops /. (float_of_int elapsed /. 1e9) /. 1e3
       else 0.);
  }

let kv_keys = 512
let kv_value = 64

let demi_kv flavor w ~persist =
  let server =
    Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:1 ~with_disk:persist flavor
  in
  Demikernel.Boot.run_app server (Apps.Dkv.server ~port:6379 ~persist);
  Demikernel.Boot.start server;
  flavor

let demi_kv_client flavor w ~index ~seed ~op ~ops ~on_start ~on_done =
  let client = Demikernel.Boot.make w.Common.sim w.Common.fabric ~index flavor in
  Demikernel.Boot.run_app client
    (Apps.Dkv.bench_client
       ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 6379)
       ~keys:kv_keys ~value_size:kv_value ~ops ~kind:op ~seed ~on_start ~on_done);
  Demikernel.Boot.start client

let linux_kv w ~persist =
  let kernel =
    Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:1 ~with_disk:persist ()
  in
  Baselines.Linux_apps.kv_server w.Common.sim kernel ~port:6379 ~persist

let linux_kv_client w ~index ~seed ~op ~ops ~on_start ~on_done =
  let kernel = Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index () in
  Baselines.Linux_apps.kv_bench_client w.Common.sim kernel
    ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 6379)
    ~keys:kv_keys ~value_size:kv_value ~ops ~kind:op ~seed ~on_start
    ~record:(fun _ -> ())
    ~on_done

(* The benchmark client is redis-benchmark on a kernel host (as in the
   paper) for every TCP-compatible server; only Catmint — whose wire
   protocol is RDMA messages — uses a Demikernel client, which inflates
   its relative numbers (recorded in EXPERIMENTS.md). *)
let fig11 ?(ops_per_client = 300) ?(clients = 32) () =
  let systems =
    [
      ("Linux", `Linux);
      ("Catnap", `Demi_server_kernel_client Demikernel.Boot.Catnap_os);
      ("Catmint", `Demi Demikernel.Boot.Catmint_os);
      ("Catnip", `Demi_server_kernel_client Demikernel.Boot.Catnip_os);
    ]
  in
  List.concat_map
    (fun (name, kind) ->
      List.concat_map
        (fun persist ->
          List.map
            (fun op ->
              match kind with
              | `Linux ->
                  kv_throughput ~system:name ~op ~persist ~clients ~ops_per_client
                    ~make_server:linux_kv ~make_client:linux_kv_client
              | `Demi_server_kernel_client flavor ->
                  kv_throughput ~system:name ~op ~persist ~clients ~ops_per_client
                    ~make_server:(fun w ~persist -> ignore (demi_kv flavor w ~persist))
                    ~make_client:linux_kv_client
              | `Demi flavor ->
                  kv_throughput ~system:name ~op ~persist ~clients ~ops_per_client
                    ~make_server:(fun w ~persist -> ignore (demi_kv flavor w ~persist))
                    ~make_client:(demi_kv_client flavor))
            [ `Get; `Set ])
        [ false; true ])
    systems

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

type txn_row = { system : string; avg_ns : int; p99_ns : int }

let txn_value = 700 (* §7.6: 700 B values *)

let txn_point system ~keys ~txns ~run =
  let w = Common.make_world () in
  let hist = Metrics.Hdr.create () in
  run w ~keys ~txns ~record:(Metrics.Hdr.add hist);
  Common.run_world w;
  {
    system;
    avg_ns = int_of_float (Metrics.Hdr.mean hist);
    p99_ns = Metrics.Hdr.p99 hist;
  }

let demi_txn flavor w ~keys ~txns ~record =
  let replicas =
    List.map
      (fun i ->
        let node = Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:i flavor in
        Demikernel.Boot.run_app node (Apps.Txnstore.server ~port:7447);
        Demikernel.Boot.start node;
        Demikernel.Boot.endpoint node 7447)
      [ 1; 2; 3 ]
  in
  let client = Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:4 flavor in
  Demikernel.Boot.run_app client
    (Apps.Txnstore.ycsb_f ~dst_replicas:replicas ~keys ~value_size:txn_value ~txns ~theta:0.99
       ~seed:9 ~record);
  Demikernel.Boot.start client

let linux_txn transport w ~keys ~txns ~record =
  let replicas =
    List.map
      (fun i ->
        let kernel = Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:i () in
        (match transport with
        | `Tcp -> Baselines.Linux_apps.txn_replica w.Common.sim kernel ~port:7447
        | `Udp -> Baselines.Linux_apps.txn_replica_udp w.Common.sim kernel ~port:7447);
        Net.Addr.endpoint (Net.Addr.Ip.of_index i) 7447)
      [ 1; 2; 3 ]
  in
  let kernel = Baselines.Linux_apps.make_kernel w.Common.sim w.Common.fabric ~index:4 () in
  Baselines.Linux_apps.txn_ycsb_client ~transport w.Common.sim kernel ~replicas ~keys
    ~value_size:txn_value ~txns ~theta:0.99 ~seed:9 ~record
    ~on_done:(fun () -> ())

let rdma_txn w ~keys ~txns ~record =
  List.iter (fun i -> Baselines.Txn_rdma.replica w.Common.sim w.Common.fabric ~index:i) [ 1; 2; 3 ];
  Baselines.Txn_rdma.ycsb_client w.Common.sim w.Common.fabric ~index:4
    ~replica_indexes:[ 1; 2; 3 ] ~keys ~value_size:txn_value ~txns ~theta:0.99 ~seed:9 ~record
    ~on_done:(fun () -> ())

let fig12 ?(txns = 1_000) ?(keys = 200) () =
  [
    txn_point "Linux (TCP)" ~keys ~txns ~run:(linux_txn `Tcp);
    txn_point "Linux (UDP)" ~keys ~txns ~run:(linux_txn `Udp);
    txn_point "RDMA (custom)" ~keys ~txns ~run:rdma_txn;
    txn_point "Catnap" ~keys ~txns ~run:(demi_txn Demikernel.Boot.Catnap_os);
    txn_point "Catmint" ~keys ~txns ~run:(demi_txn Demikernel.Boot.Catmint_os);
    txn_point "Catnip (TCP)" ~keys ~txns ~run:(demi_txn Demikernel.Boot.Catnip_os);
  ]

let print_fig12 rows =
  let table =
    Metrics.Table.create ~title:"Figure 12: TxnStore YCSB-F transaction latency"
      ~columns:[ "system"; "avg"; "p99" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [ r.system; Metrics.Table.cell_ns r.avg_ns; Metrics.Table.cell_ns r.p99_ns ])
    rows;
  Metrics.Table.print table
