(* Tests for the comparison systems and the experiment harness: the
   point is not absolute numbers but that every system completes its
   workload and the paper's orderings hold. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

let mean_rtt f =
  let hist = f () in
  (Metrics.Hdr.count hist, int_of_float (Metrics.Hdr.mean hist))

let test_raw_echoes () =
  let n_dpdk, dpdk = mean_rtt (fun () -> Harness.Common.raw_dpdk_rtt ~count:100 ()) in
  let n_rdma, rdma = mean_rtt (fun () -> Harness.Common.raw_rdma_rtt ~count:100 ()) in
  check_int "dpdk count" 100 n_dpdk;
  check_int "rdma count" 100 n_rdma;
  check_bool "raw rdma beats raw dpdk (device offload)" true (rdma < dpdk);
  (* Both are single-digit microseconds on the bare-metal profile. *)
  check_bool "dpdk in range" true (dpdk > 2_000 && dpdk < 10_000);
  check_bool "rdma in range" true (rdma > 1_500 && rdma < 8_000)

let test_kb_lib_orderings () =
  let _, erpc = mean_rtt (fun () -> Harness.Common.kb_echo_rtt ~count:100 Baselines.Kb_lib.erpc) in
  let _, shen =
    mean_rtt (fun () -> Harness.Common.kb_echo_rtt ~count:100 Baselines.Kb_lib.shenango)
  in
  let _, cala =
    mean_rtt (fun () -> Harness.Common.kb_echo_rtt ~count:100 Baselines.Kb_lib.caladan)
  in
  check_bool "erpc < caladan" true (erpc < cala);
  check_bool "caladan < shenango (IOKernel hops)" true (cala < shen)

let test_open_loop_tracks_offered () =
  let w = Harness.Common.make_world () in
  let result = ref None in
  Baselines.Kb_lib.echo_open_loop Baselines.Kb_lib.caladan w.Harness.Common.sim
    w.Harness.Common.fabric ~server_index:1 ~client_index:2 ~msg_size:64
    ~rate_per_sec:100_000. ~duration_ns:5_000_000 (fun r -> result := Some r);
  Harness.Common.run_world w;
  match !result with
  | Some r ->
      check_bool "achieved within 15% of offered" true
        (Float.abs (r.Baselines.Kb_lib.achieved_per_sec -. 100_000.) < 15_000.)
  | None -> Alcotest.fail "no result"

(* A short cell of fig 9's open-loop generator per libOS, with the heap
   sanitizer and so the ownership oracle armed: a buffer freed or
   written while its push is in flight, or a token never waited, fails
   the cell. *)
let test_open_loop_ownership () =
  Test_demikernel.sanitized @@ fun () ->
  List.iter
    (fun (flavor, proto) ->
      let r =
        Harness.Fig_throughput.demi_open_loop ~flavor ~proto ~msg_size:64
          ~rate_per_sec:200_000. ~duration_ns:1_000_000 ()
      in
      check_bool "echoes came back" true (Metrics.Hdr.count r.Baselines.Kb_lib.latencies > 0))
    [
      (Demikernel.Boot.Catnip_os, Harness.Common.Echo_tcp);
      (Demikernel.Boot.Catnip_os, Harness.Common.Echo_udp);
      (Demikernel.Boot.Catmint_os, Harness.Common.Echo_tcp);
      (Demikernel.Boot.Catnap_os, Harness.Common.Echo_tcp);
    ]

let test_linux_echo () =
  let hist = Harness.Common.linux_echo_rtt ~count:50 ~proto:Harness.Common.Echo_udp () in
  check_int "count" 50 (Metrics.Hdr.count hist);
  (* Kernel path: tens of microseconds. *)
  check_bool "kernel echo slow" true (Metrics.Hdr.p50 hist > 15_000)

let test_linux_tcp_echo () =
  let hist = Harness.Common.linux_echo_rtt ~count:50 ~proto:Harness.Common.Echo_tcp () in
  check_int "count" 50 (Metrics.Hdr.count hist)

let test_fig5_orderings () =
  Harness.Common.default_count := 200;
  let rows = Harness.Fig_latency.fig5 () in
  check_int "ten systems" 10 (List.length rows);
  let avg name =
    (List.find (fun r -> r.Harness.Fig_latency.system = name) rows).Harness.Fig_latency.avg_ns
  in
  (* The paper's headline orderings. *)
  check_bool "linux is worst" true
    (List.for_all (fun r -> avg "Linux" >= r.Harness.Fig_latency.avg_ns) rows);
  check_bool "catnap beats linux" true (avg "Catnap" < avg "Linux");
  check_bool "kernel bypass beats catnap" true (avg "Catnip (TCP)" < avg "Catnap");
  check_bool "catnip udp beats catnip tcp" true (avg "Catnip (UDP)" < avg "Catnip (TCP)");
  check_bool "catmint beats catnip (device offload)" true (avg "Catmint" < avg "Catnip (UDP)");
  check_bool "raw rdma is the floor" true
    (List.for_all (fun r -> avg "Raw RDMA" <= r.Harness.Fig_latency.avg_ns) rows)

let test_fig6_windows_gap () =
  Harness.Common.default_count := 100;
  let rows = Harness.Fig_latency.fig6_windows () in
  let avg name =
    (List.find (fun r -> r.Harness.Fig_latency.system = name) rows).Harness.Fig_latency.avg_ns
  in
  (* Catpaw's RDMA bypass dwarfs WSL's kernel path (§7.3: ~27x). *)
  check_bool "catpaw at least 10x better than WSL linux" true
    (avg "Linux (WSL)" > 10 * avg "Catpaw (RDMA)")

let test_fig7_persistence_cheaper_than_linux_memory () =
  (* The paper's headline: remote disk via Demikernel is faster than
     remote memory via the kernel. *)
  Harness.Common.default_count := 100;
  let fig7 = Harness.Fig_latency.fig7 () in
  let catnip_disk =
    (List.find (fun r -> r.Harness.Fig_latency.system = "Catnip (TCP) x Cattree") fig7)
      .Harness.Fig_latency.avg_ns
  in
  let linux_memory =
    Metrics.Hdr.mean (Harness.Common.linux_echo_rtt ~count:100 ~proto:Harness.Common.Echo_udp ())
  in
  check_bool
    (Printf.sprintf "catnip+disk (%d) < linux in-memory (%.0f)" catnip_disk linux_memory)
    true
    (float_of_int catnip_disk < linux_memory)

let test_txn_rdma_completes () =
  let w = Harness.Common.make_world () in
  List.iter
    (fun i -> Baselines.Txn_rdma.replica w.Harness.Common.sim w.Harness.Common.fabric ~index:i)
    [ 1; 2; 3 ];
  let hist = Metrics.Hdr.create () in
  let finished = ref false in
  Baselines.Txn_rdma.ycsb_client w.Harness.Common.sim w.Harness.Common.fabric ~index:4
    ~replica_indexes:[ 1; 2; 3 ] ~keys:20 ~value_size:128 ~txns:50 ~theta:0.99 ~seed:3
    ~record:(Metrics.Hdr.add hist)
    ~on_done:(fun () -> finished := true);
  Harness.Common.run_world w;
  check_bool "finished" true !finished;
  check_int "txns" 50 (Metrics.Hdr.count hist)

let test_fig12_orderings () =
  let rows = Harness.Fig_apps.fig12 ~txns:100 ~keys:30 () in
  let avg name =
    (List.find (fun (r : Harness.Fig_apps.txn_row) -> r.Harness.Fig_apps.system = name) rows)
      .Harness.Fig_apps.avg_ns
  in
  check_bool "catmint beats the custom RDMA stack" true (avg "Catmint" < avg "RDMA (custom)");
  check_bool "catnap beats linux tcp" true (avg "Catnap" < avg "Linux (TCP)");
  check_bool "kernel bypass beats catnap" true (avg "Catnip (TCP)" < avg "Catnap")

let test_fig10_orderings () =
  let rows = Harness.Fig_apps.fig10 ~count:200 () in
  let avg name =
    (List.find (fun (r : Harness.Fig_apps.relay_row) -> r.Harness.Fig_apps.system = name) rows)
      .Harness.Fig_apps.avg_ns
  in
  check_bool "io_uring modestly better than posix" true (avg "io_uring" < avg "Linux");
  check_bool "catnip much better than both" true
    (avg "Catnip" < avg "io_uring" && avg "Linux" - avg "Catnip" > 5_000)

let test_fig11_orderings () =
  let rows = Harness.Fig_apps.fig11 ~ops_per_client:100 ~clients:8 () in
  let kops system op persist =
    (List.find
       (fun (r : Harness.Fig_apps.kv_row) ->
         r.Harness.Fig_apps.system = system
         && r.Harness.Fig_apps.op = op
         && r.Harness.Fig_apps.persist = persist)
       rows)
      .Harness.Fig_apps.kops
  in
  check_bool "catnip beats linux (GET, memory)" true
    (kops "Catnip" `Get false > kops "Linux" `Get false);
  check_bool "catnap polling hurts under concurrency" true
    (kops "Catnap" `Get false < kops "Linux" `Get false);
  check_bool "persistence collapses linux SETs" true
    (kops "Linux" `Set true < 0.5 *. kops "Linux" `Set false);
  (* The paper's claim is relative to unmodified Redis without
     persistence: Catnip x Cattree SETs stay within reach of it. *)
  check_bool "catnip+cattree SETs near linux in-memory rate" true
    (kops "Catnip" `Set true > 0.5 *. kops "Linux" `Set false)

let test_netpipe_monotone () =
  let rows = Harness.Fig_throughput.fig8 ~sizes:[ 64; 4096; 65536 ] () in
  let series system =
    List.filter
      (fun (r : Harness.Fig_throughput.netpipe_row) -> r.Harness.Fig_throughput.system = system)
      rows
    |> List.map (fun (r : Harness.Fig_throughput.netpipe_row) -> r.Harness.Fig_throughput.gbps)
  in
  List.iter
    (fun system ->
      match series system with
      | [ a; b; c ] ->
          check_bool (system ^ " bandwidth grows with size") true (a < b && b < c)
      | [ a; b ] -> check_bool (system ^ " grows") true (a < b)
      | _ -> Alcotest.fail "unexpected series")
    [ "Raw DPDK"; "Raw RDMA"; "Catmint"; "Catnip (TCP)" ]

let test_sensitivity_orderings_hold () =
  Harness.Common.default_count := 100;
  let ok, summary = Harness.Fig_latency.fig5_orderings_hold () in
  check_bool ("baseline orderings: " ^ summary) true ok;
  (* The within-hardware orderings must survive doubling the priciest
     kernel knob (the robustness bench sweeps the rest). *)
  let base = Net.Cost.bare_metal in
  let cost = { base with Net.Cost.kernel_wakeup_ns = base.Net.Cost.kernel_wakeup_ns * 2 } in
  let ok, summary = Harness.Fig_latency.fig5_orderings_hold ~cost () in
  check_bool ("perturbed orderings: " ^ summary) true ok

let suite =
  [
    Alcotest.test_case "raw device echoes" `Quick test_raw_echoes;
    Alcotest.test_case "kb library orderings" `Quick test_kb_lib_orderings;
    Alcotest.test_case "open loop tracks offered load" `Quick test_open_loop_tracks_offered;
    Alcotest.test_case "linux udp echo" `Quick test_linux_echo;
    Alcotest.test_case "linux tcp echo" `Quick test_linux_tcp_echo;
    Alcotest.test_case "fig5 orderings" `Slow test_fig5_orderings;
    Alcotest.test_case "fig6 windows gap" `Slow test_fig6_windows_gap;
    Alcotest.test_case "fig7: demikernel disk < linux memory" `Slow
      test_fig7_persistence_cheaper_than_linux_memory;
    Alcotest.test_case "custom rdma txnstore completes" `Quick test_txn_rdma_completes;
    Alcotest.test_case "fig12 orderings" `Slow test_fig12_orderings;
    Alcotest.test_case "fig10 orderings" `Slow test_fig10_orderings;
    Alcotest.test_case "fig11 orderings" `Slow test_fig11_orderings;
    Alcotest.test_case "fig8 bandwidth monotone" `Slow test_netpipe_monotone;
    Alcotest.test_case "fig5 orderings survive cost perturbation" `Slow
      test_sensitivity_orderings_hold;
    Alcotest.test_case "fig9 open loop: ownership oracle clean" `Quick test_open_loop_ownership;
  ]
