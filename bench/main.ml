(* The benchmark entry point: regenerates every table and figure of the
   paper's evaluation (§7) from the simulator, and runs Bechamel
   microbenchmarks of the real datapath primitives.

   Usage:
     dune exec bench/main.exe            # everything, quick settings
     dune exec bench/main.exe -- full    # everything, paper-scale counts
     dune exec bench/main.exe -- fig5    # one experiment
   Experiments: table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
                ablation micro *)

let say fmt = Format.printf fmt

(* ---------- Bechamel microbenchmarks (real nanoseconds) ---------- *)

let micro_tests () =
  let open Bechamel in
  (* Scheduler context switch (§5.4's 12-cycle claim): a full simulated
     world whose two coroutines yield to each other 1000 times; the
     reported time divided by 2000 approximates one dispatch. *)
  let sched_switch =
    Test.make ~name:"dsched: 2000 yield dispatches"
      (Staged.stage (fun () ->
           let sim = Engine.Sim.create () in
           let host =
             Demikernel.Host.create sim ~name:"bench" ~cost:Net.Cost.bare_metal
               ~heap_mode:Memory.Heap.Pool_backed
           in
           let sched = Demikernel.Dsched.create host in
           let yielder () =
             for _ = 1 to 1000 do
               Demikernel.Dsched.yield sched
             done
           in
           ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.App yielder);
           ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.App yielder);
           Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
           Engine.Sim.run sim))
  in
  let waker =
    let w = Demikernel.Waker.create () in
    for _ = 1 to 1024 do
      ignore (Demikernel.Waker.alloc w)
    done;
    Test.make ~name:"waker: set+drain 64 of 1024"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             Demikernel.Waker.set w (i * 16)
           done;
           Demikernel.Waker.drain w (fun _ -> ())))
  in
  let checksum =
    let b = Bytes.make 1500 'x' in
    Test.make ~name:"checksum: 1500B internet checksum"
      (Staged.stage (fun () -> ignore (Net.Wire.checksum b 0 1500)))
  in
  let tcp_rx =
    (* Process one segment through header parse + demux + reassembly:
       the software path behind the paper's 53ns/packet figure. *)
    let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let clock = ref 0 in
    let frames = ref [] in
    let iface_a =
      Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1)
        ~clock:(fun () -> !clock)
        ~tx_frame:(fun f -> frames := f :: !frames)
        ()
    in
    let stack =
      Tcp.Stack.create ~iface:iface_a ~heap ~prng:(Engine.Prng.create 3L)
        ~events:(fun _ -> ())
        ()
    in
    (* Build a valid-checksum data segment aimed at a listening port of
       an established-free stack: it is dropped after full parse +
       demux + RST generation — a representative rx path. *)
    let seg =
      let payload = String.make 64 'p' in
      let h =
        {
          Net.Tcp_wire.src_port = 9999;
          dst_port = 7;
          seq = 1000;
          ack = 0;
          syn = false;
          ack_flag = false;
          fin = false;
          rst = false;
          psh = true;
          window = 0xffff;
          options = Net.Tcp_wire.no_options;
        }
      in
      let hsize = Net.Tcp_wire.header_size h in
      let total = Net.Eth.size + Net.Ipv4.size + hsize + 64 in
      let b = Bytes.create total in
      let off =
        Net.Eth.write b 0
          {
            Net.Eth.dst = Net.Addr.Mac.of_index 1;
            src = Net.Addr.Mac.of_index 2;
            ethertype = Net.Eth.ethertype_ipv4;
          }
      in
      let off =
        Net.Ipv4.write b off
          (Net.Ipv4.whole ~total_length:(Net.Ipv4.size + hsize + 64) ~identification:1 ~protocol:Net.Ipv4.protocol_tcp ~src:(Net.Addr.Ip.of_index 2) ~dst:(Net.Addr.Ip.of_index 1))
      in
      Bytes.blit_string payload 0 b (off + hsize) 64;
      ignore
        (Net.Tcp_wire.write b off h ~payload_len:64 ~src_ip:(Net.Addr.Ip.of_index 2)
           ~dst_ip:(Net.Addr.Ip.of_index 1));
      Bytes.unsafe_to_string b
    in
    Test.make ~name:"catnip: tcp segment rx processing"
      (Staged.stage (fun () ->
           clock := !clock + 100;
           frames := [];
           Tcp.Stack.input stack seg))
  in
  let heap_ops =
    let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    Test.make ~name:"heap: alloc+free 64B"
      (Staged.stage (fun () -> Memory.Heap.free (Memory.Heap.alloc heap 64)))
  in
  let hdr =
    let h = Metrics.Hdr.create () in
    let i = ref 0 in
    Test.make ~name:"hdr: add sample"
      (Staged.stage (fun () ->
           incr i;
           Metrics.Hdr.add h (!i land 0xfffff)))
  in
  let wait_any ~tokens =
    (* Runtime work only: with free libcalls the PDPIX wrapper never
       sleeps, so no running simulation is needed around the calls.
       Each run completes the pending token in the next slot, redeems
       it with wait_any and mints a fresh pending token in its place:
       [tokens] outstanding, one ready, the ready slot rotating over
       the whole set. *)
    let sim = Engine.Sim.create () in
    let fabric =
      Net.Fabric.create sim ~cost:{ Net.Cost.bare_metal with Net.Cost.libos_sched_ns = 0 } ()
    in
    let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
    let rt = node.Demikernel.Boot.rt in
    let qts = Array.init tokens (fun _ -> Demikernel.Runtime.fresh_token rt) in
    let next = ref 0 in
    Test.make
      ~name:(Printf.sprintf "runtime: wait_any, %d tokens, 1 ready" tokens)
      (Staged.stage (fun () ->
           let i = !next in
           next := if i + 1 = tokens then 0 else i + 1;
           Demikernel.Runtime.complete rt qts.(i) Demikernel.Pdpix.Pushed;
           ignore (node.Demikernel.Boot.api.Demikernel.Pdpix.wait_any qts);
           qts.(i) <- Demikernel.Runtime.fresh_token rt))
  in
  let log_record name record =
    (* One record into a recorder's ring at its default capacity,
       grown to full size first: the steady, wrapping write. *)
    let sim = Engine.Sim.create () in
    ignore (Engine.Sim.enable_flight sim);
    ignore (Engine.Sim.enable_spans sim);
    for i = 1 to 262_144 do
      record sim i
    done;
    let i = ref 0 in
    Test.make ~name:("log: record, " ^ name) (Staged.stage (fun () -> incr i; record sim !i))
  in
  let flight_note sim i = Engine.Sim.flight_note sim ~cat:Engine.Log.Fabric ~label:"rx" 64 i in
  let span_interval sim i =
    Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner:"nic" ~label:"rx" ~t0:i ~t1:i
  in
  [
    sched_switch; waker; checksum; tcp_rx; heap_ops; hdr; wait_any ~tokens:8; wait_any ~tokens:2048;
    log_record "flight note" flight_note; log_record "span interval" span_interval;
  ]

let run_micro () =
  let open Bechamel in
  say "@.Microbenchmarks (real ns on this machine; one row per operation)@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let tests = micro_tests () in
  let table =
    Metrics.Table.create ~title:"Microbenchmarks" ~columns:[ "operation"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          let est =
            match Analyze.OLS.estimates result with Some [ e ] -> e | Some _ | None -> nan
          in
          let r2 = match Analyze.OLS.r_square result with Some r -> r | None -> nan in
          Metrics.Table.add_row table
            [ name; Printf.sprintf "%.1f" est; Printf.sprintf "%.4f" r2 ])
        ols)
    tests;
  Metrics.Table.print table;
  say "Note: the dsched row covers 2000 dispatches plus world setup;@.";
  say "divide by ~2000 for the per-switch cost the paper quotes in cycles.@."

(* ---------- ablations ---------- *)

let run_ablation () =
  say "@.Ablations (design choices DESIGN.md calls out)@.";
  (* Congestion control: Cubic vs NewReno vs none on the echo RTT. *)
  let cc_table =
    Metrics.Table.create ~title:"Ablation: Catnip congestion control (64B echo)"
      ~columns:[ "cc"; "avg RTT"; "p99" ]
  in
  List.iter
    (fun (name, cc) ->
      let config = { Tcp.Stack.default_config with Tcp.Stack.cc } in
      let w = Harness.Common.make_world () in
      let server =
        Demikernel.Boot.make w.Harness.Common.sim w.Harness.Common.fabric ~index:1
          ~tcp_config:config Demikernel.Boot.Catnip_os
      in
      let client =
        Demikernel.Boot.make w.Harness.Common.sim w.Harness.Common.fabric ~index:2
          ~tcp_config:config Demikernel.Boot.Catnip_os
      in
      let rtts = Metrics.Hdr.create () in
      Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
      Demikernel.Boot.run_app client
        (Apps.Echo.client
           ~dst:(Demikernel.Boot.endpoint server 7)
           ~msg_size:64 ~count:500
           ~record:(Metrics.Hdr.add rtts));
      Demikernel.Boot.start server;
      Demikernel.Boot.start client;
      Harness.Common.run_world w;
      Metrics.Table.add_row cc_table
        [
          name;
          Metrics.Table.cell_ns (int_of_float (Metrics.Hdr.mean rtts));
          Metrics.Table.cell_ns (Metrics.Hdr.p99 rtts);
        ])
    [ ("cubic", Tcp.Cc.Cubic); ("newreno", Tcp.Cc.Newreno); ("none", Tcp.Cc.None_cc) ];
  Metrics.Table.print cc_table;
  (* Loss resilience: echo under increasing frame loss (exercises fast
     retransmit + RTO machinery end to end). *)
  let loss_table =
    Metrics.Table.create ~title:"Ablation: Catnip echo under frame loss"
      ~columns:[ "loss"; "avg RTT"; "p99"; "retransmits" ]
  in
  List.iter
    (fun loss ->
      let r =
        Harness.Observe.run Harness.Observe.off
          { (Harness.Observe.echo Demikernel.Boot.Catnip_os) with count = 500; loss }
      in
      let rtts = Metrics.Hdr.of_list r.latencies in
      let retx =
        List.fold_left
          (fun n (node : Demikernel.Boot.node) ->
            match node.catnip with
            | Some c -> n + Tcp.Stack.total_retransmits (Demikernel.Catnip.stack c)
            | None -> n)
          0 r.nodes
      in
      Metrics.Table.add_row loss_table
        [
          Printf.sprintf "%.1f%%" (loss *. 100.);
          Metrics.Table.cell_ns (int_of_float (Metrics.Hdr.mean rtts));
          Metrics.Table.cell_ns (Metrics.Hdr.p99 rtts);
          string_of_int retx;
        ])
    [ 0.0; 0.001; 0.01 ];
  Metrics.Table.print loss_table;
  (* SACK: bulk transfer under loss with and without selective acks. *)
  let sack_table =
    Metrics.Table.create ~title:"Ablation: SACK under 2% loss (2MB bulk transfer)"
      ~columns:[ "sack"; "transfer time"; "retransmits" ]
  in
  List.iter
    (fun (name, use_sack) ->
      let config = { Tcp.Stack.default_config with Tcp.Stack.use_sack } in
      let w = Harness.Common.make_world ~loss:0.02 () in
      let server =
        Demikernel.Boot.make w.Harness.Common.sim w.Harness.Common.fabric ~index:1
          ~tcp_config:config Demikernel.Boot.Catnip_os
      in
      let client =
        Demikernel.Boot.make w.Harness.Common.sim w.Harness.Common.fabric ~index:2
          ~tcp_config:config Demikernel.Boot.Catnip_os
      in
      let finished_at = ref 0 in
      Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
      Demikernel.Boot.run_app client
        (Apps.Echo.stream_client
           ~dst:(Demikernel.Boot.endpoint server 7)
           ~msg_size:32_768 ~count:64 ~window:8
           ~on_done:(fun () -> finished_at := Engine.Sim.now w.Harness.Common.sim));
      Demikernel.Boot.start server;
      Demikernel.Boot.start client;
      Harness.Common.run_world w;
      let retx =
        match (server.Demikernel.Boot.catnip, client.Demikernel.Boot.catnip) with
        | Some s, Some c ->
            Tcp.Stack.total_retransmits (Demikernel.Catnip.stack s)
            + Tcp.Stack.total_retransmits (Demikernel.Catnip.stack c)
        | _, _ -> 0
      in
      Metrics.Table.add_row sack_table
        [ name; Metrics.Table.cell_ns !finished_at; string_of_int retx ])
    [ ("on", true); ("off", false) ];
  Metrics.Table.print sack_table;
  (* Catmint flow-control window: throughput under load vs credit
     grant size (§6.2's message-based send windows). *)
  let window_table =
    Metrics.Table.create ~title:"Ablation: Catmint credit window (64B echo, 600 kops offered)"
      ~columns:[ "window"; "achieved kops"; "p99" ]
  in
  List.iter
    (fun window ->
      let r =
        Harness.Fig_throughput.demi_open_loop ~catmint_window:window
          ~flavor:Demikernel.Boot.Catmint_os ~proto:Harness.Common.Echo_tcp ~msg_size:64
          ~rate_per_sec:600_000. ~duration_ns:10_000_000 ()
      in
      Metrics.Table.add_row window_table
        [
          string_of_int window;
          Metrics.Table.cell_f ~decimals:0 (r.Baselines.Kb_lib.achieved_per_sec /. 1e3);
          Metrics.Table.cell_ns (Metrics.Hdr.p99 r.Baselines.Kb_lib.latencies);
        ])
    [ 2; 8; 64 ];
  Metrics.Table.print window_table

(* ---------- robustness of the reproduction ---------- *)

let run_robustness () =
  say "@.Robustness: do the Figure 5 orderings depend on tuned constants?@.";
  Harness.Common.default_count := 300;
  let table =
    Metrics.Table.create ~title:"Sensitivity: headline orderings under cost perturbations"
      ~columns:[ "perturbation"; "orderings"; "mean RTTs (us)" ]
  in
  let base = Net.Cost.bare_metal in
  let cases =
    [
      ("baseline", base);
      ("kernel wakeup x0.5", { base with Net.Cost.kernel_wakeup_ns = base.Net.Cost.kernel_wakeup_ns / 2 });
      ("kernel wakeup x2", { base with Net.Cost.kernel_wakeup_ns = base.Net.Cost.kernel_wakeup_ns * 2 });
      ("rdma hw x2", { base with Net.Cost.rdma_hw_ns = base.Net.Cost.rdma_hw_ns * 2 });
      ("nic hw x0.5", { base with Net.Cost.nic_hw_ns = base.Net.Cost.nic_hw_ns / 2 });
      ("tcp tx x2", { base with Net.Cost.tcp_tx_ns = base.Net.Cost.tcp_tx_ns * 2 });
      ("switch x2", { base with Net.Cost.switch_ns = base.Net.Cost.switch_ns * 2 });
      ("libos sched x2", { base with Net.Cost.libos_sched_ns = base.Net.Cost.libos_sched_ns * 2 });
    ]
  in
  List.iter
    (fun (name, cost) ->
      let ok, summary = Harness.Fig_latency.fig5_orderings_hold ~cost () in
      Metrics.Table.add_row table [ name; (if ok then "hold" else "BROKEN"); summary ])
    cases;
  Metrics.Table.print table;
  (* Seed sensitivity: identical workload, different worlds. *)
  let seed_table =
    Metrics.Table.create ~title:"Sensitivity: catnip echo across seeds"
      ~columns:[ "seed"; "avg RTT"; "p99" ]
  in
  List.iter
    (fun seed ->
      let rtts =
        Metrics.Hdr.of_list
          (Harness.Observe.run Harness.Observe.off
             { (Harness.Observe.echo Demikernel.Boot.Catnip_os) with count = 300; seed })
            .latencies
      in
      Metrics.Table.add_row seed_table
        [
          Int64.to_string seed;
          Metrics.Table.cell_ns (int_of_float (Metrics.Hdr.mean rtts));
          Metrics.Table.cell_ns (Metrics.Hdr.p99 rtts);
        ])
    [ 1L; 2L; 3L; 42L; 1337L ];
  Metrics.Table.print seed_table

(* ---------- driver ---------- *)

let run_all ~full =
  if full then begin
    Harness.Common.default_count := 20_000;
    Harness.Fig_apps.relay_count := 20_000
  end;
  Harness.Loc.print ~title:"Table 2: library OS sizes (this reproduction)" (Harness.Loc.table2 ());
  Harness.Loc.print ~title:"Table 3: application sizes (POSIX vs Demikernel)"
    (Harness.Loc.table3 ());
  say "@.Cost profile: %a@." Net.Cost.pp Net.Cost.bare_metal;
  Harness.Fig_latency.print ~title:"Figure 5: echo RTTs, 64B, Linux bare metal"
    (Harness.Fig_latency.fig5 ());
  Harness.Fig_latency.print ~title:"Figure 6a: echo on the Windows cluster profile"
    (Harness.Fig_latency.fig6_windows ());
  Harness.Fig_latency.print ~title:"Figure 6b: echo in the Azure VM profile"
    (Harness.Fig_latency.fig6_azure ());
  Harness.Fig_latency.print ~title:"Figure 7: echo with synchronous logging to disk"
    (Harness.Fig_latency.fig7 ());
  Harness.Fig_throughput.print_fig8 (Harness.Fig_throughput.fig8 ());
  Harness.Fig_throughput.print_fig9
    (Harness.Fig_throughput.fig9 ?duration_ms:(if full then Some 100 else None) ());
  Harness.Fig_apps.print_fig10 (Harness.Fig_apps.fig10 ());
  Harness.Fig_apps.print_fig11 (Harness.Fig_apps.fig11 ());
  Harness.Fig_apps.print_fig12
    (Harness.Fig_apps.fig12 ?txns:(if full then Some 10_000 else None) ());
  run_ablation ();
  run_robustness ();
  run_micro ()

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Harness.Common.default_count := 2_000;
  Harness.Fig_apps.relay_count := 2_000;
  match arg with
  | "all" -> run_all ~full:false
  | "full" -> run_all ~full:true
  | "table2" ->
      Harness.Loc.print ~title:"Table 2: library OS sizes" (Harness.Loc.table2 ())
  | "table3" ->
      Harness.Loc.print ~title:"Table 3: application sizes" (Harness.Loc.table3 ())
  | "fig5" ->
      Harness.Fig_latency.print ~title:"Figure 5: echo RTTs" (Harness.Fig_latency.fig5 ())
  | "fig6" ->
      Harness.Fig_latency.print ~title:"Figure 6a: Windows"
        (Harness.Fig_latency.fig6_windows ());
      Harness.Fig_latency.print ~title:"Figure 6b: Azure" (Harness.Fig_latency.fig6_azure ())
  | "fig7" ->
      Harness.Fig_latency.print ~title:"Figure 7: echo + sync logging"
        (Harness.Fig_latency.fig7 ())
  | "fig8" -> Harness.Fig_throughput.print_fig8 (Harness.Fig_throughput.fig8 ())
  | "fig9" -> Harness.Fig_throughput.print_fig9 (Harness.Fig_throughput.fig9 ())
  | "fig10" -> Harness.Fig_apps.print_fig10 (Harness.Fig_apps.fig10 ())
  | "fig11" -> Harness.Fig_apps.print_fig11 (Harness.Fig_apps.fig11 ())
  | "fig12" -> Harness.Fig_apps.print_fig12 (Harness.Fig_apps.fig12 ())
  | "ablation" -> run_ablation ()
  | "robustness" -> run_robustness ()
  | "micro" -> run_micro ()
  | "wallclock" ->
      (* wallclock [quick] [--out FILE] *)
      let rest = Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) in
      let quick = List.mem "quick" rest in
      let rec out_of = function
        | "--out" :: path :: _ -> Some path
        | _ :: rest -> out_of rest
        | [] -> None
      in
      (match out_of rest with
      | Some out -> Wallclock.run ~quick ~out ()
      | None -> Wallclock.run ~quick ())
  | "scale" ->
      (* scale [quick] [--pr N] [--out FILE]; the artifact defaults to
         BENCH_pr<N>.json so the file name tracks the PR that produced
         it (PR 8's run was committed under its own number; --pr keeps
         later reruns honestly labelled). *)
      let rest = Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) in
      let quick = List.mem "quick" rest in
      let rec out_of = function
        | "--out" :: path :: _ -> Some path
        | _ :: rest -> out_of rest
        | [] -> None
      in
      let rec pr_of = function
        | "--pr" :: n :: _ -> (
            match int_of_string_opt n with
            | Some pr when pr > 0 -> pr
            | Some _ | None ->
                prerr_endline ("scale: --pr expects a positive integer, got " ^ n);
                exit 1)
        | _ :: rest -> pr_of rest
        | [] -> 10
      in
      let pr = pr_of rest in
      (match out_of rest with
      | Some out -> Scale.run ~quick ~pr ~out ()
      | None -> Scale.run ~quick ~pr ())
  | "compare" ->
      (* compare [--dir D]: validate every committed BENCH_pr*.json
         against its family schema and flag regressions between
         consecutive artifacts (the `make bench-guard` entry point). *)
      let rest = Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)) in
      let rec dir_of = function
        | "--dir" :: d :: _ -> Some d
        | _ :: rest -> dir_of rest
        | [] -> None
      in
      (match dir_of rest with Some dir -> Compare.run ~dir () | None -> Compare.run ())
  | "churnprobe" ->
      let runpt n =
        let a0 = Gc.allocated_bytes () in
        let s = Wallclock.churn ~conns:n ~rounds:1 ~msg_size:64 () in
        let a1 = Gc.allocated_bytes () in
        Printf.printf "conns=%d gc=%.1fMB marginal=%.0fB/conn wall=%.3f\n%!" n
          ((a1 -. a0) /. 1048576.)
          ((a1 -. a0) /. float_of_int n)
          s.Wallclock.wall_s
      in
      runpt 1000;
      runpt 1000;
      runpt 10000;
      runpt 10000
  | other ->
      prerr_endline ("unknown experiment: " ^ other);
      exit 1
