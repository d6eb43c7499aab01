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
      (Staged.stage (fun () -> ignore (Net.Wire.checksum ~init:0 b 0 1500)))
  in
  let tcp_rx =
    (* Process one segment through header parse + demux + reassembly:
       the software path behind the paper's 53ns/packet figure. *)
    let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let frames = Memory.Heap.create ~headroom:0 ~mode:Memory.Heap.Pool_backed () in
    let clock = ref 0 in
    let iface_a =
      Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1)
        ~clock:(fun () -> !clock)
        ~frames ~tx_frame:Memory.Heap.free ()
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
      let h = Net.Tcp_wire.create () in
      Net.Tcp_wire.set h ~src_port:9999 ~dst_port:7 ~seq:1000 ~ack:0 ~syn:false ~ack_flag:false
        ~fin:false ~rst:false ~psh:true ~window:0xffff;
      let hsize = Net.Tcp_wire.header_size h in
      let total = Net.Eth.size + Net.Ipv4.size + hsize + 64 in
      let b = Bytes.create total in
      let eth = Net.Eth.create () in
      eth.Net.Eth.dst <- Net.Addr.Mac.of_index 1;
      eth.Net.Eth.src <- Net.Addr.Mac.of_index 2;
      eth.Net.Eth.ethertype <- Net.Eth.ethertype_ipv4;
      let off = Net.Eth.write b 0 eth in
      let ip = Net.Ipv4.create () in
      Net.Ipv4.set ip ~total_length:(Net.Ipv4.size + hsize + 64) ~identification:1
        ~protocol:Net.Ipv4.protocol_tcp ~src:(Net.Addr.Ip.of_index 2)
        ~dst:(Net.Addr.Ip.of_index 1) ~more_fragments:false ~fragment_offset:0;
      let off = Net.Ipv4.write b off ip in
      Bytes.blit_string payload 0 b (off + hsize) 64;
      ignore
        (Net.Tcp_wire.write b off h ~payload_len:64 ~src_ip:(Net.Addr.Ip.of_index 2)
           ~dst_ip:(Net.Addr.Ip.of_index 1));
      Bytes.unsafe_to_string b
    in
    Test.make ~name:"catnip: tcp segment rx processing"
      (Staged.stage (fun () ->
           clock := !clock + 100;
           Tcp.Stack.input stack (Memory.Heap.alloc_of_string frames seg)))
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
  let token_life =
    (* One qtoken's whole life on a runtime with 64 others pending:
       mint, complete and redeem, as a device completion and a [wait]
       on a ready token run them. *)
    let sim = Engine.Sim.create () in
    let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
    let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
    let rt = node.Demikernel.Boot.rt in
    for _ = 1 to 64 do
      ignore (Demikernel.Runtime.fresh_token rt)
    done;
    Test.make ~name:"runtime: qtoken mint+complete+redeem"
      (Staged.stage (fun () ->
           let qt = Demikernel.Runtime.fresh_token rt in
           Demikernel.Runtime.complete rt qt Demikernel.Pdpix.Pushed;
           ignore (Demikernel.Runtime.redeem rt qt)))
  in
  let queue_cycle =
    (* The runtime's PDPIX dispatch alone, with free libcalls as above:
       each run pushes one buffer into a [queue()] qd, pops it and
       redeems both tokens — two descriptor lookups, two inline
       completions, nothing device-specific. *)
    let sim = Engine.Sim.create () in
    let fabric =
      Net.Fabric.create sim ~cost:{ Net.Cost.bare_metal with Net.Cost.libos_sched_ns = 0 } ()
    in
    let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
    let api = node.Demikernel.Boot.api in
    let q = api.Demikernel.Pdpix.queue () in
    let sga = [ Memory.Heap.alloc node.Demikernel.Boot.host.Demikernel.Host.heap 64 ] in
    let pushed = [| 0 |] and popped = [| 0 |] in
    Test.make ~name:"runtime: push+pop+wait, queue() qd"
      (Staged.stage (fun () ->
           pushed.(0) <- api.Demikernel.Pdpix.push q sga;
           popped.(0) <- api.Demikernel.Pdpix.pop q;
           ignore (api.Demikernel.Pdpix.wait_any pushed);
           ignore (api.Demikernel.Pdpix.wait_any popped)))
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
  (* The scheduling substrate under every Host.charge and device wait.
     Each run advances a live world by exactly one operation, event
     loop included. *)
  let fiber_sleep =
    let sim = Engine.Sim.create () in
    Engine.Fiber.spawn sim (fun () ->
        while true do
          Engine.Fiber.sleep sim 1
        done);
    Engine.Sim.run ~until:0 sim;
    Test.make ~name:"fiber: sleep"
      (Staged.stage (fun () -> Engine.Sim.run ~until:(Engine.Sim.now sim + 1) sim))
  in
  let condvar_cycle =
    let sim = Engine.Sim.create () in
    let cv = Engine.Condvar.create sim in
    Engine.Fiber.spawn sim (fun () ->
        while true do
          ignore (Engine.Condvar.wait_many sim [ cv ] ~timeout:max_int)
        done);
    Engine.Sim.run sim;
    Test.make ~name:"condvar: wait+broadcast"
      (Staged.stage (fun () ->
           Engine.Condvar.broadcast cv;
           Engine.Sim.run sim))
  in
  let eventq =
    let q = Engine.Eventq.create () in
    let fn () = () in
    for i = 1 to 64 do
      ignore (Engine.Eventq.add q ~time:i fn 0 : int)
    done;
    let clock = ref 0 in
    Test.make ~name:"eventq: add+pop (64 pending)"
      (Staged.stage (fun () ->
           incr clock;
           ignore (Engine.Eventq.add q ~time:(!clock + 64) fn 0 : int);
           ignore (Engine.Eventq.pop q : unit -> unit)))
  in
  [
    sched_switch; waker; checksum; tcp_rx; heap_ops; hdr; wait_any ~tokens:8; wait_any ~tokens:2048;
    token_life; queue_cycle;
    log_record "flight note" flight_note; log_record "span interval" span_interval; fiber_sleep;
    condvar_cycle; eventq;
  ]

(* A fit below this r^2 is not an estimate: the row prints "unresolved"
   instead of a figure. *)
let min_r_square = 0.9

(* Bechamel compacts the heap once before each test; [~stabilize:false]
   stops it compacting again before every sample, which spent most of
   the quota and left too few samples for the fit to resolve. *)
let run_micro () =
  let open Bechamel in
  say "@.Microbenchmarks (real ns on this machine; one row per operation)@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false () in
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
          let ns = if r2 >= min_r_square then Printf.sprintf "%.1f" est else "unresolved" in
          Metrics.Table.add_row table [ name; ns; Printf.sprintf "%.4f" r2 ])
        ols)
    tests;
  Metrics.Table.print table;
  say "Note: the dsched row covers 2000 dispatches plus world setup;@.";
  say "divide by ~2000 for the per-switch cost the paper quotes in cycles.@."

(* ---------- ablations ---------- *)

(* A run's mean and p99 latency cells. *)
let rtt_cells (r : Harness.Observe.run) =
  let rtts = Metrics.Hdr.of_list r.latencies in
  Metrics.Table.[ cell_ns (int_of_float (Metrics.Hdr.mean rtts)); cell_ns (Metrics.Hdr.p99 rtts) ]

(* TCP retransmissions summed over a run's Catnip nodes. *)
let retransmits (r : Harness.Observe.run) =
  List.fold_left
    (fun n (node : Demikernel.Boot.node) ->
      match node.catnip with
      | Some c -> n + Tcp.Stack.total_retransmits (Demikernel.Catnip.stack c)
      | None -> n)
    0 r.nodes

(* Two Catnip hosts with [tcp_config], the echo server on host 1 and
   [client] (given the server's endpoint) on host 2. *)
let catnip_echo_cell ?loss name tcp_config client =
  Harness.Observe.cell ?loss name (fun w ->
      let boot index =
        Demikernel.Boot.make w.Harness.Observe.sim w.fabric ~index ~tcp_config
          Demikernel.Boot.Catnip_os
      in
      let server = boot 1 in
      let client_node = boot 2 in
      Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
      Demikernel.Boot.run_app client_node (client w (Demikernel.Boot.endpoint server 7));
      Demikernel.Boot.start server;
      Demikernel.Boot.start client_node;
      [ ("server", server); ("client", client_node) ])

let run_ablation () =
  say "@.Ablations (design choices DESIGN.md calls out)@.";
  (* Congestion control: Cubic vs NewReno vs none on the echo RTT. *)
  let cc_table =
    Metrics.Table.create ~title:"Ablation: Catnip congestion control (64B echo)"
      ~columns:[ "cc"; "avg RTT"; "p99" ]
  in
  List.iter
    (fun (name, cc) ->
      let r =
        Harness.Observe.build Harness.Observe.off
          (catnip_echo_cell ("cc " ^ name) { Tcp.Stack.default_config with Tcp.Stack.cc }
             (fun w dst api -> Apps.Echo.client ~dst ~msg_size:64 ~count:500 ~record:w.record api))
      in
      Metrics.Table.add_row cc_table (name :: rtt_cells r))
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
      Metrics.Table.add_row loss_table
        ((Printf.sprintf "%.1f%%" (loss *. 100.) :: rtt_cells r) @ [ string_of_int (retransmits r) ]))
    [ 0.0; 0.001; 0.01 ];
  Metrics.Table.print loss_table;
  (* SACK: bulk transfer under loss with and without selective acks. *)
  let sack_table =
    Metrics.Table.create ~title:"Ablation: SACK under 2% loss (2MB bulk transfer)"
      ~columns:[ "sack"; "transfer time"; "retransmits" ]
  in
  List.iter
    (fun (name, use_sack) ->
      let finished_at = ref 0 in
      let r =
        Harness.Observe.build Harness.Observe.off
          (catnip_echo_cell ~loss:0.02 ("sack " ^ name)
             { Tcp.Stack.default_config with Tcp.Stack.use_sack }
             (fun w dst ->
               Apps.Echo.stream_client ~dst ~msg_size:32_768 ~count:64 ~window:8
                 ~on_done:(fun () -> finished_at := Engine.Sim.now w.sim)))
      in
      Metrics.Table.add_row sack_table
        [ name; Metrics.Table.cell_ns !finished_at; string_of_int (retransmits r) ])
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
          ~flavor:Demikernel.Boot.Catmint_os ~proto:Harness.Observe.Echo_tcp ~msg_size:64
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
  Harness.Observe.default_count := 300;
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
      Metrics.Table.add_row seed_table
        (Int64.to_string seed
        :: rtt_cells
             (Harness.Observe.run Harness.Observe.off
                { (Harness.Observe.echo Demikernel.Boot.Catnip_os) with count = 300; seed })))
    [ 1L; 2L; 3L; 42L; 1337L ];
  Metrics.Table.print seed_table

(* ---------- driver ---------- *)

let run_all ~full =
  if full then begin
    Harness.Observe.default_count := 20_000;
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
  Harness.Observe.default_count := 2_000;
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
  | other ->
      prerr_endline ("unknown experiment: " ^ other);
      exit 1
