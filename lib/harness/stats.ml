(* `demi stats`: populate a deterministic Metrics.Registry from a run.

   Collection is read-only introspection after the simulation has torn
   down — nothing here touches the clock or the event set. Names follow
   the registry convention <owner>/<subsystem>/<metric>; the registry
   iterates name-sorted, so the report is byte-stable across runs of the
   same seed. *)

let collect_node reg node =
  let name = node.Demikernel.Boot.host.Demikernel.Host.name in
  let key sub metric = Printf.sprintf "%s/%s/%s" name sub metric in
  let hs = Memory.Heap.stats node.Demikernel.Boot.host.Demikernel.Host.heap in
  Metrics.Registry.set reg (key "heap" "allocations") hs.Memory.Heap.allocations;
  Metrics.Registry.set reg (key "heap" "frees") hs.Memory.Heap.frees;
  Metrics.Registry.set reg (key "heap" "live") hs.Memory.Heap.live;
  Metrics.Registry.set reg (key "heap" "uaf_protected") hs.Memory.Heap.uaf_protected;
  Metrics.Registry.set reg (key "heap" "bytes_copied") hs.Memory.Heap.bytes_copied;
  Metrics.Registry.set reg
    (key "sched" "context_switches")
    (Demikernel.Dsched.context_switches (Demikernel.Runtime.sched node.Demikernel.Boot.rt));
  Option.iter
    (fun nic ->
      Metrics.Registry.set reg (key "nic" "rx_dropped") (Net.Dpdk_sim.rx_dropped nic))
    node.Demikernel.Boot.nic;
  Option.iter
    (fun catnip ->
      let stack = Demikernel.Catnip.stack catnip in
      Metrics.Registry.set reg (key "tcp" "retransmits") (Tcp.Stack.total_retransmits stack);
      let cs = Tcp.Stack.conn_stats stack in
      Metrics.Registry.set reg (key "tcp" "conns_live") cs.Tcp.Stack.live;
      Metrics.Registry.set reg (key "tcp" "conns_opened") cs.Tcp.Stack.ever_opened;
      Metrics.Registry.set reg (key "tcp" "conns_peak") cs.Tcp.Stack.peak)
    node.Demikernel.Boot.catnip;
  Option.iter
    (fun kernel ->
      Metrics.Registry.set reg (key "kernel" "syscalls") (Oskernel.Kernel.syscalls kernel))
    node.Demikernel.Boot.kernel

let collect_fabric reg (s : Net.Fabric.stats) =
  Metrics.Registry.set reg "fabric/frames_delivered" s.frames_delivered;
  Metrics.Registry.set reg "fabric/frames_dropped" s.frames_dropped;
  Metrics.Registry.set reg "fabric/bytes_carried" s.bytes_carried

let collect_spans reg spans =
  List.iter
    (fun (comp, ns) ->
      Metrics.Registry.set reg
        (Printf.sprintf "span/%s_ns" (Engine.Span.component_name comp))
        ns)
    (Engine.Span.totals spans);
  Metrics.Registry.set reg "span/ops" (Engine.Span.op_count spans);
  Metrics.Registry.set reg "span/intervals_dropped" (Engine.Span.dropped spans)

let collect (r : Observe.run) =
  let reg = Metrics.Registry.create () in
  let client = List.nth r.nodes (List.length r.nodes - 1) in
  List.iter
    (Metrics.Registry.observe reg
       (Printf.sprintf "%s/echo/rtt_ns" client.Demikernel.Boot.host.Demikernel.Host.name))
    r.latencies;
  List.iter (collect_node reg) r.nodes;
  collect_fabric reg r.fabric_stats;
  Option.iter (collect_spans reg) r.spans;
  reg
