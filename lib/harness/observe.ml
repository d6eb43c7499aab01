(* One world builder for every observed scenario, and the one
   recorder-off vs recorder-on comparison. Recorders are armed before
   the hosts boot (ports and queues are labelled at boot), the timeline
   after (its gauges read the nodes), and everything stays read-only:
   [check] is what holds them to it. *)

type app = Echo of Common.echo_proto | Txnstore of { replicas : int; quorum : int option } | Relay

type scenario = {
  flavor : Demikernel.Boot.flavor;
  app : app;
  count : int;
  msg_size : int;
  loss : float;
  cost : Net.Cost.t;
  persist : bool;
  seed : int64;
}

let echo flavor =
  {
    flavor; app = Echo Common.Echo_tcp; count = 16; msg_size = 64; loss = 0.;
    cost = Net.Cost.bare_metal; persist = false; seed = 1L;
  }

let txnstore flavor = { (echo flavor) with app = Txnstore { replicas = 3; quorum = None }; count = 8 }
let relay flavor = { (echo flavor) with app = Relay; count = 8 }

type arm = {
  spans : bool;
  slo_ns : int option;
  flight : int option;
  causal : bool;
  capture : bool;
  timeline : int option;
  oracle : bool;
  trace_capacity : int;
  probe : (Engine.Sim.t -> unit) option;
}

let off =
  {
    spans = false; slo_ns = None; flight = None; causal = false; capture = false;
    timeline = None; oracle = false; trace_capacity = 65_536; probe = None;
  }

let describe a =
  let on =
    List.filter_map
      (fun (name, armed) -> if armed then Some name else None)
      [
        ("spans", a.spans && a.slo_ns = None); ("slo", a.slo_ns <> None);
        ("flight", a.flight <> None); ("causal", a.causal); ("capture", a.capture);
        ("timeline", a.timeline <> None); ("oracle", a.oracle); ("probe", a.probe <> None);
      ]
  in
  if on = [] then "none" else String.concat "+" on

type run = {
  scenario : scenario;
  trace : Engine.Log.t;
  digest : string;
  events : int;
  latencies : int list;
  completed_at : int list;
  nodes : Demikernel.Boot.node list;
  fabric_stats : Net.Fabric.stats;
  spans : Engine.Span.t option;
  flight : Engine.Log.t option;
  causal : Engine.Causal.t option;
  capture : Net.Pcap.session option;
  timeline : Metrics.Timeseries.t option;
  violations : int option;
}

(* Fabric counters, then each node's device rings and TCP state under
   its role name. *)
let sampler (w : Common.world) roles interval_ns =
  let ts = Metrics.Timeseries.create ~interval_ns in
  let fabric f () = f (Net.Fabric.stats w.fabric) in
  Metrics.Timeseries.counter ts "fabric_bytes" (fabric (fun s -> s.Net.Fabric.bytes_carried));
  Metrics.Timeseries.counter ts "fabric_frames" (fabric (fun s -> s.Net.Fabric.frames_delivered));
  Metrics.Timeseries.counter ts "fabric_drops" (fabric (fun s -> s.Net.Fabric.frames_dropped));
  List.iter
    (fun (role, (node : Demikernel.Boot.node)) ->
      let col what = role ^ "_" ^ what in
      Option.iter
        (fun nic -> Metrics.Timeseries.gauge ts (col "rx_ring") (fun () -> Net.Dpdk_sim.rx_pending nic))
        node.nic;
      Option.iter
        (fun rnic -> Metrics.Timeseries.gauge ts (col "cq") (fun () -> Net.Rdma_sim.cq_pending rnic))
        node.rnic;
      Option.iter
        (fun cn ->
          let stack = Demikernel.Catnip.stack cn in
          Metrics.Timeseries.gauge ts (col "cwnd") (fun () -> Tcp.Stack.agg_cwnd stack);
          Metrics.Timeseries.gauge ts (col "inflight") (fun () -> Tcp.Stack.agg_bytes_in_flight stack);
          Metrics.Timeseries.counter ts (col "rtx") (fun () -> Tcp.Stack.total_retransmits stack))
        node.catnip)
    roles;
  Engine.Sim.set_sampler w.sim ~interval:interval_ns (fun now -> Metrics.Timeseries.sample ts ~now);
  ts

let run arm sc =
  (* The oracle arm is the heap sanitizer's switch, which also arms
     each node's ownership oracle (Boot.make reads it). *)
  let prior = Memory.Heap.sanitize_default () in
  if arm.oracle then Memory.Heap.set_sanitize_default true;
  Fun.protect ~finally:(fun () -> Memory.Heap.set_sanitize_default prior) @@ fun () ->
  let w = Common.make_world ~cost:sc.cost ~loss:sc.loss ~seed:sc.seed () in
  let sim = w.sim in
  let trace = Engine.Sim.enable_trace ~capacity:arm.trace_capacity sim in
  let spans =
    if arm.spans || arm.slo_ns <> None then begin
      let s = Engine.Sim.enable_spans sim in
      Option.iter (fun threshold_ns -> Engine.Span.set_slo s ~threshold_ns) arm.slo_ns;
      Some s
    end
    else None
  in
  let flight = Option.map (fun capacity -> Engine.Sim.enable_flight ~capacity sim) arm.flight in
  let causal = if arm.causal then Some (Engine.Sim.enable_causal sim) else None in
  let capture = if arm.capture then Some (Net.Pcap.tap w.fabric) else None in
  Option.iter (fun probe -> probe sim) arm.probe;
  let boot ?name ?with_disk index = Demikernel.Boot.make sim w.fabric ~index ?name ?with_disk sc.flavor in
  let lats = ref [] and ends = ref [] in
  let record ns =
    lats := ns :: !lats;
    ends := Engine.Sim.now sim :: !ends
  in
  let roles =
    match sc.app with
    | Echo proto ->
        let server = boot ~with_disk:sc.persist 1 in
        let client = boot 2 in
        let dst = Demikernel.Boot.endpoint server 7 in
        (match proto with
        | Common.Echo_tcp ->
            Demikernel.Boot.run_app server (Apps.Echo.server ~port:7 ~persist:sc.persist);
            Demikernel.Boot.run_app client
              (Apps.Echo.client ~dst ~msg_size:sc.msg_size ~count:sc.count ~record)
        | Common.Echo_udp ->

            Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7);
            Demikernel.Boot.run_app client
              (Apps.Echo.udp_client ~dst ~src_port:5001 ~msg_size:sc.msg_size ~count:sc.count ~record));
        Demikernel.Boot.start server;
        Demikernel.Boot.start client;
        [ ("server", server); ("client", client) ]
    | Txnstore { replicas; quorum } ->
        let servers =
          List.init replicas (fun i ->
              let name = Printf.sprintf "replica%d" (i + 1) in
              let node = boot ~name (i + 1) in
              Demikernel.Boot.run_app node (Apps.Txnstore.server ~port:7447);
              Demikernel.Boot.start node;
              (name, node))
        in
        let eps = List.map (fun (_, node) -> Demikernel.Boot.endpoint node 7447) servers in
        let client = boot ~name:"client" (replicas + 1) in
        Demikernel.Boot.run_app client (fun api ->
            let c = Apps.Txnstore.connect api ~replicas:eps ~seed:7 in
            let value = String.make sc.msg_size 'v' in
            for i = 1 to sc.count do
              let t0 = api.Demikernel.Pdpix.clock () in
              Apps.Txnstore.put ?quorum c (Printf.sprintf "key:%04d" i) ~version:i value;
              record (api.Demikernel.Pdpix.clock () - t0)
            done;
            Apps.Txnstore.close c);
        Demikernel.Boot.start client;
        servers @ [ ("client", client) ]
    | Relay ->
        let server = boot ~name:"relay" 1 in
        Demikernel.Boot.run_app server (Apps.Relay.server ~port:3478);
        Demikernel.Boot.start server;
        let gen = boot ~name:"gen" 2 in
        Demikernel.Boot.run_app gen
          (Apps.Relay.generator
             ~dst:(Demikernel.Boot.endpoint server 3478)
             ~src_port:4000 ~session:7 ~msg_size:sc.msg_size ~count:sc.count ~record);
        Demikernel.Boot.start gen;
        [ ("relay", server); ("gen", gen) ]
  in
  let timeline = Option.map (sampler w roles) arm.timeline in
  Common.run_world w;
  if capture <> None then Net.Pcap.untap w.fabric;
  Engine.Sim.clear_sampler sim;
  {
    scenario = sc; trace; digest = Engine.Log.digest trace;
    events = Engine.Sim.events_processed sim; latencies = List.rev !lats;
    completed_at = List.rev !ends; nodes = List.map snd roles;
    fabric_stats = Net.Fabric.stats w.fabric; spans; flight; causal; capture; timeline;
    violations =
      (if List.exists (fun (_, (n : Demikernel.Boot.node)) -> Option.is_some n.oracle) roles then
         Some
           (List.fold_left
              (fun n (_, node) -> n + List.length (Demikernel.Boot.ownership_findings node))
              0 roles)
       else None);
  }

let demi_echo_rtt ?(cost = Net.Cost.bare_metal) ?(persist = false) ?(msg_size = 64) ?count ~proto
    flavor =
  let count = match count with Some c -> c | None -> !Common.default_count in
  let r = run off { (echo flavor) with app = Echo proto; count; msg_size; cost; persist } in
  Metrics.Hdr.of_list r.latencies

let check arm sc =
  let bare = run { off with trace_capacity = arm.trace_capacity } sc in
  let armed = run arm sc in
  let summary l = Printf.sprintf "%d requests summing to %dns" (List.length l) (List.fold_left ( + ) 0 l) in
  let diffs =
    List.filter_map Fun.id
      [
        (if String.equal bare.digest armed.digest then None
         else Some (Printf.sprintf "trace digest %s vs %s" bare.digest armed.digest));
        (if bare.events = armed.events then None
         else Some (Printf.sprintf "event count %d vs %d" bare.events armed.events));
        (if bare.latencies = armed.latencies then None
         else
           Some
             (Printf.sprintf "latencies (%s vs %s)" (summary bare.latencies)
                (summary armed.latencies)));
      ]
  in
  if diffs = [] then Ok armed
  else
    Error
      (Printf.sprintf "%s perturbs %s on %s: %s" (describe arm)
         (match sc.app with Echo _ -> "echo" | Txnstore _ -> "txnstore" | Relay -> "relay")
         (Demikernel.Boot.flavor_name sc.flavor)
         (String.concat "; " diffs))
