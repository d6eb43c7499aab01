type flavor = Catnap_os | Catnip_os | Catmint_os

type node = {
  api : Pdpix.api;
  rt : Runtime.t;
  host : Host.t;
  ip : Net.Addr.Ip.t;
  flavor : flavor;
  kernel : Oskernel.Kernel.t option;
  ssd : Net.Ssd_sim.t option;
  nic : Net.Dpdk_sim.t option;
  rnic : Net.Rdma_sim.t option;
  catnip : Catnip.t option;
  mutable cattree : Cattree.t option;
  oracle : Pdpix.oracle option;
}

let flavor_name = function
  | Catnap_os -> "catnap"
  | Catnip_os -> "catnip"
  | Catmint_os -> "catmint"

let default_disk_capacity = 1 lsl 30

let make sim fabric ~index ?name ?tcp_config ?catmint_window ?(with_disk = false)
    ?ssd:existing_ssd flavor =
  let cost = Net.Fabric.cost fabric in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s-%d" (flavor_name flavor) index
  in
  let mac = Net.Addr.Mac.of_index index in
  let ip = Net.Addr.Ip.of_index index in
  let heap_mode =
    match flavor with
    | Catnap_os -> Memory.Heap.Not_dma
    | Catnip_os -> Memory.Heap.Pool_backed
    | Catmint_os -> Memory.Heap.Register_on_demand
  in
  let host = Host.create sim ~name ~cost ~heap_mode in
  (* A sanitizing heap arms the ownership oracle too: the same switch
     audits the host's buffers and every app's PDPIX protocol. *)
  let oracle =
    if Memory.Heap.sanitizing host.heap then begin
      let o = Pdpix.oracle ~name () in
      Engine.Sim.at_teardown sim (fun () -> Pdpix.log_oracle_teardown o);
      Some o
    end
    else None
  in
  let rt = Runtime.create host in
  let ssd =
    match existing_ssd with
    | Some _ as s -> s
    | None ->
        if with_disk then Some (Net.Ssd_sim.create sim ~cost ~capacity:default_disk_capacity)
        else None
  in
  (* The §5.5 network x storage integration: a Catnip or Catmint host
     with a disk opens its logs on Cattree, in the same descriptor
     table as its sockets. *)
  let cattree = ref None in
  let api net =
    match ssd with
    | Some ssd ->
        let ct = Cattree.create rt ~ssd in
        cattree := Some ct;
        Runtime.make_api rt ~name:(flavor_name flavor ^ "xcattree") ~net
          ~logs:(Some (Cattree.open_log ct))
    | None -> Runtime.make_api rt ~name:(flavor_name flavor) ~net ~logs:None
  in
  match flavor with
  | Catnap_os ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let kernel = Oskernel.Kernel.create sim ~name:(name ^ "-kernel") ~cost ~nic ?ssd () in
      let cn = Catnap.create rt ~kernel in
      let api =
        Runtime.make_api rt ~name:"catnap" ~net:(Catnap.net cn) ~logs:(Some (Catnap.open_log cn))
      in
      {
        api; rt; host; ip; flavor;
        kernel = Some kernel; ssd; nic = Some nic; rnic = None; catnip = None;
        cattree = None; oracle;
      }
  | Catnip_os ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let cn = Catnip.create rt ~nic ?config:tcp_config () in
      let api = api (Catnip.net cn) in
      {
        api; rt; host; ip; flavor;
        kernel = None; ssd; nic = Some nic; rnic = None; catnip = Some cn;
        cattree = !cattree; oracle;
      }
  | Catmint_os ->
      let rnic = Net.Rdma_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let cm = Catmint.create rt ~rnic ?window:catmint_window () in
      let api = api (Catmint.net cm) in
      {
        api; rt; host; ip; flavor;
        kernel = None; ssd; nic = None; rnic = Some rnic; catnip = None;
        cattree = !cattree; oracle;
      }

let run_app node ?name ?(wrap = fun api -> api) main =
  let api = wrap node.api in
  let api = match node.oracle with Some o -> Pdpix.checked o api | None -> api in
  Runtime.spawn_app node.rt ?name main api

let ownership_findings node =
  match node.oracle with Some o -> Pdpix.oracle_finish o | None -> []

let start node = Runtime.start node.rt

let endpoint node port = Net.Addr.endpoint node.ip port

let crash node =
  (match node.cattree with Some ct -> Cattree.kill ct | None -> ());
  Dsched.stop (Runtime.sched node.rt)
