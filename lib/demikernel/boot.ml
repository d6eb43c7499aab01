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
  let rt = Runtime.create host in
  let ssd =
    match existing_ssd with
    | Some _ as s -> s
    | None ->
        if with_disk then Some (Net.Ssd_sim.create sim ~cost ~capacity:default_disk_capacity)
        else None
  in
  let cattree = ref None in
  let with_storage net_ops =
    match ssd with
    | Some ssd when flavor <> Catnap_os ->
        let ct = Cattree.create rt ~ssd in
        cattree := Some ct;
        Runtime.combine ~net:net_ops ~storage:(Cattree.ops ct)
    | Some _ | None -> net_ops
  in
  match flavor with
  | Catnap_os ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let kernel = Oskernel.Kernel.create sim ~name:(name ^ "-kernel") ~cost ~nic ?ssd () in
      let cn = Catnap.create rt ~kernel in
      let api = Runtime.make_api rt (Catnap.ops cn) in
      {
        api; rt; host; ip; flavor;
        kernel = Some kernel; ssd; nic = Some nic; rnic = None; catnip = None;
        cattree = None;
      }
  | Catnip_os ->
      let nic = Net.Dpdk_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let cn = Catnip.create rt ~nic ?config:tcp_config () in
      let api = Runtime.make_api rt (with_storage (Catnip.ops cn)) in
      {
        api; rt; host; ip; flavor;
        kernel = None; ssd; nic = Some nic; rnic = None; catnip = Some cn;
        cattree = !cattree;
      }
  | Catmint_os ->
      let rnic = Net.Rdma_sim.create fabric ~mac ~ip () in
      Net.Fabric.label_port fabric ~mac ~owner:name;
      let cm = Catmint.create rt ~rnic ?window:catmint_window () in
      let api = Runtime.make_api rt (with_storage (Catmint.ops cm)) in
      {
        api; rt; host; ip; flavor;
        kernel = None; ssd; nic = None; rnic = Some rnic; catnip = None;
        cattree = !cattree;
      }

let run_app node ?name ?(wrap = fun api -> api) main =
  Runtime.spawn_app node.rt ?name main (wrap node.api)

let start node = Runtime.start node.rt

let endpoint node port = Net.Addr.endpoint node.ip port

let crash node =
  (match node.cattree with Some ct -> Cattree.kill ct | None -> ());
  Dsched.stop (Runtime.sched node.rt)
