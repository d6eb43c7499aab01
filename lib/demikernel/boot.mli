(** Host assembly: build a simulated machine running one Demikernel
    datapath OS flavor, wired to the fabric. This is the experiment-side
    counterpart of "link against libOS X" — applications written against
    {!Pdpix.api} run on any flavor unchanged. *)

type flavor =
  | Catnap_os  (** POSIX kernel path, polling (no kernel-bypass HW). *)
  | Catnip_os  (** DPDK NIC + software TCP/UDP. *)
  | Catmint_os  (** RDMA NIC, device transport. *)

val flavor_name : flavor -> string
(** ["catnap"] | ["catnip"] | ["catmint"]: the CLI spelling and the
    default host-name prefix. *)

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
  catnip : Catnip.t option;  (** for stack introspection. *)
  mutable cattree : Cattree.t option;
  oracle : Pdpix.oracle option;
      (** The runtime ownership oracle around every app of this node,
          armed exactly when the host heap sanitizes
          ({!Memory.Heap.sanitize_default} at {!make}); its findings are
          logged at teardown next to the heap's report. *)
}

val make :
  Engine.Sim.t ->
  Net.Fabric.t ->
  index:int ->
  ?name:string ->
  ?tcp_config:Tcp.Stack.config ->
  ?catmint_window:int ->
  ?with_disk:bool ->
  ?ssd:Net.Ssd_sim.t ->
  flavor ->
  node
(** Create host [index] (addresses derive from it). [with_disk] attaches
    a fresh SSD: Cattree's logs share the host's one descriptor table for
    kernel-bypass flavors (§5.5), the kernel file path for Catnap.
    Passing [ssd] instead attaches an existing device — a "reboot" of a
    crashed node, whose Cattree logs recover their records on open. The
    cost profile comes from the fabric. *)

val run_app :
  node -> ?name:string -> ?wrap:(Pdpix.api -> Pdpix.api) -> (Pdpix.api -> unit) -> unit
(** Register an application worker coroutine. [wrap] (default
    identity) interposes on the api the app sees; the node's
    {!node.oracle}, when armed, observes the wrapped api. *)

val ownership_findings : node -> Pdpix.ownership_violation list
(** The node's oracle findings ({!Pdpix.oracle_finish}); [[]] when the
    oracle is not armed. *)

val start : node -> unit
(** Start the host's scheduler; call after registering all workers. *)

val endpoint : node -> int -> Net.Addr.endpoint
(** This node's address at a port. *)

val crash : node -> unit
(** Fail-stop the node: its scheduler halts and its storage fast path
    releases the device, so a successor booted with this node's [ssd]
    can recover the logs. *)
