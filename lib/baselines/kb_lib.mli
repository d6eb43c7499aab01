(** Models of the recent kernel-bypass libraries the paper compares
    against (§7.1): eRPC (run-to-completion RPC over RDMA with a custom
    transport), Shenango (DPDK with a dedicated IOKernel core that every
    packet traverses), and Caladan (single-core run-to-completion on the
    low-level OFED API). Each is an echo system with the cost structure
    that distinguishes its architecture; the structure — not absolute
    constants — produces the Figure 5/9 orderings. *)

type profile = {
  name : string;
  device : [ `Dpdk | `Rdma ];
  per_op_cpu_ns : int;  (** library CPU per send or receive operation. *)
  per_packet_hop_ns : int;
      (** extra per-direction latency (e.g. the IOKernel core hop). *)
}

val erpc : profile
val shenango : profile
val caladan : profile

val echo :
  profile ->
  Engine.Sim.t ->
  Net.Fabric.t ->
  server_index:int ->
  client_index:int ->
  msg_size:int ->
  count:int ->
  record:(int -> unit) ->
  on_done:(unit -> unit) ->
  unit
(** Closed-loop echo RTTs (Figure 5). *)

type load_result = {
  offered_per_sec : float;
  achieved_per_sec : float;
  latencies : Metrics.Hdr.t;
}

val echo_open_loop :
  profile ->
  Engine.Sim.t ->
  Net.Fabric.t ->
  server_index:int ->
  client_index:int ->
  msg_size:int ->
  rate_per_sec:float ->
  duration_ns:int ->
  (load_result -> unit) ->
  unit
(** Open-loop echo at an offered rate; the callback receives the
    measured throughput and latency distribution when the run ends
    (Figure 9). *)
