(** Shared experiment scaffolding: build a world, run systems, collect
    latency distributions. *)

type world = { sim : Engine.Sim.t; fabric : Net.Fabric.t; cost : Net.Cost.t }

val make_world : ?cost:Net.Cost.t -> ?loss:float -> ?seed:int64 -> unit -> world

val run_world : ?horizon_s:int -> world -> unit

type echo_proto = Echo_tcp | Echo_udp

val linux_echo_rtt :
  ?cost:Net.Cost.t ->
  ?persist:bool ->
  ?msg_size:int ->
  ?count:int ->
  proto:echo_proto ->
  unit ->
  Metrics.Hdr.t

val kb_echo_rtt :
  ?cost:Net.Cost.t ->
  ?msg_size:int ->
  ?count:int ->
  Baselines.Kb_lib.profile ->
  Metrics.Hdr.t

val raw_dpdk_rtt : ?cost:Net.Cost.t -> ?msg_size:int -> ?count:int -> unit -> Metrics.Hdr.t
val raw_rdma_rtt : ?cost:Net.Cost.t -> ?msg_size:int -> ?count:int -> unit -> Metrics.Hdr.t

val default_count : int ref
(** Echo iterations per measurement (settable by the CLI for quick
    runs). *)
