(** The throughput experiments: Figure 8 (NetPIPE-style single-stream
    bandwidth vs message size) and Figure 9 (latency vs offered load). *)

type netpipe_row = { system : string; msg_size : int; gbps : float }

val fig8 : ?sizes:int list -> unit -> netpipe_row list
(** Ping-pong bandwidth ([2 * size / RTT], best of several warmed
    iterations) for raw DPDK, raw RDMA, Catmint, Catnip UDP and
    Catnip TCP. *)

val print_fig8 : netpipe_row list -> unit

type load_row = {
  system : string;
  offered_kops : float;
  achieved_kops : float;
  p50_ns : int;
  p99_ns : int;
}

val fig9 : ?duration_ms:int -> unit -> load_row list
(** Open-loop latency vs throughput sweep for Catmint, Catnip UDP,
    Catnip TCP, eRPC, Shenango and Caladan, 100 k to 2.5 M requests/s,
    over a measured window of [duration_ms] (default 20) per point. *)

val print_fig9 : load_row list -> unit

val demi_open_loop :
  ?cost:Net.Cost.t ->
  ?catmint_window:int ->
  flavor:Demikernel.Boot.flavor ->
  proto:Common.echo_proto ->
  msg_size:int ->
  rate_per_sec:float ->
  duration_ns:int ->
  unit ->
  Baselines.Kb_lib.load_result
(** One open-loop point against a Demikernel echo server (exposed for
    ablations). With the heap sanitizer armed, an ownership-oracle
    finding on either host raises [Failure]. *)
