(** The latency experiments: Figures 5, 6 and 7. Each returns typed
    rows and can print itself in the paper's shape. *)

type system =
  | Demi of Demikernel.Boot.flavor * Observe.echo_proto
  | Linux of Observe.echo_proto  (** the kernel path *)
  | Kb of Baselines.Kb_lib.profile  (** a kernel-bypass library *)
  | Raw_dpdk  (** testpmd *)
  | Raw_rdma  (** perftest *)

val echo_rtt :
  ?cost:Net.Cost.t -> ?persist:bool -> ?msg_size:int -> ?count:int -> system -> Metrics.Hdr.t
(** One closed-loop echo between hosts 1 and 2, built by {!Observe}
    with every recorder off; returns the RTT distribution. [persist]
    (Demikernel and Linux servers) logs every message to disk first.
    Defaults: bare metal, 64 B, [!Observe.default_count] echos. *)

(** {1 Figures} *)

type row = {
  system : string;
  avg_ns : int;
  p99_ns : int;
  datapath_ns_per_io : int option;
      (** avg time attributable to the datapath OS per I/O operation
          (four I/Os per echo), relative to the raw device baseline. *)
}

val fig5 : unit -> row list
(** Echo RTTs, 64 B, Linux bare metal: Linux, Catnap, Catmint,
    Catnip (UDP), Catnip (TCP), eRPC, Shenango, Caladan, raw DPDK,
    raw RDMA. *)

val fig6_windows : unit -> row list
(** Echo on the Windows cluster profile: Linux (WSL), Catnap (WSL),
    Catpaw (RDMA). *)

val fig6_azure : unit -> row list
(** Echo in the Azure VM profile: Linux, Catnap, Catnip (vnet DPDK),
    Catmint (bare-metal Infiniband). *)

val fig7 : unit -> row list
(** Echo with synchronous logging to disk: Linux, Catnap,
    Catmint x Cattree, Catnip (UDP/TCP) x Cattree. *)

val print : title:string -> row list -> unit

val fig5_orderings_hold : ?cost:Net.Cost.t -> unit -> bool * string
(** Re-measure the Figure 5 systems under a (possibly perturbed) cost
    profile and check the paper's headline orderings; returns the
    verdict and a compact summary line. Used by the sensitivity
    analysis. *)
