(** The application experiments: Figure 10 (UDP relay), Figure 11 (KV
    store throughput) and Figure 12 (TxnStore YCSB-F latency). *)

type latency_row = { system : string; avg_ns : int; p99_ns : int }

val relay_count : int ref
(** Default packet count for Figure 10 (settable by the CLI). *)

val fig10 : ?count:int -> unit -> latency_row list
(** Relay latency seen by a common kernel-path traffic generator against
    Linux, io_uring and Catnip relay servers. *)

val print_fig10 : latency_row list -> unit

type kv_row = {
  system : string;
  op : [ `Get | `Set ];
  persist : bool;
  kops : float;
}

type kv_system =
  | Linux_kv  (** the kernel KV server *)
  | Demi_server of Demikernel.Boot.flavor  (** a Dkv server, kernel benchmark clients *)
  | Demi_kv of Demikernel.Boot.flavor  (** a Dkv server and Dkv benchmark clients *)

val kv_cell :
  kv_system ->
  op:[ `Get | `Set ] ->
  persist:bool ->
  clients:int ->
  ops_per_client:int ->
  on_start:(int -> unit) ->
  on_done:(int -> unit) ->
  Observe.cell
(** One Figure 11 cell: the server on host 1 (with fsync-per-SET when
    [persist]) and [clients] closed-loop benchmark clients on hosts
    2…; each client calls [on_start] at its first measured operation
    and [on_done] after its last, with the virtual time. *)

val fig11 : ?ops_per_client:int -> ?clients:int -> unit -> kv_row list
(** KV-store throughput (closed loop, [clients] concurrent connections),
    GET and SET, in-memory and with fsync-per-SET persistence, for
    Linux, Catnap, Catmint and Catnip. *)

val print_fig11 : kv_row list -> unit

val fig12 : ?txns:int -> ?keys:int -> unit -> latency_row list
(** YCSB-F transaction latency over 3 replicas: Linux TCP, Linux UDP,
    custom RDMA, Catnap, Catmint, Catnip TCP. *)

val print_fig12 : latency_row list -> unit
