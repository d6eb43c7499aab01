(** TxnStore: the replicated transactional key-value store of §7.6.

    The evaluation's configuration is the weakly consistent quorum-write
    protocol: a GET reads one replica, a PUT writes all three replicas
    (versioned last-writer-wins), and a YCSB-F transaction is an atomic
    read-modify-write — read the current version from one replica, write
    version+1 everywhere. RPC rides {!Framing} messages, so the same
    binary runs over Catnap, Catnip TCP and Catmint messages. *)

(** {1 Wire codec} — shared with the kernel-path baseline. *)

val encode_get : string -> string
val encode_put : string -> version:int -> string -> string

val handle_request :
  store:(string, int * string) Hashtbl.t -> Bytes.t -> int -> int -> string
(** [handle_request ~store b off len]: server-side processing of the
    request in the [len] bytes of [b] at [off], parsed in place; returns
    the encoded response. Shared by the PDPIX server and the
    kernel-path and RDMA baselines so every replica behaves
    identically. *)

val parse_get_response : string -> (int * string) option

val parse_get_view : Bytes.t -> int -> int -> (int * string) option
(** {!parse_get_response} over the [len] bytes of [b] at [off]: only the
    value is copied out. *)

val server : ?port:int -> Demikernel.Pdpix.api -> unit
(** One replica. *)

type client

val connect :
  Demikernel.Pdpix.api -> replicas:Net.Addr.endpoint list -> seed:int -> client
(** Connect to every replica. GETs round-robin across replicas. *)

val get : client -> string -> (int * string) option
(** (version, value). *)

val put : ?quorum:int -> client -> string -> version:int -> string -> unit
(** Replicate to every replica; wait for [quorum] acks (default: all).
    Acks drain in replica order, so a sub-quorum straggler is always a
    highest-index replica; its ack is consumed lazily before the next
    operation that touches that connection (or at {!close}). *)

val rmw : client -> string -> (string -> string) -> unit
(** One YCSB-F transaction: read, modify, write everywhere. *)

val close : client -> unit

val ycsb_f :
  dst_replicas:Net.Addr.endpoint list ->
  keys:int ->
  value_size:int ->
  txns:int ->
  theta:float ->
  seed:int ->
  ?record:(int -> unit) ->
  ?on_done:(unit -> unit) ->
  Demikernel.Pdpix.api ->
  unit
(** YCSB workload F: read-modify-write transactions over a zipfian
    keyspace (preloaded first; preload is not measured). *)
