(** TxnStore: the replicated transactional key-value store of §7.6.

    The evaluation's configuration is the weakly consistent quorum-write
    protocol: a GET reads one replica, a PUT writes all three replicas
    (versioned last-writer-wins), and a YCSB-F transaction is an atomic
    read-modify-write — read the current version from one replica, write
    version+1 everywhere. RPC rides {!Framing} messages, so the same
    binary runs over Catnap, Catnip TCP and Catmint messages. *)

(** {1 Wire codec} — shared with the kernel-path and RDMA baselines.

    Requests are [\[u8 op\]\[u16 klen\]\[key\]] (GET) and
    [\[u8 op\]\[u16 klen\]\[key\]\[u32 version\]\[value\]] (PUT);
    replies are [\[1\]\[u32 version\]\[value\]] (GET hit), [\[0\]]
    (GET miss or a malformed request) and [\[1\]] (PUT ack). *)

val get_len : string -> int
val put_len : string -> string -> int
(** The length of a GET request for a key, of a PUT for a key and
    value. *)

val write_get : Bytes.t -> int -> string -> unit
val write_put : Bytes.t -> int -> string -> version:int -> string -> unit
(** Write a request at an offset of a buffer with room for it: how a
    sender writes each request once, in place. *)

val encode_get : string -> string
val encode_put : string -> version:int -> string -> string
(** A request as a fresh string. *)

(** {1 Store} — one per replica, the same for the PDPIX server and
    both baselines, so every replica behaves identically. *)

type store
(** Each key maps to a mutable entry (version, value bytes, length). A
    newer PUT overwrites the value in place, allocating only when it
    grows; a stale PUT changes nothing. *)

val create_store : unit -> store

val length : store -> int
(** Keys stored. *)

val apply : store -> Bytes.t -> int -> int -> int
(** [apply store b off len] runs the request in the [len] bytes of [b]
    at [off], parsed in place, and returns the length of its reply. The
    reply stays pending in [store] until {!write_reply}; apply nothing
    else to the store in between. *)

val write_reply : store -> Bytes.t -> int -> unit
(** Write the pending reply at [off]: for a GET hit, the value goes
    from the store straight into [b]. *)

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
