(** Open-loop load generator (§7.3's measurement methodology).

    Closed-loop clients hide overload: a slow server makes the client
    send slower, so measured latency stays flat while real capacity is
    long gone (coordinated omission). This generator is {e open-loop}:
    request arrival times come from a Poisson process fixed in advance,
    keys from a YCSB-style zipfian, and every latency sample is measured
    from the request's {e scheduled} arrival — queueing delay a
    coordinated client would silently absorb shows up in the tail, as it
    does against a real cluster.

    Two layers:

    - {!plan}: the deterministic schedule generator (Poisson arrivals,
      zipfian keys, get/set mix) — pure {!Engine.Prng} state, shared by
      the PDPIX runner below and the raw-stack scale benchmark
      ([bench -- scale]).
    - {!run}: a PDPIX application driving a {!Dkv} or {!Txnstore} server
      over many concurrent connections with optional connection churn. *)

(** {1 The schedule} *)

type op_kind = Get | Set

type op = { at_ns : int;  (** scheduled arrival *) kind : op_kind; key : int }

type plan

val plan :
  prng:Engine.Prng.t ->
  rate_per_sec:float ->
  keys:int ->
  theta:float ->
  get_ratio:float ->
  start_ns:int ->
  plan
(** Zipfian setup is O(keys); each {!next} is O(1). *)

val peek_at : plan -> int
(** Scheduled arrival (ns) of the next operation — the open-loop clock
    never waits for completions. *)

val next : plan -> op
(** Consume the next operation and advance the schedule. *)

(** {1 Request encoding} — shared with the scale bench. *)

type target = Kv | Txn

val encode_request : target -> kind:op_kind -> key:string -> value:string -> string
(** The unframed request body: {!Dkv} command or {!Txnstore} RPC
    (version-1 last-writer-wins put). Callers frame it
    ({!Framing.encode}). *)

(** {1 The PDPIX runner} *)

type stats = {
  issued : int;
  completed : int;
  reconnects : int;  (** churned connections re-opened *)
  latencies : Metrics.Hdr.t;  (** scheduled-arrival → response *)
}

val run :
  dst:Net.Addr.endpoint ->
  ?target:target ->
  ?conns:int ->
  ?keys:int ->
  ?value_size:int ->
  ?theta:float ->
  ?get_ratio:float ->
  ?churn_every:int ->
  ?seed:int ->
  rate_per_sec:float ->
  duration_ns:int ->
  ?on_done:(stats -> unit) ->
  Demikernel.Pdpix.api ->
  unit
(** Open-loop client over [conns] (default 4) connections to one
    server. Operations are assigned round-robin; a connection with a
    request already outstanding queues behind it (TCP order), and the
    wait is charged to the sample — open-loop honesty. [churn_every]
    (default 0 = long-lived) closes and re-opens a connection after
    that many completed operations, exercising the TCB arena's
    alloc/free path under load. Runs until [duration_ns] of virtual
    time plus a grace period for in-flight responses. *)
