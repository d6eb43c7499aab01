(** The one world builder, and the one observer-effect gate.

    Every world the harness runs — each figure cell, baselines
    included, each bench ablation and each [demi] scenario — is a
    {!cell} that {!build} creates, arms and runs, so any published
    number can be re-run with recorders armed. Every recorder (span
    intervals with the SLO watchdog, the flight ring, causal contexts,
    pcap capture, time-series sampling, the ownership oracle) is a pure
    observer: arming it must not change the event interleaving, the
    virtual clock or anything an application measures. {!check} is the
    proof, and the only place the repo compares a recorder-off run with
    a recorder-on run; a new recorder is armed here (or passed as the
    arm's [probe]), not given a new copy of the comparison. *)

(** {1 Worlds} *)

type world = {
  sim : Engine.Sim.t;
  fabric : Net.Fabric.t;
  record : int -> unit;  (** one request's latency, in ns, in completion order *)
}

type cell

val cell :
  ?cost:Net.Cost.t ->
  ?loss:float ->
  ?seed:int64 ->
  string ->
  (world -> (string * Demikernel.Boot.node) list) ->
  cell
(** [cell name wire]: a world of this cost profile (bare metal), frame
    loss (none) and seed (1), named [name] in {!check}'s report. [wire]
    boots the hosts and starts their apps; it returns the Demikernel
    nodes by role, servers first, the measuring client last. *)

(** {1 Scenarios: the canned cells [demi] and the selfcheck observe} *)

type echo_proto = Echo_tcp | Echo_udp

type app =
  | Echo of echo_proto  (** client index 2 → server index 1, port 7 *)
  | Txnstore of { replicas : int; quorum : int option }
      (** quorum-replicated puts: servers ["replica1"…], one ["client"]
          waiting for [quorum] acks per put (default all). A sub-quorum
          leaves a straggler ack per put. *)
  | Relay  (** TURN-style fan-out: ["gen"] → ["relay"] → ["gen"], zero-copy *)

type scenario = {
  flavor : Demikernel.Boot.flavor;
  app : app;
  count : int;  (** requests, measured one at a time *)
  msg_size : int;  (** payload bytes (the txnstore value size) *)
  loss : float;  (** injected frame-loss probability *)
  cost : Net.Cost.t;
  persist : bool;  (** the echo server logs every message to disk first *)
  seed : int64;
}

val echo : Demikernel.Boot.flavor -> scenario
(** TCP echo, 16 requests of 64 B, lossless, bare metal, seed 1. *)

val txnstore : Demikernel.Boot.flavor -> scenario
(** 3 replicas acked by all, 8 puts of 64 B values. *)

val relay : Demikernel.Boot.flavor -> scenario
(** 8 relayed messages of 64 B. *)

val of_scenario : scenario -> cell

val default_count : int ref
(** Echos per figure latency measurement ([bench] sets it per run size). *)

(** {1 Arms} *)

type arm = {
  spans : bool;  (** Demitrace span intervals and wire events *)
  slo_ns : int option;  (** SLO watchdog threshold; arms spans too *)
  flight : int option;  (** flight ring of this capacity *)
  causal : bool;  (** Demifleet causal events *)
  capture : bool;  (** pcap taps on the fabric (wire + lost) *)
  timeline : int option;  (** fabric/ring/TCP telemetry sampled at this interval, ns *)
  oracle : bool;
      (** the heap sanitizer for this world's heaps, and with it each
          node's runtime ownership oracle ({!Demikernel.Boot.node}) *)
  trace_capacity : int option;
      (** the event-trace ring behind {!digest}; armed only where a
          digest is read (the selfcheck, {!check}, [demi echo --trace],
          [demi table5 --tail]) *)
  probe : (Engine.Sim.t -> unit) option;
      (** any other observer, attached before the hosts boot *)
}

val off : arm
(** Nothing armed, not even the trace. *)

val traced : arm
(** Nothing armed but the 65536-event trace. *)

val describe : arm -> string
(** The armed recorders, ["+"]-joined; the trace is the yardstick, not
    one (["none"] for {!off} and {!traced}). *)

(** {1 Running} *)

type run = {
  trace : Engine.Log.t option;
  events : int;  (** simulator events processed *)
  latencies : int list;  (** per request, completion order *)
  completed_at : int list;  (** virtual time of each completion, parallel to [latencies] *)
  nodes : Demikernel.Boot.node list;  (** the cell's roles, in its order *)
  fabric_stats : Net.Fabric.stats;
  spans : Engine.Span.t option;
  flight : Engine.Log.t option;
  causal : Engine.Causal.t option;
  capture : Net.Pcap.session option;
  timeline : Metrics.Timeseries.t option;
  violations : int option;
      (** ownership-oracle findings, when armed (by [oracle] or by
          {!Memory.Heap.sanitize_default}) *)
}

val build : arm -> cell -> run
(** Build the cell's world, arm [arm], run to completion and tear
    down. Recorder fields are [Some] exactly when armed. *)

val run : arm -> scenario -> run
(** [build arm (of_scenario scenario)]. *)

val digest : run -> string
(** The trace's {!Engine.Log.digest}; [Invalid_argument] if untraced. *)

val check : arm -> cell -> (run, string) result
(** Build [cell] bare, then armed, both traced ([arm]'s capacity, else
    {!traced}'s). [Ok] carries the armed run when the trace digests,
    the event counts and the full latency lists are equal; [Error]
    names every difference. *)
