(** One observed run, and the one observer-effect gate.

    Every recorder the repo ships — span intervals (with the SLO
    watchdog), the flight ring, causal request contexts, pcap capture,
    time-series sampling and the runtime ownership oracle — is a pure
    observer: arming it must not change the event interleaving, the
    virtual clock or anything an application measures. {!run} builds a
    scenario's world once, arms the requested recorders on it, and
    returns what they saw; {!check} is the proof, and the only place
    the repo compares a recorder-off run with a recorder-on run. A new
    recorder gets the same proof by being armed here (or passed as the
    arm's [probe]), not by a new copy of the comparison. *)

(** {1 Scenarios} *)

type app =
  | Echo of Common.echo_proto  (** client index 2 → server index 1, port 7 *)
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

(** {1 Arms} *)

type arm = {
  spans : bool;  (** Demitrace span intervals and wire events *)
  slo_ns : int option;  (** SLO watchdog threshold; arms spans too *)
  flight : int option;  (** flight ring of this capacity *)
  causal : bool;  (** Demifleet causal events *)
  capture : bool;  (** pcap taps on the fabric (wire + lost) *)
  timeline : int option;  (** fabric/ring/TCP telemetry sampled at this interval, ns *)
  oracle : bool;  (** runtime ownership oracle around every app *)
  trace_capacity : int;
      (** event-trace ring behind the digest; always armed, so it is
          part of the yardstick rather than an observer *)
  probe : (Engine.Sim.t -> unit) option;
      (** any other observer, attached before the hosts boot *)
}

val off : arm
(** Nothing armed but the 65536-event trace. *)

val describe : arm -> string
(** The armed recorders, ["+"]-joined (["none"] for {!off}). *)

(** {1 Running} *)

type run = {
  scenario : scenario;
  trace : Engine.Log.t;
  digest : string;  (** {!Engine.Log.digest} of [trace] *)
  events : int;  (** simulator events processed *)
  latencies : int list;  (** per request, completion order *)
  completed_at : int list;  (** virtual time of each completion, parallel to [latencies] *)
  nodes : Demikernel.Boot.node list;  (** servers first, the measuring client last *)
  fabric_stats : Net.Fabric.stats;
  spans : Engine.Span.t option;
  flight : Engine.Log.t option;
  causal : Engine.Causal.t option;
  capture : Net.Pcap.session option;
  timeline : Metrics.Timeseries.t option;
  violations : int option;  (** ownership-oracle findings, when armed *)
}

val run : arm -> scenario -> run
(** Build the scenario's world, arm [arm], run to completion and tear
    down. Recorder fields are [Some] exactly when armed. *)

val check : arm -> scenario -> (run, string) result
(** Run [scenario] bare ({!off}, with [arm]'s trace capacity), then
    armed. [Ok] carries the armed run when the trace digests, the
    event counts and the full latency lists are equal; [Error] names
    every difference. *)
