(** Table-5-style latency attribution: where each nanosecond of one
    echo RTT went, per Demitrace component.

    A critical-path sweep cuts the RTT window at every span boundary and
    charges each elementary segment to exactly one component (CPU work
    beats asynchronous device/wire time; the most recently started CPU
    interval wins), so the component sums plus the unattributed
    remainder equal the end-to-end RTT {e exactly}. *)

type breakdown = {
  components : (Engine.Span.component * int) list;
      (** nonzero components, presentation order *)
  other : int;  (** window time covered by no span: queueing, idle waits *)
  total : int;  (** window length = sum of [components] + [other] *)
}

val attribute : Engine.Span.t -> w0:int -> w1:int -> breakdown
(** Sweep the recorded intervals clipped to [\[w0, w1\]]. *)

val breakdown_json : breakdown -> string
(** Raw JSON object, embedded in the Chrome trace's top level. *)

val last_rtt : Observe.run -> breakdown
(** The breakdown of the run's last completed request. The run must
    have been observed with spans. *)

val print_table : Observe.run list -> unit
(** Print the paper-style breakdown table, one column per run (its
    {!last_rtt}). *)

(** {2 Tail attribution (Demiflight)}

    "Table 5 for the slowest 0.1%": the same critical-path sweep,
    aggregated over retained per-op windows and conditioned on latency
    quantile. Retention is a deterministic reservoir (Algorithm R over
    a fixed-seed generator, independent of the sim's PRNG) plus an
    exact slowest-k list, so the extreme tail band is never starved by
    sampling. *)

val sum_breakdowns : breakdown list -> breakdown
(** Component-wise sum; preserves the exactness invariant
    (components + other = total) since each summand satisfies it. *)

type tail_band = {
  band_label : string;
  band_quantile : float;  (** lower quantile bound; 0.0 = every op *)
  band_cut_ns : int;  (** RTT threshold the band starts at *)
  band_ops : int;  (** retained windows aggregated into the band *)
  band_breakdown : breakdown;  (** exact virtual-ns sums over those windows *)
}

type tail = {
  tail_flavor : Demikernel.Boot.flavor;
  tail_ops : int;  (** total RTTs measured *)
  tail_hdr : Metrics.Hdr.t;  (** full-precision RTT distribution *)
  tail_sampled : int;  (** distinct windows retained *)
  tail_bands : tail_band list;
  tail_digest : string;
}

val default_quantiles : (string * float) list
(** [all, p90+, p99+, p99.9+]. *)

val tail : ?quantiles:(string * float) list -> Observe.run -> tail
(** Every request of a spans-armed run feeds the Hdr histogram and
    offers its window to the reservoir (capacity 256) and the slowest-k
    list (64). Bands are cumulative from each quantile cut upward. *)

val print_tail : tail -> unit
(** Print the per-band breakdown table; cells are exact virtual-ns
    sums (each band column's component rows + other = end-to-end). *)
