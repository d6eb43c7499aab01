(** Demifleet: cross-host causal request tracing, per-request critical
    paths, and a fleet-wide latency profile.

    Inputs are the recorders an {!Observe.run} armed: {!Engine.Causal}
    events (Begin / Sent / Received / End, stamped by {!Apps.Framing}
    from the 16-byte causal context every framed message carries) and —
    optionally — Demiscope wire events for per-edge evidence. The DAG
    builder pairs each Received with the most recent unmatched Sent of
    the same message id (a zero-copy relay re-sends the {e same} id at
    the next hop), then walks the critical path backwards from End: the
    latest receive on a host explains when its final segment could
    start, and that receive's matching send moves the walk upstream.
    The resulting segments partition [Begin, End] exactly — the
    fleet profile's per-row sums add up to end-to-end latency with no
    residual, by construction. *)

type edge = {
  e_req : int;
  e_msg : int;
  e_hop : int;
      (** leg index — the {e sender}'s hop count. A zero-copy relay
          forwards bytes unchanged, so the receiver decodes the original
          in-frame hop; the forwarding host's Sent note carries the
          incremented one. *)
  e_src : string;
  e_dst : string;
  e_send_op : int;  (** qtoken of the push that sent it. *)
  e_recv_op : int;  (** qtoken of the pop that surfaced it. *)
  e_t0 : int;
  e_t1 : int;
  e_evidence : Engine.Span.wire_event list;
      (** wire events src→dst overlapping [\[t0, t1\]] — frames, drops,
          retransmits that can witness this edge. *)
}

type seg = {
  s_host : string;  (** host name, or ["a→b"] for wire segments. *)
  s_comp : string;  (** ["issue"] | ["net"] | ["serve"] | ["deliver"]. *)
  s_hop : int;
  s_t0 : int;
  s_t1 : int;
}

type request = {
  r_id : int;
  r_host : string;  (** root host (where Begin was noted). *)
  r_begin : int;
  r_end : int;
  r_events : Engine.Causal.event list;  (** oldest first. *)
  r_edges : edge list;  (** by send time. *)
  r_critical : seg list;  (** oldest first; contiguous. *)
}

val seg_dur : seg -> int
val critical_sum : request -> int

val critical_exact : request -> bool
(** Critical-path segments sum exactly to [r_end - r_begin]. *)

val dag : ?spans:Engine.Span.t -> Engine.Causal.t -> request list
(** Stitch recorded causal events into per-request DAGs, in request-id
    (creation) order. [spans] supplies wire events for edge evidence. *)

(** {1 Fleet profile} *)

type prow = {
  pr_hop : int;
  pr_comp : string;
  pr_hdr : Metrics.Hdr.t;  (** per-request time in this row. *)
  mutable pr_total : int;  (** exact integer sum across requests. *)
  mutable pr_count : int;
}

type profile = {
  p_app : string;
  mutable p_rows : prow list;  (** first-seen order. *)
  p_e2e : Metrics.Hdr.t;
  mutable p_e2e_total : int;
  mutable p_requests : int;
}

val profile : app:string -> request list -> profile
(** Aggregate critical paths by (hop, component). Each request
    contributes one sample per key it touches, so row quantiles are
    per-request distributions, and row totals sum exactly to the
    end-to-end total. *)

val profile_exact : profile -> bool
(** [Σ row totals = Σ end-to-end] — the Table-5-style exactness
    invariant. *)

val chrome_export : app:string -> request list -> string
(** Chrome trace-event JSON: one lane (tid) per request spanning all
    hosts, B/E slices for critical-path segments, flow arrows for
    causal edges. Passes {!Chrome_trace.validate}. *)
