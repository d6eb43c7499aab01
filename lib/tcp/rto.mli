(** Retransmission timeout estimation (RFC 6298) over a pooled flat
    TCB: {!words} integer fields at offset [base] of a {!Memory.Pool}
    slot.

    SRTT/RTTVAR are kept in nanoseconds. The classic 1-second minimum is
    far too conservative for a µs-scale datacenter stack, so the floor
    and ceiling are stack-config constants passed per call (Catnip-style
    stacks run single-digit-ms floors). *)

val words : int

val init : Memory.Pool.t -> int -> base:int -> min_rto:int -> unit
(** Call once on a freshly allocated (zeroed) slot. The initial RTO is
    the greater of the floor and 4 ms, pending the first sample. *)

val observe : Memory.Pool.t -> int -> base:int -> min_rto:int -> max_rto:int -> int -> unit
(** Feed one RTT sample (ns). Per Karn's algorithm the caller must only
    feed samples from segments that were not retransmitted. *)

val rto : Memory.Pool.t -> int -> base:int -> max_rto:int -> int
(** Current timeout, including any backoff. *)

val backoff : Memory.Pool.t -> int -> base:int -> max_rto:int -> unit
(** Double the timeout after a retransmission (capped at the ceiling). *)

val reset_backoff : Memory.Pool.t -> int -> base:int -> unit
(** New ack progress clears exponential backoff. *)

val srtt_ns : Memory.Pool.t -> int -> base:int -> int
(** Smoothed RTT in ns, [-1] before the first sample. *)
