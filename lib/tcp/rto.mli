(** Retransmission timeout estimation (RFC 6298), one estimator per
    connection.

    SRTT/RTTVAR are kept in nanoseconds. The classic 1-second minimum is
    far too conservative for a µs-scale datacenter stack, so the floor
    and ceiling come from the stack config (Catnip-style stacks run
    single-digit-ms floors). *)

type t

val create : min_rto:int -> max_rto:int -> t
(** No sample yet: the initial RTO is the greater of the floor and
    4 ms. *)

val observe : t -> int -> unit
(** Feed one RTT sample (ns). Per Karn's algorithm the caller must only
    feed samples from segments that were not retransmitted. *)

val rto : t -> int
(** Current timeout, including any backoff. *)

val backoff : t -> unit
(** Double the timeout after a retransmission (capped at the ceiling). *)

val reset_backoff : t -> unit
(** New ack progress clears exponential backoff. *)

val srtt : t -> int option
(** Smoothed RTT in ns, [None] before the first sample. *)
