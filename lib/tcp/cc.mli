(** Congestion control (Cubic, NewReno, or none), one controller per
    connection.

    The connection drives the controller with ack/loss events; the
    controller answers one question: how many bytes may be in flight.
    The algorithm and MSS are the stack config's, fixed at creation. An
    ack allocates nothing, in slow start or congestion avoidance. *)

type algorithm = Cubic | Newreno | None_cc

type t

val create : algorithm -> mss:int -> t
(** IW10, no ssthresh, no cubic epoch. *)

val cwnd : t -> int
(** Current congestion window in bytes. Unbounded for [None_cc]. *)

val in_slow_start : t -> bool

val on_ack : t -> acked:int -> now:int -> unit
(** New data acknowledged at virtual time [now] (ns). *)

val on_fast_retransmit : t -> unit
(** Triple-duplicate-ack loss signal (multiplicative decrease). *)

val on_timeout : t -> unit
(** RTO loss signal (collapse to one segment, re-enter slow start). *)
