(** Congestion control (Cubic, NewReno, or none) over a pooled flat
    TCB.

    The connection drives the controller with ack/loss events; the
    controller answers one question: how many bytes may be in flight.
    Its state is {!int_words} integer fields at [ibase] and
    {!float_words} float fields at [fbase] of a {!Memory.Pool} slot, so
    per-ack cubic updates allocate nothing. The algorithm and MSS are
    stack-config constants passed per call. *)

type algorithm = Cubic | Newreno | None_cc

val int_words : int
val float_words : int

val init : Memory.Pool.t -> int -> ibase:int -> mss:int -> unit
(** Call once on a freshly allocated (zeroed) slot: IW10, no
    ssthresh, no cubic epoch. *)

val cwnd : Memory.Pool.t -> int -> ibase:int -> algorithm -> int
(** Current congestion window in bytes. Unbounded for [None_cc]. *)

val in_slow_start : Memory.Pool.t -> int -> ibase:int -> bool

val on_ack :
  Memory.Pool.t -> int -> ibase:int -> fbase:int -> algorithm -> mss:int -> acked:int -> now:int -> unit
(** New data acknowledged. *)

val on_fast_retransmit :
  Memory.Pool.t -> int -> ibase:int -> fbase:int -> algorithm -> mss:int -> now:int -> unit
(** Triple-duplicate-ack loss signal (multiplicative decrease). *)

val on_timeout :
  Memory.Pool.t -> int -> ibase:int -> fbase:int -> algorithm -> mss:int -> now:int -> unit
(** RTO loss signal (collapse to one segment, re-enter slow start). *)
