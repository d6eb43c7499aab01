(** Virtual time for the discrete-event simulator.

    All simulated time is kept in integer nanoseconds. OCaml's native
    [int] is 63 bits, which covers ~146 years of virtual time — far more
    than any experiment needs — while staying unboxed. *)

type t = int
(** A point in (or span of) virtual time, in nanoseconds. *)

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
