(** Cattree: the SPDK library OS (§6.4).

    Maps the PDPIX queue abstraction onto an abstract log over the NVMe
    device: [open_log] names a log, [push] appends a record (completing
    when the device reports persistence), [pop] reads sequentially from
    a per-queue read cursor. Records are length-framed on the device, so
    a reopened log replays exactly the pushed sgas. Submission happens
    inline in the application coroutine; the fast-path coroutine polls
    the completion queue and unblocks waiting tokens. *)

type t

val create : Runtime.t -> ssd:Net.Ssd_sim.t -> t
val open_log : t -> string -> Pdpix.qd
(** Open (or recover) the named log; re-opening a name answers its qd. *)

val bytes_persisted : t -> int

val kill : t -> unit
(** Crash this node's storage stack: the fast path stops polling the
    device, releasing its completion queue to a successor node booted
    over the same device. *)
