(** Catnap: the POSIX library OS (§6.1).

    Exists so Demikernel applications run without kernel-bypass hardware
    — the same PDPIX API implemented with non-blocking kernel syscalls.
    Its fast-path coroutine polls [read]-style calls instead of sleeping
    in epoll, trading a burned core for the kernel wakeup latency (the
    Figure 5 Catnap-vs-Linux gap). Every I/O still pays crossings and
    copies; there is no DMA heap (the host should be created with a
    [Not_dma] heap) and no zero-copy.

    Storage: [open_log]/[push] map to write(2)+fsync(2) on an ext4-style
    file, each record length-framed; [pop] preads the next record from
    a per-queue cursor ([seek] moves it), so a log reopened after a
    crash replays what was pushed. *)

type t

val create : Runtime.t -> kernel:Oskernel.Kernel.t -> t
val net : t -> Runtime.net

val open_log : t -> string -> Pdpix.qd
(** Open the host's log file, finding the tail a previous boot left. *)
