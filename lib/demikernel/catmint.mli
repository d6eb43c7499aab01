(** Catmint: the RDMA library OS (§6.2).

    The device offloads ordering and reliability, so Catmint is thin: it
    builds PDPIX queues from two-sided sends over a single queue pair
    per device, multiplexing connections with channel ids (one QP per
    connection was unaffordable, §6.2). Message-based flow control: each
    side grants the peer a send-window count and publishes updated
    grants by one-sided RDMA writes into the sender's registered credit
    cell; a per-connection flow-control coroutine replenishes receive
    buffers and pushes grants when the application has consumed half a
    window. The DMA heap hands out rkeys on demand ([Heap.rkey]).

    On the Windows cost profile this is exactly Catpaw (same design over
    NDSPI); no separate code is needed. *)

type t

val create : Runtime.t -> rnic:Net.Rdma_sim.t -> ?window:int -> unit -> t
(** [window] is the per-connection message credit (default 64). *)

val net : t -> Runtime.net
