(** Catnip: the DPDK library OS (§6.3).

    The device is a raw Ethernet NIC, so Catnip carries the full
    software transport: the deterministic TCP/UDP stack from the [tcp]
    library, driven by a fast-path coroutine that polls the rx ring,
    processes error-free packets to completion, and unblocks the
    application coroutine waiting on the matching queue token. Outgoing
    pushes are processed inline in the calling application coroutine and
    submitted to the NIC in the error-free case — the run-to-completion
    flow of Figure 4. *)

type t

val create : Runtime.t -> nic:Net.Dpdk_sim.t -> ?config:Tcp.Stack.config -> unit -> t

val net : t -> Runtime.net

val stack : t -> Tcp.Stack.t
(** The underlying TCP stack, for introspection (cwnd, retransmits). *)
