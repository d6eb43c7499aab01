(** `demi stats`: populate a deterministic {!Metrics.Registry} from a
    finished run. Collection is read-only introspection after teardown;
    names follow [<owner>/<subsystem>/<metric>] and iteration is
    name-sorted, so reports are byte-stable for a fixed seed. *)

val collect : Observe.run -> Metrics.Registry.t
(** The registry of a finished run: every node's heap, scheduler, NIC,
    TCP and kernel counters, the fabric, the spans' per-component
    virtual-ns totals and op counts (when armed), and the measuring
    client's latency histogram. *)
