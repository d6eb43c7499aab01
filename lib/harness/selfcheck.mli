(** Determinism self-check (the §6.3 property, testbed-wide).

    Runs a fixed scenario — closed-loop echo over Catnip (DPDK/TCP),
    Catnap (POSIX) and Catmint (RDMA), with tracing, the flight ring
    and the heap sanitizer armed — twice
    from the same seed, and compares a fingerprint of each run: the
    {!Engine.Log.digest} of the full event trace, the number of
    simulator events processed, and a rendered table of the final
    metrics (RTT distribution and per-host heap statistics). Any
    divergence means something in the stack consulted an unseeded or
    order-dependent source, which the repro must never do.

    Both echo apps run through {!Demikernel.Pdpix.checked}, so the
    runtime ownership oracle validates the zero-copy protocol
    end-to-end on every selfcheck; any violation (reported at
    [Sim.teardown] alongside the heap sanitizer) fails the check.

    Each flavor's run is also measured on two process-wide counters.
    The bytes the simulator copies ({!Engine.Copies.moved}) are printed
    in the metrics table, so the pinned output holds them exactly. The
    minor words it allocates must stay within an exact per-echo budget
    (a constant in [selfcheck.ml], measured at the defaults): one more
    word per echo, or an allocating idle poll, is reported on stderr
    and fails the check.

    Exposed to operators as [demi --selfcheck] and to CI as a unit
    test. *)

type fingerprint = {
  digest : string; (* trace digest over all three flavors' traces *)
  events : int; (* total simulator events processed *)
  metrics : string; (* rendered final-metrics table *)
  ownership_violations : int; (* oracle findings across all flavors *)
  words_over : int; (* minor words over the per-echo budgets, all flavors *)
}

type result = { seed : int64; first : fingerprint; second : fingerprint; ok : bool }

val run : ?seed:int64 -> ?count:int -> unit -> result
(** [count] (default 64) echos per flavor per run. *)

val print : Format.formatter -> result -> unit
(** Human-readable verdict; on divergence, prints both fingerprints. *)
