(** HDR-style constant-memory latency histograms with sub-1% quantile
    error — the one latency distribution type behind every figure,
    table and benchmark.

    Log-linear buckets with 128 linear sub-buckets per power of two
    (relative bucket width 1/128 < 1%) and rank-interpolated quantiles,
    so tail quantiles stay meaningful where coarser 1/32 buckets
    collapse (a p50=p99 plateau once recorded at 100k conns). Values are non-negative virtual nanoseconds; values below
    128 are recorded exactly; [max_int] is representable. The mean is
    the exact integer {!sum} over {!count}.

    Memory is a fixed ~7.3k-slot int array per histogram (~58 KB) no
    matter how many samples are recorded, and {!add} allocates nothing —
    it is safe inside poll loops held to a word budget.

    Mergeability is {e exact}: {!merge} adds bucket counts, so it is
    associative and commutative up to the full observable surface
    (buckets, count, sum, min, max) — per-shard histograms can be
    combined in any order without re-sampling error. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample in O(1) with zero allocation. Negative samples
    are clamped to zero. *)

val of_list : int list -> t
(** A fresh histogram of the samples. *)

val count : t -> int
val min : t -> int
val max : t -> int

val sum : t -> int
(** Exact integer sum of recorded samples (after clamping). *)

val mean : t -> float

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0,1]: the sample at rank
    [ceil (q * count)], linearly interpolated across its bucket by rank
    and clamped to [\[min t, max t\]]. Relative error vs the exact
    rank-statistic is bounded by the bucket width: at most 1/128
    (< 1%) for values >= 128, exact below. 0 if empty. *)

val p50 : t -> int
val p99 : t -> int
val p999 : t -> int

val to_buckets : t -> (int * int) list
(** Occupied buckets as [(upper_bound, count)], ascending, zero-count
    buckets omitted; counts sum to {!count}. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst] by exact bucket-count
    addition. *)

val clear : t -> unit
