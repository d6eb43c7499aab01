(** Deterministic reservoir sampling (Algorithm R) over an unbounded
    stream, seeded from {!Engine.Prng} (Demiflight span retention).

    Keeps a uniform sample of at most [capacity] items in constant
    memory no matter how many are offered. Determinism: the retained
    set is a pure function of the seed and the offer sequence, so two
    runs of the same scenario keep the same sample — the property the
    tail-attribution tables rely on to be reproducible. *)

type 'a t

val create : capacity:int -> prng:Engine.Prng.t -> 'a t
(** [capacity > 0]. The generator is owned by the reservoir from here
    on (hand it a {!Engine.Prng.split} of the scenario's stream). *)

val offer : 'a t -> 'a -> unit
(** The i-th offer is retained with probability [capacity/i], evicting
    a uniformly chosen incumbent (Algorithm R). *)

val seen : 'a t -> int
(** Total items offered. *)

val kept : 'a t -> int
(** Items currently retained ([= min (seen t) capacity]). *)

val to_list : 'a t -> 'a list
(** The retained sample, in slot order (deterministic, not offer
    order). *)
