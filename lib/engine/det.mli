(** Deterministic iteration helpers.

    [Hashtbl]'s iteration order depends on the hash function and
    insertion history, so any datapath loop written with [Hashtbl.iter]
    or [Hashtbl.fold] can reorder side effects between runs — exactly
    the nondeterminism the simulator promises not to have. `dune
    runtest` runs with [OCAMLRUNPARAM=R], so each table hashes with its
    own seed and such a loop changes a same-seed twin run's output (the
    selfcheck digests, wire and disk bytes, the pinned figures). These
    helpers are the order-stable replacement. They snapshot the key
    set, sort it with an explicit comparison, and then visit bindings in
    that order — which also makes them safe against the table being
    mutated mid-iteration (a binding added during the walk is simply not
    visited; a binding removed is skipped). *)

val hashtbl_sorted_keys : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** The table's (deduplicated) keys in ascending [compare] order. *)

val hashtbl_iter_sorted :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k -> 'v -> unit) -> unit
(** [Hashtbl.iter] with deterministic (sorted-key) visit order. Only the
    most recent binding of each key is visited. *)

val hashtbl_fold_sorted :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k -> 'v -> 'a -> 'a) -> 'a -> 'a
(** [Hashtbl.fold] with deterministic (sorted-key) visit order. *)
