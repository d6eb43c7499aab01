(** Flat open-addressing map for connection demultiplexing.

    A connection is keyed by [(local port, remote ip, remote port)].
    The table packs that key into two ints per entry (ports in [ka], ip
    in [kb] — the three fields total 64 bits and do not fit one 63-bit
    OCaml int), so a lookup builds no tuple, and stores values as a
    [_ option array] whose [Some] cells are returned directly: a
    {!find} allocates zero minor words.

    Hashing is fixed (no per-process seed) and iteration is only
    offered in sorted key order, so it cannot leak hash-order
    nondeterminism into a run. *)

type 'v t

val create : ?initial:int -> unit -> 'v t
(** [initial] (default 16) is rounded up to a power of two; the table
    grows by doubling as bindings are added. *)

val length : 'v t -> int

val find : 'v t -> ka:int -> kb:int -> 'v option
(** Allocation-free: returns the stored option cell. *)

val replace : 'v t -> ka:int -> kb:int -> 'v -> unit
(** Insert or overwrite — [Hashtbl.replace] semantics (one binding per
    key). *)

val remove : 'v t -> ka:int -> kb:int -> unit
(** Remove the key's binding if present ([Hashtbl.remove] semantics
    for a single-binding table). *)

val fold_sorted : 'v t -> cmp:(int * int -> int * int -> int) -> (int * int -> 'v -> 'a -> 'a) -> 'a -> 'a
(** Fold over live bindings in [cmp] order on the packed (ka, kb)
    keys, so no loop over it depends on hashing. *)
