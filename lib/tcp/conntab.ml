(* The connection demultiplexer: an open-addressing hash table keyed by
   the (local port, remote ip, remote port) 4-tuple-minus-one, stored as
   two packed ints per entry so the RX lookup allocates nothing — the
   63-bit OCaml int cannot hold 16+32+16 key bits, hence the pair:

     ka = (local_port lsl 16) lor remote_port     (32 bits)
     kb = remote_ip                               (32 bits)

   [find] returns the stored [Some v] cell itself, so a steady stream of
   lookups costs zero minor words. Hashing is a fixed multiply-xor mix —
   deterministic across runs, unlike seeded [Hashtbl].

   Semantics are those of a [Hashtbl.replace]/[remove] pair, including
   the 4-tuple-reuse shadowing behaviour (removing a key always removes
   the current binding, even if it was re-bound by a newer connection
   since). The stack's observable behaviour depends on it, so the
   golden trace digest pins it. *)

type 'v t = {
  mutable ka : int array; (* -1 = empty, -2 = tombstone *)
  mutable kb : int array;
  mutable vals : 'v option array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int; (* live bindings *)
  mutable used : int; (* live + tombstones *)
}

let empty_key = -1
let tombstone = -2

let create ?(initial = 16) () =
  let cap = ref 16 in
  while !cap < initial do
    cap := !cap * 2
  done;
  let cap = !cap in
  {
    ka = Array.make cap empty_key;
    kb = Array.make cap 0;
    vals = Array.make cap None;
    mask = cap - 1;
    count = 0;
    used = 0;
  }

let length t = t.count

(* SplitMix64-style finalizer constants, truncated to 62 bits; overflow
   wraps, which is fine for mixing. *)
let hash ka kb =
  let h = (ka * 0x2545_F491_4F6C_DD1D) lxor (kb * 0x27D4_EB2F_1656_67C5) in
  h lxor (h lsr 29)

let rec probe vals keys_a keys_b mask ka kb i =
  let k = Array.unsafe_get keys_a i in
  if k = empty_key then None
  else if k = ka && Array.unsafe_get keys_b i = kb then Array.unsafe_get vals i
  else probe vals keys_a keys_b mask ka kb ((i + 1) land mask)

let find t ~ka ~kb = probe t.vals t.ka t.kb t.mask ka kb (hash ka kb land t.mask)

(* Index of the key's binding, or -1. *)
let find_index t ~ka ~kb =
  let mask = t.mask in
  let i = ref (hash ka kb land mask) in
  let result = ref (-1) in
  let continue = ref true in
  while !continue do
    let k = t.ka.(!i) in
    if k = empty_key then continue := false
    else if k = ka && t.kb.(!i) = kb then begin
      result := !i;
      continue := false
    end
    else i := (!i + 1) land mask
  done;
  !result

let rehash t new_cap =
  let old_ka = t.ka and old_kb = t.kb and old_vals = t.vals in
  let old_cap = t.mask + 1 in
  t.ka <- Array.make new_cap empty_key;
  t.kb <- Array.make new_cap 0;
  t.vals <- Array.make new_cap None;
  t.mask <- new_cap - 1;
  t.used <- t.count;
  for i = 0 to old_cap - 1 do
    let ka = old_ka.(i) in
    if ka >= 0 then begin
      let kb = old_kb.(i) in
      let j = ref (hash ka kb land t.mask) in
      while t.ka.(!j) >= 0 do
        j := (!j + 1) land t.mask
      done;
      t.ka.(!j) <- ka;
      t.kb.(!j) <- kb;
      t.vals.(!j) <- old_vals.(i)
    end
  done

let maybe_grow t =
  let cap = t.mask + 1 in
  if (t.used + 1) * 2 > cap then begin
    (* Grow when live bindings need it; same-size rehash just flushes
       tombstones. *)
    let new_cap = if (t.count + 1) * 4 > cap then cap * 2 else cap in
    rehash t new_cap
  end

let replace t ~ka ~kb v =
  (match find_index t ~ka ~kb with
  | -1 ->
      maybe_grow t;
      let mask = t.mask in
      let i = ref (hash ka kb land mask) in
      let slot = ref (-1) in
      let continue = ref true in
      while !continue do
        let k = t.ka.(!i) in
        if k = empty_key then begin
          if !slot < 0 then slot := !i;
          continue := false
        end
        else begin
          if k = tombstone && !slot < 0 then slot := !i;
          i := (!i + 1) land mask
        end
      done;
      let s = !slot in
      if t.ka.(s) = empty_key then t.used <- t.used + 1;
      t.ka.(s) <- ka;
      t.kb.(s) <- kb;
      t.vals.(s) <- Some v;
      t.count <- t.count + 1
  | i -> t.vals.(i) <- Some v);
  ()

let remove t ~ka ~kb =
  match find_index t ~ka ~kb with
  | -1 -> ()
  | i ->
      t.ka.(i) <- tombstone;
      t.vals.(i) <- None;
      t.count <- t.count - 1

(* Live bindings in sorted key order — the same deterministic-iteration
   contract as [Det.hashtbl_fold_sorted]. [cmp] gets the packed (ka, kb)
   pair of each binding. *)
let fold_sorted t ~cmp f init =
  let n = t.count in
  if n = 0 then init
  else begin
    let idx = Array.make n 0 in
    let j = ref 0 in
    for i = 0 to t.mask do
      if t.ka.(i) >= 0 then begin
        idx.(!j) <- i;
        incr j
      end
    done;
    let order a b = cmp (t.ka.(a), t.kb.(a)) (t.ka.(b), t.kb.(b)) in
    Array.sort order idx;
    Array.fold_left
      (fun acc i -> match t.vals.(i) with Some v -> f (t.ka.(i), t.kb.(i)) v acc | None -> acc)
      init idx
  end
