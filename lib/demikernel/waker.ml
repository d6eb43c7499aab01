let bits_per_block = 63

type t = {
  mutable blocks : int array;
  mutable nonempty : int array; (* summary bitmap over blocks, one bit each *)
  mutable allocated : int;
}

let create () = { blocks = Array.make 4 0; nonempty = Array.make 1 0; allocated = 0 }

(* Trailing-zero count via isolate-lowest-bit + popcount of (b - 1). *)
let byte_popcount =
  Array.init 256 (fun i ->
      let rec count n acc = if n = 0 then acc else count (n lsr 1) (acc + (n land 1)) in
      count i 0)

(* Top-level recursion: a local loop over the table would be a closure
   built on every call, and a drain counts once per set bit and per
   nonempty block. *)
let rec popcount_from n acc =
  if n = 0 then acc else popcount_from (n lsr 8) (acc + byte_popcount.(n land 0xff))

let popcount n = popcount_from n 0

let ctz n =
  assert (n <> 0);
  popcount ((n land -n) - 1)

let ensure_capacity t slot =
  let block = slot / bits_per_block in
  if block >= Array.length t.blocks then begin
    let blocks = Array.make (2 * (block + 1)) 0 in
    Array.blit t.blocks 0 blocks 0 (Array.length t.blocks);
    t.blocks <- blocks
  end;
  let summary_len = ((Array.length t.blocks + bits_per_block - 1) / bits_per_block) + 1 in
  if summary_len > Array.length t.nonempty then begin
    let nonempty = Array.make summary_len 0 in
    Array.blit t.nonempty 0 nonempty 0 (Array.length t.nonempty);
    t.nonempty <- nonempty
  end

let alloc t =
  let slot = t.allocated in
  t.allocated <- t.allocated + 1;
  ensure_capacity t slot;
  slot

let set t slot =
  let block = slot / bits_per_block and bit = slot mod bits_per_block in
  t.blocks.(block) <- t.blocks.(block) lor (1 lsl bit);
  t.nonempty.(block / bits_per_block) <-
    t.nonempty.(block / bits_per_block) lor (1 lsl (block mod bits_per_block))

let clear t slot =
  let block = slot / bits_per_block and bit = slot mod bits_per_block in
  t.blocks.(block) <- t.blocks.(block) land lnot (1 lsl bit)

let is_set t slot =
  let block = slot / bits_per_block and bit = slot mod bits_per_block in
  t.blocks.(block) land (1 lsl bit) <> 0

(* Snapshot-and-clear block by block so callback-driven re-sets land in
   the next drain. The summary bitmap skips empty regions the same way
   the per-block scan skips unset bits. Top-level recursion: a drain
   runs every scheduler iteration and builds no closure. *)
let rec scan_block t fn block =
  let b = t.blocks.(block) in
  if b <> 0 then begin
    let bit = ctz b in
    t.blocks.(block) <- b land (b - 1);
    fn ((block * bits_per_block) + bit);
    scan_block t fn block
  end

let rec scan_word t fn si =
  let w = t.nonempty.(si) in
  if w <> 0 then begin
    let block = (si * bits_per_block) + ctz w in
    t.nonempty.(si) <- w land (w - 1);
    if block < Array.length t.blocks then scan_block t fn block;
    scan_word t fn si
  end

let drain t fn =
  for si = 0 to Array.length t.nonempty - 1 do
    scan_word t fn si
  done

(* The predicate is hoisted so the steady-state emptiness probe passes
   a static closure instead of building one per poll. *)
let word_nonzero b = b <> 0
let any_set t = Array.exists word_nonzero t.blocks
