exception Exhausted
exception Double_free of string
exception Use_after_free of string
exception Canary_violation of string

(* Seven 0xDE bytes: recognisable in a debugger, fits a 63-bit int. *)
let poison_word = 0xDE_DEDE_DEDE_DEDE
let poison_float = Int64.float_of_bits 0xDEDE_DEDE_DEDE_DEDEL

type t = {
  label : string;
  slot_words : int;
  float_words : int;
  max_slots : int;
  sanitize : bool;
  mutable ints : int array; (* capacity * slot_words *)
  mutable floats : float array; (* capacity * float_words *)
  mutable alive : Bytes.t; (* one byte per slot: '\001' live *)
  mutable cap : int;
  mutable free_head : int; (* head of the free list, -1 = empty *)
  mutable next_fresh : int; (* first never-allocated slot *)
  mutable live_count : int;
  mutable peak : int;
  mutable allocated : int;
  mutable freed : int;
  mutable canaries : int;
  mutable doubles : int;
  mutable uafs : int;
}

let create ?(label = "pool") ?sanitize ?(max_slots = max_int) ?(initial_slots = 64)
    ~slot_words ?(float_words = 0) () =
  if slot_words < 1 then invalid_arg "Pool.create: slot_words must be >= 1";
  if float_words < 0 then invalid_arg "Pool.create: negative float_words";
  let sanitize = match sanitize with Some s -> s | None -> Heap.sanitize_default () in
  let cap = max 1 (min initial_slots max_slots) in
  {
    label;
    slot_words;
    float_words;
    max_slots;
    sanitize;
    ints = Array.make (cap * slot_words) 0;
    floats = Array.make (max 1 (cap * float_words)) 0.;
    alive = Bytes.make cap '\000';
    cap;
    free_head = -1;
    next_fresh = 0;
    live_count = 0;
    peak = 0;
    allocated = 0;
    freed = 0;
    canaries = 0;
    doubles = 0;
    uafs = 0;
  }

let label t = t.label
let sanitizing t = t.sanitize
let live t = t.live_count
let peak_live t = t.peak
let allocated_total t = t.allocated
let freed_total t = t.freed
let capacity t = t.cap

let is_live t slot =
  slot >= 0 && slot < t.cap && Bytes.unsafe_get t.alive slot = '\001'

(* The liveness byte is always maintained (it is what makes
   [Double_free] and [Use_after_free] O(1)); [sanitize] additionally
   poisons freed slots and checks the canary on reuse. *)

let check_live t slot op =
  if not (is_live t slot) then begin
    t.uafs <- t.uafs + 1;
    raise (Use_after_free (Printf.sprintf "%s: %s on freed slot %d" t.label op slot))
  end

let get t slot field =
  check_live t slot "get";
  t.ints.((slot * t.slot_words) + field)

let set t slot field v =
  check_live t slot "set";
  t.ints.((slot * t.slot_words) + field) <- v

let fget t slot field =
  check_live t slot "fget";
  t.floats.((slot * t.float_words) + field)

let fset t slot field v =
  check_live t slot "fset";
  t.floats.((slot * t.float_words) + field) <- v

let grow t =
  let new_cap = min t.max_slots (t.cap * 2) in
  if new_cap <= t.cap then raise Exhausted;
  let ints = Array.make (new_cap * t.slot_words) 0 in
  Array.blit t.ints 0 ints 0 (t.cap * t.slot_words);
  let floats = Array.make (max 1 (new_cap * t.float_words)) 0. in
  Array.blit t.floats 0 floats 0 (t.cap * t.float_words);
  let alive = Bytes.make new_cap '\000' in
  Bytes.blit t.alive 0 alive 0 t.cap;
  t.ints <- ints;
  t.floats <- floats;
  t.alive <- alive;
  t.cap <- new_cap

let check_canary t slot =
  let base = slot * t.slot_words in
  let ok = ref true in
  (* Field 0 carried the free-list link; fields 1.. must still hold the
     poison fill, as must every float field. *)
  for f = 1 to t.slot_words - 1 do
    if t.ints.(base + f) <> poison_word then ok := false
  done;
  let fbase = slot * t.float_words in
  for f = 0 to t.float_words - 1 do
    if t.floats.(fbase + f) <> poison_float then ok := false
  done;
  if not !ok then begin
    t.canaries <- t.canaries + 1;
    raise
      (Canary_violation
         (Printf.sprintf "%s: freed slot %d was written through a stale id" t.label slot))
  end

let zero_slot t slot =
  Array.fill t.ints (slot * t.slot_words) t.slot_words 0;
  if t.float_words > 0 then Array.fill t.floats (slot * t.float_words) t.float_words 0.

let alloc t =
  let slot =
    if t.free_head >= 0 then begin
      let slot = t.free_head in
      t.free_head <- t.ints.(slot * t.slot_words);
      if t.sanitize then check_canary t slot;
      slot
    end
    else begin
      if t.next_fresh >= t.cap then grow t;
      let slot = t.next_fresh in
      t.next_fresh <- slot + 1;
      slot
    end
  in
  zero_slot t slot;
  Bytes.unsafe_set t.alive slot '\001';
  t.live_count <- t.live_count + 1;
  t.allocated <- t.allocated + 1;
  if t.live_count > t.peak then t.peak <- t.live_count;
  slot

let free t slot =
  if not (is_live t slot) then begin
    t.doubles <- t.doubles + 1;
    raise (Double_free (Printf.sprintf "%s: free of dead slot %d" t.label slot))
  end;
  if t.sanitize then begin
    Array.fill t.ints (slot * t.slot_words) t.slot_words poison_word;
    if t.float_words > 0 then
      Array.fill t.floats (slot * t.float_words) t.float_words poison_float
  end;
  t.ints.(slot * t.slot_words) <- t.free_head;
  t.free_head <- slot;
  Bytes.unsafe_set t.alive slot '\000';
  t.live_count <- t.live_count - 1;
  t.freed <- t.freed + 1

let iter_live t f =
  for slot = 0 to t.next_fresh - 1 do
    if Bytes.unsafe_get t.alive slot = '\001' then f slot
  done

type sanitizer_report = {
  pool_label : string;
  live_at_report : int;
  canary_violations : int;
  double_frees : int;
  uaf_accesses : int;
}

let sanitizer_report t =
  if not t.sanitize then None
  else
    Some
      {
        pool_label = t.label;
        live_at_report = t.live_count;
        canary_violations = t.canaries;
        double_frees = t.doubles;
        uaf_accesses = t.uafs;
      }

let pp_sanitizer_report fmt r =
  Format.fprintf fmt "pool %s: live=%d canary_violations=%d double_frees=%d uaf_accesses=%d"
    r.pool_label r.live_at_report r.canary_violations r.double_frees r.uaf_accesses

let log_teardown ?(fmt = Format.err_formatter) t =
  match sanitizer_report t with
  | Some r when r.canary_violations > 0 || r.double_frees > 0 || r.uaf_accesses > 0 ->
      Format.fprintf fmt "%a@." pp_sanitizer_report r
  | Some _ | None -> ()
