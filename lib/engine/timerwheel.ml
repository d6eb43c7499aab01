(* Hierarchical timing wheel, 64 slots per level, 1 ns per tick.

   Level l covers deadlines whose bits above [bits*(l+1)] agree with the
   wheel's current time: an entry lives at the level of the highest
   6-bit group in which its deadline differs from [last], in the slot
   given by that group. Advancing time drains every slot the clock
   crosses; entries not yet due re-bucket relative to the new time
   (cascading), so each entry moves at most [levels] times over its
   lifetime.

   Determinism: every entry carries an insertion sequence number and
   [expire] sorts the due set by (deadline, seq) before firing — bucket
   order (which depends on cascade history) never leaks into firing
   order. Cancellation is lazy (a mark), so cancel never restructures
   buckets; dead entries are dropped when their bucket is next touched.

   The cached minimum keeps [next_deadline_ns] exact and O(1) on the hot
   path: it is maintained on [add], invalidated only when an expiry
   fires entries or when the cached entry itself is cancelled, and
   lazily recomputed by a bounded scan (first occupied slot per level —
   within one level, occupied slots ahead of the clock's slot are in
   increasing-deadline order, so that slot holds the level's minimum). *)

let bits = 6
let slots = 1 lsl bits
let mask = slots - 1

(* 11 * 6 = 66 bits: covers the full 63-bit non-negative int range. *)
let levels = 11

type 'a handle = {
  deadline : int;
  seq : int;
  payload : 'a;
  mutable live : bool;
}

type 'a t = {
  mutable last : int; (* virtual time the wheel has expired up to *)
  mutable seq : int;
  mutable size : int; (* live entries *)
  buckets : 'a handle list array; (* levels * slots, unordered within *)
  mutable cached : 'a handle option; (* min live entry when [cache_valid] *)
  mutable cache_valid : bool;
  mutable due_acc : 'a handle list; (* [expire]'s reusable due accumulator *)
  mutable activity : int; (* cumulative structural-work counter *)
}

let create ?(start = 0) () =
  {
    last = start;
    seq = 0;
    size = 0;
    buckets = Array.make (levels * slots) [];
    cached = None;
    cache_valid = true;
    due_acc = [];
    activity = 0;
  }

let size t = t.size
let activity t = t.activity
let handle_live e = e.live

(* The highest 6-bit group where [deadline] disagrees with [t.last]. *)
let level_of t deadline =
  let diff = deadline lxor t.last in
  let rec go l =
    if l >= levels - 1 then levels - 1
    else if diff lsr (bits * (l + 1)) = 0 then l
    else go (l + 1)
  in
  go 0

let bucket_index t deadline =
  let l = level_of t deadline in
  (l * slots) + ((deadline lsr (bits * l)) land mask)

let insert t e =
  let i = bucket_index t e.deadline in
  t.buckets.(i) <- e :: t.buckets.(i)

let add t ~deadline payload =
  let deadline = if deadline < t.last then t.last else deadline in
  let e = { deadline; seq = t.seq; payload; live = true } in
  t.seq <- t.seq + 1;
  t.size <- t.size + 1;
  insert t e;
  if t.cache_valid then begin
    match t.cached with
    | Some m when m.deadline <= deadline -> ()
    | _ -> t.cached <- Some e
  end;
  e

let cancel t e =
  if e.live then begin
    e.live <- false;
    t.size <- t.size - 1;
    match t.cached with
    | Some m when m == e ->
        t.cached <- None;
        t.cache_valid <- false
    | _ -> ()
  end

(* First occupied slot per level, scanning outward from the clock's own
   slot; prune dead entries from buckets we touch along the way. *)
(* dlint-allow: scan-in-hotpath -- wheel maintenance after a fire/insert, not a steady poll: the scan is bucket-local (bounded by the constant slots-per-level, pruning only entries already dead) *)
let recompute_min t =
  let best = ref None in
  for l = 0 to levels - 1 do
    let cl = (t.last lsr (bits * l)) land mask in
    let found = ref false in
    let k = ref 0 in
    while (not !found) && !k < slots do
      let i = (l * slots) + ((cl + !k) land mask) in
      (match t.buckets.(i) with
      | [] -> ()
      | entries ->
          let pruned = List.filter (fun e -> e.live) entries in
          t.buckets.(i) <- pruned;
          List.iter
            (fun e ->
              match !best with
              | Some b when b.deadline < e.deadline
                            || (b.deadline = e.deadline && b.seq <= e.seq) ->
                  ()
              | _ -> best := Some e)
            pruned;
          if pruned <> [] then found := true);
      incr k
    done
  done;
  t.cached <- !best;
  t.cache_valid <- true

(* Exact earliest live deadline, [max_int] when empty. With a valid
   cache this is a field read. *)
(* dlint: hotpath *)
let next_deadline_ns t =
  if t.size = 0 then max_int
  else begin
    if not t.cache_valid then recompute_min t;
    match t.cached with Some e -> e.deadline | None -> max_int
  end

(* Entries from one crossed bucket: due ones collect on [t.due_acc],
   live not-due ones re-bucket relative to the new [last] (cascading),
   dead ones drop. A top-level recursion, not a closure, so draining
   allocates nothing beyond the due conses themselves. *)
(* dlint: hotpath *)
let rec drain_crossed t now entries =
  match entries with
  | [] -> ()
  | e :: rest ->
      if e.live then
        if e.deadline <= now then
          t.due_acc <- e :: t.due_acc
        else insert t e;
      drain_crossed t now rest

(* The firing half of [expire], reached only when something is due (a
   busy poll — sorting and firing may allocate). Claims the
   accumulated due set and resets the accumulator before running
   callbacks. *)
(* dlint-allow: scan-in-hotpath -- sorts only the due set: timers actually firing this tick (deterministic callback order), not the whole wheel *)
let fire_due t due f =
  t.due_acc <- [];
  t.cached <- None;
  t.cache_valid <- false;
  let due =
    List.sort
      (fun e1 e2 ->
        if e1.deadline <> e2.deadline then compare e1.deadline e2.deadline
        else compare e1.seq e2.seq)
      due
  in
  (* A callback may cancel a later due entry (e.g. closing a
     connection disarms its other timer): the live check is
     re-done per entry at fire time. *)
  List.iter
    (fun e ->
      if e.live then begin
        e.live <- false;
        t.size <- t.size - 1;
        t.activity <- t.activity + 1;
        f e.payload
      end)
    due

(* Drain every slot the clock crossed, at every level. Any entry with
   deadline <= now necessarily sits in a crossed slot (its slot bits
   lie between old and new clock bits at its level). The steady-state
   crossing — every crossed slot empty — allocates nothing; [activity]
   advances whenever structural work happened (a nonempty crossed
   bucket, an entry fired), so pollers can tell the two apart. Not
   re-entrant: callbacks must not call [expire] on the same wheel
   (the due accumulator is shared). *)
(* dlint: hotpath *)
let expire t ~now f =
  let now = if now < t.last then t.last else now in
  let old_last = t.last in
  t.last <- now;
  t.due_acc <- [];
  for l = 0 to levels - 1 do
    let shift = bits * l in
    let old_i = old_last lsr shift and new_i = now lsr shift in
    let count = if new_i - old_i >= slots then slots else new_i - old_i + 1 in
    for k = 0 to count - 1 do
      let i = (l * slots) + ((old_i + k) land mask) in
      match t.buckets.(i) with
      | [] -> ()
      | entries ->
          t.activity <- t.activity + 1;
          t.buckets.(i) <- [];
          drain_crossed t now entries
    done
  done;
  match t.due_acc with
  | [] -> () (* nothing fired: the live set is unchanged, cache stays valid *)
  | due -> fire_due t due f
