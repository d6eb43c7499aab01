(* Three parallel arrays instead of one record per entry: [times] and
   [seqs] are unboxed ints, so a sift step writes one pointer (the
   payload) and an add or pop allocates nothing. The payload array is
   empty until the first add, which also supplies [blank], the value a
   vacated slot is overwritten with so the heap does not keep popped
   payloads alive. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable blank : 'a option;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; blank = None; len = 0; next_seq = 0 }

let grow t x =
  let blank =
    match t.blank with
    | Some b -> b
    | None ->
        t.blank <- Some x;
        x
  in
  let cap = max 256 (2 * t.len) in
  let times = Array.make cap 0 and seqs = Array.make cap 0 and vals = Array.make cap blank in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

(* Every index the sifts touch is below [len], within capacity, so the
   accessors skip the bounds check; inlined, a sift step is a handful of
   loads and stores. *)
let[@inline] place t i time seq v =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i v

let[@inline] move t ~src ~dst =
  place t dst (Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.vals src)

(* Whether (time, seq) orders before slot [i]. Keys are unique (the
   seq breaks every tie), so [not (earlier ...)] means "after". *)
let[@inline] earlier t time seq i =
  let ti = Array.unsafe_get t.times i in
  time < ti || (time = ti && seq < Array.unsafe_get t.seqs i)

let rec sift_up t time seq v i =
  if i = 0 then place t 0 time seq v
  else
    let parent = (i - 1) / 2 in
    if earlier t time seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t time seq v parent
    end
    else place t i time seq v

let rec sift_down t time seq v i =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i time seq v
  else begin
    let r = l + 1 in
    let c =
      if r < t.len && earlier t (Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r) l then r
      else l
    in
    if not (earlier t time seq c) then begin
      move t ~src:c ~dst:i;
      sift_down t time seq v c
    end
    else place t i time seq v
  end

let add t ~time v =
  assert (time < max_int);
  if t.len = Array.length t.vals then grow t v;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t time seq v (t.len - 1);
  seq

let pop t =
  if t.len = 0 then invalid_arg "Eventq.pop: empty queue"
  else begin
    let top = t.vals.(0) in
    let n = t.len - 1 in
    t.len <- n;
    let time = t.times.(n) and seq = t.seqs.(n) and v = t.vals.(n) in
    (match t.blank with Some b -> t.vals.(n) <- b | None -> ());
    if n > 0 then sift_down t time seq v 0;
    top
  end

(* [max_int] is the "no entry" sentinel, so the run loop reads one int
   per event and allocates nothing. *)
let top_time t = if t.len = 0 then max_int else t.times.(0)

let rec next_live t ~live =
  if t.len = 0 then max_int
  else if live t.vals.(0) t.seqs.(0) then t.times.(0)
  else begin
    ignore (pop t);
    next_live t ~live
  end

(* [limit] is the sequence counter on entry: anything at or above it
   was added by a callback of this call. With every added time at or
   after [now], such an entry on top means no older due entry is left
   below it, so stopping there loses nothing. *)
let rec expire_below t ~now ~limit ~live fire =
  if t.len > 0 && t.times.(0) <= now && t.seqs.(0) < limit then begin
    let seq = t.seqs.(0) in
    let v = pop t in
    if live v seq then fire v seq;
    expire_below t ~now ~limit ~live fire
  end

let expire t ~now ~live fire = expire_below t ~now ~limit:t.next_seq ~live fire
