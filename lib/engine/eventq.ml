(* Three parallel arrays instead of one record per event: [times] and
   [seqs] are unboxed ints, so a sift step writes one pointer (the
   callback) and an add or pop allocates nothing. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable len : int;
  mutable next_seq : int;
}

let nop () = ()

let create () =
  {
    times = Array.make 256 0;
    seqs = Array.make 256 0;
    fns = Array.make 256 nop;
    len = 0;
    next_seq = 0;
  }

let grow t =
  let cap = 2 * Array.length t.fns in
  let times = Array.make cap 0 and seqs = Array.make cap 0 and fns = Array.make cap nop in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.fns 0 fns 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.fns <- fns

(* Every index the sifts touch is below [len], within capacity, so the
   accessors skip the bounds check; inlined, a sift step is a handful of
   loads and stores. *)
let[@inline] place t i time seq fn =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.fns i fn

let[@inline] move t ~src ~dst =
  place t dst (Array.unsafe_get t.times src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.fns src)

(* Whether (time, seq) orders before slot [i]. Keys are unique (the
   seq breaks every tie), so [not (earlier ...)] means "after". *)
let[@inline] earlier t time seq i =
  let ti = Array.unsafe_get t.times i in
  time < ti || (time = ti && seq < Array.unsafe_get t.seqs i)

let rec sift_up t time seq fn i =
  if i = 0 then place t 0 time seq fn
  else
    let parent = (i - 1) / 2 in
    if earlier t time seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t time seq fn parent
    end
    else place t i time seq fn

let rec sift_down t time seq fn i =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i time seq fn
  else begin
    let r = l + 1 in
    let c =
      if r < t.len && earlier t (Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r) l then r
      else l
    in
    if not (earlier t time seq c) then begin
      move t ~src:c ~dst:i;
      sift_down t time seq fn c
    end
    else place t i time seq fn
  end

let add t ~time fn =
  assert (time < max_int);
  if t.len = Array.length t.fns then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t time seq fn (t.len - 1)

let pop t =
  if t.len = 0 then invalid_arg "Eventq.pop: empty queue"
  else begin
    let top = t.fns.(0) in
    let n = t.len - 1 in
    t.len <- n;
    let time = t.times.(n) and seq = t.seqs.(n) and fn = t.fns.(n) in
    t.fns.(n) <- nop;
    if n > 0 then sift_down t time seq fn 0;
    top
  end

(* [max_int] is the "no event" sentinel, so the run loop reads one int
   per event and allocates nothing. *)
let top_time t = if t.len = 0 then max_int else t.times.(0)
