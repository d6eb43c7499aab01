(* Vitter's Algorithm R with a deterministic SplitMix64 stream: the
   first [capacity] offers fill the slots, and the i-th offer (i >
   capacity) replaces a uniform slot with probability capacity/i. The
   retained set depends only on (seed, offer sequence). *)

type 'a t = {
  capacity : int;
  prng : Engine.Prng.t;
  slots : 'a option array;
  mutable seen : int;
}

let create ~capacity ~prng =
  if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
  { capacity; prng; slots = Array.make capacity None; seen = 0 }

let offer t x =
  let i = t.seen in
  t.seen <- i + 1;
  if i < t.capacity then t.slots.(i) <- Some x
  else
    (* j uniform in [0, i]: keep-with-probability capacity/(i+1) and
       the evicted slot choice in one draw. *)
    let j = Engine.Prng.int t.prng (i + 1) in
    if j < t.capacity then t.slots.(j) <- Some x

let seen t = t.seen
let kept t = Stdlib.min t.seen t.capacity

let to_list t =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (match t.slots.(i) with Some x -> x :: acc | None -> acc)
  in
  go (t.capacity - 1) []
