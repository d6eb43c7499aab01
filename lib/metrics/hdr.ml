(* Log-linear buckets at HDR precision: 128 linear sub-buckets per
   power of two, so the relative bucket width is 1/128 (< 1%) across
   the whole range — fine enough that p50 and p99 of a tight latency
   distribution land in different buckets. Values < 128 get their own
   exact buckets.

   The quantile is rank-interpolated across its bucket, so two distinct
   ranks virtually never report the same value; the reported value
   stays inside the bucket, which is what bounds the error. *)

let sub_bits = 7
let sub_count = 1 lsl sub_bits (* 128 *)
let max_exp = 62
let bucket_count = sub_count * (max_exp - sub_bits + 2)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make bucket_count 0; count = 0; sum = 0; min_v = max_int; max_v = 0 }

let highest_bit v =
  let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < sub_count then v
  else
    let h = highest_bit v in
    let sub = (v lsr (h - sub_bits)) land (sub_count - 1) in
    (sub_count * (h - sub_bits + 1)) + sub

let lower_bound_of idx =
  if idx < sub_count then idx
  else
    let group = (idx / sub_count) - 1 in
    let sub = idx mod sub_count in
    let h = group + sub_bits in
    (1 lsl h) + (sub lsl (h - sub_bits))

let upper_bound_of idx =
  if idx < sub_count then idx
  else
    let group = (idx / sub_count) - 1 in
    let sub = idx mod sub_count in
    let h = group + sub_bits in
    (* sub + 1 = 128 carries cleanly into the leading bit. *)
    (1 lsl h) + ((sub + 1) lsl (h - sub_bits)) - 1

(* dlint: hotpath *)
let add t v =
  let v = if v < 0 then 0 else v in
  let idx = index_of v in
  t.buckets.(idx) <- t.buckets.(idx) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let of_list samples =
  let t = create () in
  List.iter (add t) samples;
  t

let count t = t.count
let min t = if t.count = 0 then 0 else t.min_v
let max t = t.max_v
let sum t = t.sum
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else begin
    let target = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let target = Stdlib.min target t.count in
    let rec scan idx seen =
      if idx >= bucket_count then t.max_v
      else
        let n = t.buckets.(idx) in
        if seen + n >= target then begin
          (* The exact rank statistic lies in this bucket; interpolate
             by rank so distinct ranks get distinct values. r/n = 1
             lands on the bucket's upper bound for the bucket's last
             sample. *)
          let lo = lower_bound_of idx and hi = upper_bound_of idx in
          let r = target - seen in
          let v = lo + ((hi - lo) * r / n) in
          Stdlib.min (Stdlib.max v t.min_v) t.max_v
        end
        else scan (idx + 1) (seen + n)
    in
    scan 0 0
  end

let p50 t = quantile t 0.50
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let to_buckets t =
  let rec go idx acc =
    if idx < 0 then acc
    else
      let n = t.buckets.(idx) in
      go (idx - 1) (if n = 0 then acc else (upper_bound_of idx, n) :: acc)
  in
  go (bucket_count - 1) []

let merge dst src =
  Array.iteri (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.count > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.buckets 0 bucket_count 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0
