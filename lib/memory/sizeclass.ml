let min_class = 64
let max_class = 1 lsl 20
let zero_copy_threshold = 1024

(* Classes: 64, 128, ..., 2^20. *)
let class_count =
  let rec go size n = if size > max_class then n else go (size * 2) (n + 1) in
  go min_class 0

let size_of_index i =
  assert (i >= 0 && i < class_count);
  min_class lsl i

(* Top-level recursion: a local [go] capturing [size] would build a
   closure on every call, and every [Heap.alloc] calls this. *)
let rec first_fitting size i = if size_of_index i >= size then i else first_fitting size (i + 1)

let index_of_size size =
  if size <= 0 then invalid_arg "Sizeclass.index_of_size: non-positive size";
  if size > max_class then invalid_arg "Sizeclass.index_of_size: size beyond max class";
  first_fitting size 0

let zero_copy_eligible size = size > zero_copy_threshold
