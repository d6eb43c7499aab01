type t = {
  heap : Memory.Heap.t;
  capacity : int;
  mutable rcv_nxt : Seqnum.t;
  mutable held : (Seqnum.t * Memory.Heap.buffer) list; (* sorted by seq, disjoint, past rcv_nxt *)
  mutable held_bytes : int;
  queue : Memory.Heap.buffer Queue.t;
  mutable queued_bytes : int;
}

let create ~heap ~capacity =
  let queue = Queue.create () in
  { heap; capacity; rcv_nxt = 0; held = []; held_bytes = 0; queue; queued_bytes = 0 }

let rcv_nxt t = t.rcv_nxt
let held_bytes t = t.held_bytes
let queued_bytes t = t.queued_bytes
let is_empty t = Queue.is_empty t.queue

let pop t =
  let buf = Queue.pop t.queue in
  t.queued_bytes <- t.queued_bytes - Memory.Heap.length buf;
  buf

let enqueue t buf =
  let len = Memory.Heap.length buf in
  Queue.add buf t.queue;
  t.queued_bytes <- t.queued_bytes + len;
  t.rcv_nxt <- Seqnum.add t.rcv_nxt len

(* Copy [len] new bytes at [seq] out of the frame [b] into a heap
   buffer: queue it when it is the next in-order range, else hold it on
   [acc]. *)
let copy_range t seq b off len acc =
  let buf = Memory.Heap.alloc t.heap len in
  (* Device DMA: the NIC writes the received payload into a DMA-heap buffer, the one
     receive-side copy; charged per frame through Net.Cost. *)
  Bytes.blit b off (Memory.Heap.data buf) (Memory.Heap.offset buf) len;
  Memory.Heap.set_length buf len;
  if seq = t.rcv_nxt then begin
    enqueue t buf;
    acc
  end
  else begin
    t.held_bytes <- t.held_bytes + len;
    (seq, buf) :: acc
  end

let held_end (s, buf) = Seqnum.add s (Memory.Heap.length buf)

(* Place the new bytes [seq, seq + len) among the held ranges [held],
   in sequence order: only the gaps between held ranges are copied.
   [acc] is the held ranges already passed, reversed. *)
let rec place t acc seq b off len = function
  | [] -> List.rev (copy_range t seq b off len acc)
  | h :: rest when Seqnum.le (held_end h) seq -> place t (h :: acc) seq b off len rest
  | (s, _) :: _ as held when Seqnum.le (Seqnum.add seq len) s ->
      List.rev_append (copy_range t seq b off len acc) held
  | ((s, _) as h) :: rest ->
      let before = Seqnum.sub s seq in
      let acc = h :: (if before > 0 then copy_range t seq b off before acc else acc) in
      let e = held_end h in
      let after = Seqnum.sub (Seqnum.add seq len) e in
      if after > 0 then place t acc e b (off + len - after) after rest
      else List.rev_append acc rest

let rec drain t =
  match t.held with
  | (s, buf) :: rest when s = t.rcv_nxt ->
      t.held <- rest;
      t.held_bytes <- t.held_bytes - Memory.Heap.length buf;
      enqueue t buf;
      drain t
  | _ -> ()

let insert t ~seq b off len =
  let skip = max 0 (Seqnum.sub t.rcv_nxt seq) in
  (* The capacity rule counts every byte past [rcv_nxt], held ones too. *)
  if skip < len && t.held_bytes + (len - skip) <= t.capacity then begin
    t.held <- place t [] (Seqnum.add seq skip) b (off + skip) (len - skip) t.held;
    drain t
  end

let restart t ~rcv_nxt =
  List.iter (fun (_, buf) -> Memory.Heap.free buf) t.held;
  t.held <- [];
  t.held_bytes <- 0;
  t.rcv_nxt <- rcv_nxt

let release t =
  restart t ~rcv_nxt:t.rcv_nxt;
  Queue.iter Memory.Heap.free t.queue;
  Queue.clear t.queue;
  t.queued_bytes <- 0

let ranges t =
  let rec start = function
    | [] -> []
    | h :: rest -> extend (fst h) (held_end h) rest
  and extend left right = function
    | ((s, _) as h) :: rest when s = right -> extend left (held_end h) rest
    | rest -> (left, right) :: start rest
  in
  start t.held
