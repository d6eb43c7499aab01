type mode = Pool_backed | Register_on_demand | Not_dma

exception Double_free
exception Bad_refcount
exception Canary_violation of string

let objects_per_superblock = 64

(* ---------- sanitizer mode ---------- *)

(* Freed objects are filled with this pattern; any non-poison byte seen
   in a free slot is a write-after-free. 0xDE so hex dumps read as the
   classic dead pattern. *)
let poison_byte = '\xde'

let sanitize_default_flag = ref false
let set_sanitize_default b = sanitize_default_flag := b
let sanitize_default () = !sanitize_default_flag

type superblock = {
  serial : int; (* per-heap creation index; slot identity for the ownership oracle *)
  class_index : int;
  object_size : int; (* payload capacity + headroom *)
  store : Bytes.t;
  next : int array; (* LIFO free list links; -1 terminates *)
  mutable free_head : int;
  mutable free_count : int;
  app_bits : bool array;
  os_refs : int array; (* libOS references per slot *)
  sites : string array; (* last allocation-site label per slot (sanitizer) *)
  mutable rkey : int option;
  mutable in_partial : bool;
  heap : t;
}

and t = {
  label : string;
  mode : mode;
  headroom : int;
  sanitize : bool;
  partial : superblock list array; (* per class, superblocks with free slots *)
  mutable all_superblocks : superblock list; (* newest first; for end-of-run scans *)
  mutable next_rkey : int;
  mutable next_serial : int;
  mutable superblock_count : int;
  mutable registered : int;
  mutable allocations : int;
  mutable frees : int;
  mutable live : int;
  mutable uaf_protected : int;
  mutable bytes_copied : int;
  mutable canary_violations : int;
  mutable double_frees : int;
}

type buffer = {
  sb : superblock;
  slot : int;
  mutable off : int;
  mutable len : int;
}

type stats = {
  allocations : int;
  frees : int;
  live : int;
  superblocks : int;
  registered_superblocks : int;
  uaf_protected : int;
  bytes_copied : int;
}

let create ?(label = "heap") ?(headroom = 128) ?sanitize ~mode () =
  let sanitize = match sanitize with Some b -> b | None -> !sanitize_default_flag in
  {
    label;
    mode;
    headroom;
    sanitize;
    partial = Array.make Sizeclass.class_count [];
    all_superblocks = [];
    next_rkey = 1;
    next_serial = 0;
    superblock_count = 0;
    registered = 0;
    allocations = 0;
    frees = 0;
    live = 0;
    uaf_protected = 0;
    bytes_copied = 0;
    canary_violations = 0;
    double_frees = 0;
  }

let sanitizing t = t.sanitize

let mode t = t.mode
let label t = t.label

let register_superblock sb =
  match sb.rkey with
  | Some _ -> ()
  | None ->
      let heap = sb.heap in
      sb.rkey <- Some heap.next_rkey;
      heap.next_rkey <- heap.next_rkey + 1;
      heap.registered <- heap.registered + 1

let new_superblock t class_index =
  let object_size = Sizeclass.size_of_index class_index + t.headroom in
  let next = Array.init objects_per_superblock (fun i -> i - 1) in
  (* LIFO list: head is the last slot, each slot links to the previous. *)
  let serial = t.next_serial in
  t.next_serial <- t.next_serial + 1;
  let sb =
    {
      serial;
      class_index;
      object_size;
      store = Bytes.create (object_size * objects_per_superblock);
      next;
      free_head = objects_per_superblock - 1;
      free_count = objects_per_superblock;
      app_bits = Array.make objects_per_superblock false;
      os_refs = Array.make objects_per_superblock 0;
      sites = Array.make objects_per_superblock "";
      rkey = None;
      in_partial = true;
      heap = t;
    }
  in
  if t.sanitize then Bytes.fill sb.store 0 (Bytes.length sb.store) poison_byte;
  t.superblock_count <- t.superblock_count + 1;
  t.all_superblocks <- sb :: t.all_superblocks;
  (match t.mode with
  | Pool_backed -> register_superblock sb
  | Register_on_demand | Not_dma -> ());
  sb

(* The first non-poison byte of a free slot at or after [i], or -1
   when the canary is intact. Top-level recursion, not a local closure
   over the slot: every sanitized [alloc] runs this, frames included. *)
let rec canary_damage sb base i =
  if i >= sb.object_size then -1
  else if Bytes.get sb.store (base + i) <> poison_byte then i
  else canary_damage sb base (i + 1)

let verify_canary sb slot =
  match canary_damage sb (slot * sb.object_size) 0 with
  | -1 -> ()
  | i ->
      let t = sb.heap in
      t.canary_violations <- t.canary_violations + 1;
      (* Re-poison so the end-of-run free-slot scan does not count this
         same write a second time. *)
      Bytes.fill sb.store (slot * sb.object_size) sb.object_size poison_byte;
      let site = if sb.sites.(slot) = "" then "<unlabeled>" else sb.sites.(slot) in
      raise
        (Canary_violation
           (Printf.sprintf
              "%s: write-after-free detected at byte %d of a freed object (last owner: %s)"
              t.label i site))

let alloc ?(site = "") t size =
  let class_index = Sizeclass.index_of_size size in
  let sb =
    match t.partial.(class_index) with
    | sb :: _ -> sb
    | [] ->
        let sb = new_superblock t class_index in
        t.partial.(class_index) <- [ sb ];
        sb
  in
  let slot = sb.free_head in
  assert (slot >= 0);
  if t.sanitize then verify_canary sb slot;
  sb.free_head <- sb.next.(slot);
  sb.free_count <- sb.free_count - 1;
  if sb.free_count = 0 then begin
    sb.in_partial <- false;
    t.partial.(class_index) <- List.tl t.partial.(class_index)
  end;
  sb.app_bits.(slot) <- true;
  sb.sites.(slot) <- site;
  t.allocations <- t.allocations + 1;
  t.live <- t.live + 1;
  { sb; slot; off = t.headroom; len = size }

let data b = b.sb.store
let base b = b.slot * b.sb.object_size
let offset b = base b + b.off
let rel_offset b = b.off
let length b = b.len
let capacity b = b.sb.object_size

let set_bounds b ~offset ~length =
  if offset < 0 || length < 0 || offset + length > b.sb.object_size then
    invalid_arg "Heap.set_bounds: window outside object";
  b.off <- offset;
  b.len <- length

let set_length b length =
  if length < 0 || b.off + length > b.sb.object_size then
    invalid_arg "Heap.set_length: length outside object";
  b.len <- length

(* The copy-out primitive; datapath callers account it through note_copy/charge_copy, per
   the .mli. *)
let to_string b = Bytes.sub_string b.sb.store (offset b) b.len

let blit_string s b =
  let n = String.length s in
  if b.off + n > b.sb.object_size then invalid_arg "Heap.blit_string: too long";
  (* The fill primitive callers account through note_copy/charge_copy. *)
  Bytes.blit_string s 0 b.sb.store (offset b) n;
  b.len <- n

let alloc_of_string ?site t s =
  let b = alloc ?site t (max 1 (String.length s)) in
  blit_string s b;
  b

let release sb slot =
  let t = sb.heap in
  if t.sanitize then
    Bytes.fill sb.store (slot * sb.object_size) sb.object_size poison_byte;
  sb.next.(slot) <- sb.free_head;
  sb.free_head <- slot;
  sb.free_count <- sb.free_count + 1;
  t.frees <- t.frees + 1;
  t.live <- t.live - 1;
  if not sb.in_partial then begin
    sb.in_partial <- true;
    t.partial.(sb.class_index) <- sb :: t.partial.(sb.class_index)
  end

let os_ref_count sb slot = sb.os_refs.(slot)

let free b =
  let sb = b.sb in
  if not sb.app_bits.(b.slot) then begin
    sb.heap.double_frees <- sb.heap.double_frees + 1;
    raise Double_free
  end;
  sb.app_bits.(b.slot) <- false;
  if os_ref_count sb b.slot = 0 then release sb b.slot
  else sb.heap.uaf_protected <- sb.heap.uaf_protected + 1

let os_incref b =
  let sb = b.sb in
  let n = sb.os_refs.(b.slot) in
  if (not sb.app_bits.(b.slot)) && n = 0 then raise Bad_refcount;
  sb.os_refs.(b.slot) <- n + 1

let os_decref b =
  let sb = b.sb in
  let n = sb.os_refs.(b.slot) in
  if n = 0 then raise Bad_refcount;
  sb.os_refs.(b.slot) <- n - 1;
  if n = 1 && not sb.app_bits.(b.slot) then release sb b.slot

let app_live b = b.sb.app_bits.(b.slot)
let os_refs b = os_ref_count b.sb b.slot
let is_slot_live b = b.sb.app_bits.(b.slot) || os_ref_count b.sb b.slot > 0

let rkey b =
  let sb = b.sb in
  match sb.heap.mode with
  | Not_dma -> failwith "Heap.rkey: heap is not DMA-capable"
  | Pool_backed | Register_on_demand -> (
      register_superblock sb;
      match sb.rkey with Some k -> k | None -> assert false)

let is_dma_capable b =
  (match b.sb.heap.mode with Not_dma -> false | Pool_backed | Register_on_demand -> true)
  && Sizeclass.zero_copy_eligible (Sizeclass.size_of_index b.sb.class_index)

let note_copy (t : t) n = t.bytes_copied <- t.bytes_copied + n

let stats (t : t) : stats =
  {
    allocations = t.allocations;
    frees = t.frees;
    live = t.live;
    superblocks = t.superblock_count;
    registered_superblocks = t.registered;
    uaf_protected = t.uaf_protected;
    bytes_copied = t.bytes_copied;
  }

let live_objects (t : t) = t.live
let site b = b.sb.sites.(b.slot)
let slot_id b = (b.sb.serial * objects_per_superblock) + b.slot

(* ---------- end-of-run sanitizer report ---------- *)

type sanitizer_report = {
  heap_label : string;
  leaks : (string * int) list; (* allocation site -> live objects, sorted by site *)
  canary_violations : int;
  double_frees : int;
}

let scan_free_canaries t =
  List.fold_left
    (fun acc sb ->
      let n = ref acc in
      for slot = 0 to objects_per_superblock - 1 do
        if (not sb.app_bits.(slot)) && os_ref_count sb slot = 0 then
          if canary_damage sb (slot * sb.object_size) 0 >= 0 then incr n
      done;
      !n)
    0 t.all_superblocks

let sanitizer_report (t : t) : sanitizer_report option =
  if not t.sanitize then None
  else begin
    let by_site = Hashtbl.create 16 in
    List.iter
      (fun sb ->
        for slot = 0 to objects_per_superblock - 1 do
          if sb.app_bits.(slot) || os_ref_count sb slot > 0 then begin
            let site = if sb.sites.(slot) = "" then "<unlabeled>" else sb.sites.(slot) in
            let n = match Hashtbl.find_opt by_site site with Some n -> n | None -> 0 in
            Hashtbl.replace by_site site (n + 1)
          end
        done)
      t.all_superblocks;
    let leaks =
      Hashtbl.fold (fun site n acc -> (site, n) :: acc) by_site []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Some
      {
        heap_label = t.label;
        leaks;
        canary_violations = t.canary_violations + scan_free_canaries t;
        double_frees = t.double_frees;
      }
  end

let pp_sanitizer_report fmt r =
  Format.fprintf fmt "heap %S sanitizer report:@." r.heap_label;
  Format.fprintf fmt "  canary violations (writes after free): %d@." r.canary_violations;
  Format.fprintf fmt "  double frees: %d@." r.double_frees;
  if r.leaks = [] then Format.fprintf fmt "  leaks: none@."
  else
    List.iter
      (fun (site, n) -> Format.fprintf fmt "  leaked: %4d object(s) from %s@." n site)
      r.leaks

let log_teardown ?(fmt = Format.err_formatter) (t : t) =
  match sanitizer_report t with
  | None -> ()
  | Some r ->
      if r.canary_violations > 0 || r.double_frees > 0 || r.leaks <> [] then
        pp_sanitizer_report fmt r
