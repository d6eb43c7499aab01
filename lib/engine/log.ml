(* Two flat arrays rather than an array of records: a record stores
   seven immediates (time, tag, operands) and three pointers to strings
   that already exist, so the write path allocates zero minor-heap
   words — the property the gc-budget oracle checks when a ring rides
   the steady poll loop. *)

type category = Fabric | Device | Sched | Tcp | Kernel | Storage | Libos | App | Custom of string

let names = [| "fabric"; "device"; "sched"; "tcp"; "kernel"; "storage"; "libos"; "app" |]
let custom_tag = Array.length names

let tag_of c =
  match c with
  | Fabric -> 0
  | Device -> 1
  | Sched -> 2
  | Tcp -> 3
  | Kernel -> 4
  | Storage -> 5
  | Libos -> 6
  | App -> 7
  | Custom _ -> custom_tag

let category_name = function Custom s -> s | c -> names.(tag_of c)

type row = {
  ts : Clock.t;
  tag : int;
  label : string;
  owner : string;
  aux : string;
  a : int;
  b : int;
  c : int;
  d : int;
  e : int;
}

let row_category r = if r.tag = custom_tag then r.owner else names.(r.tag)

let mac n =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((n lsr 40) land 0xff) ((n lsr 32) land 0xff)
    ((n lsr 24) land 0xff) ((n lsr 16) land 0xff) ((n lsr 8) land 0xff) (n land 0xff)

(* Decode-time formatting: the producer stored a static template and
   its operands; the message is only built when the stream is read. *)
let expand r =
  let ints = ref [ r.a; r.b ] and strs = ref [ r.owner; r.aux ] in
  let next q =
    match !q with
    | x :: rest ->
        q := rest;
        x
    | [] -> invalid_arg ("Log.text: too few operands for " ^ r.label)
  in
  let l = r.label and buf = Buffer.create 64 and i = ref 0 in
  while !i < String.length l do
    if l.[!i] <> '%' || !i + 1 = String.length l then Buffer.add_char buf l.[!i]
    else begin
      incr i;
      Buffer.add_string buf
        (match l.[!i] with
        | 'd' -> string_of_int (next ints)
        | 'b' -> string_of_bool (next ints <> 0)
        | 'm' -> mac (next ints)
        | 's' -> next strs
        | c -> String.make 1 c)
    end;
    incr i
  done;
  Buffer.contents buf

let text r = (row_category r, if r.tag = custom_tag then r.label else expand r)
let operands r = (row_category r, Printf.sprintf "%-14s a=%d b=%d" r.label r.a r.b)

(* Slot [i] holds its ints at [7i, 7i+7) (time, tag, a..e) and its
   strings at [3i, 3i+3) (label, owner, aux). *)
type t = {
  cap : int;
  render : row -> string * string;
  mutable ints : int array;
  mutable strs : string array;
  mutable total : int;
}

(* Small scenarios never pay for a 262144-slot stream: storage starts
   here and doubles until it reaches the capacity. *)
let initial_slots = 256

let create ?(render = text) ~capacity () =
  if capacity <= 0 then invalid_arg "Log.create: capacity must be positive";
  let n = min capacity initial_slots in
  { cap = capacity; render; ints = Array.make (7 * n) 0; strs = Array.make (3 * n) ""; total = 0 }

let slots t = Array.length t.strs / 3

(* Only called while the ring has not wrapped, so the records sit at
   [0, total) in order and a prefix copy keeps them there. *)
(* dlint-allow: transitive-alloc-in-hotpath -- storage growth: at most log2(capacity / 256) doublings per ring, none once it has reached its capacity *)
let grow t =
  let n = min t.cap (2 * slots t) in
  let extend a width fill =
    let b = Array.make (width * n) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.ints <- extend t.ints 7 0;
  t.strs <- extend t.strs 3 ""

(* dlint: hotpath *)
let record t ~now ~tag ~label ~owner ~aux a b c d e =
  if t.total = slots t && t.total < t.cap then grow t;
  let i = t.total mod slots t in
  let k = 7 * i and s = 3 * i in
  t.ints.(k) <- now;
  t.ints.(k + 1) <- tag;
  t.ints.(k + 2) <- a;
  t.ints.(k + 3) <- b;
  t.ints.(k + 4) <- c;
  t.ints.(k + 5) <- d;
  t.ints.(k + 6) <- e;
  t.strs.(s) <- label;
  t.strs.(s + 1) <- owner;
  t.strs.(s + 2) <- aux;
  t.total <- t.total + 1

let total t = t.total
let kept t = if t.total < t.cap then t.total else t.cap
let dropped t = t.total - kept t

let rows t =
  let n = kept t in
  List.init n (fun j ->
      let i = (t.total - n + j) mod slots t in
      let int o = t.ints.((7 * i) + o) and str o = t.strs.((3 * i) + o) in
      {
        ts = int 0; tag = int 1; a = int 2; b = int 3; c = int 4; d = int 5; e = int 6;
        label = str 0; owner = str 1; aux = str 2;
      })

(* FNV-1a over the total count and the rendered retained window.
   Implemented by hand (rather than Digest) so the digest is a stable
   function of the event stream alone — no dependency on marshalling
   layout. Categories hash through their printed name, so [Custom
   "tcp"] and [Tcp] are the same event stream. *)
let digest t =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let byte b = h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) prime in
  let string s = String.iter (fun c -> byte (Char.code c)) s in
  let int n =
    for shift = 0 to 7 do
      byte ((n lsr (shift * 8)) land 0xff)
    done
  in
  int t.total;
  List.iter
    (fun r ->
      let category, msg = t.render r in
      int r.ts;
      string category;
      byte 0;
      string msg;
      byte 1)
    (rows t);
  Printf.sprintf "%016Lx" !h

let dump ?categories ?last fmt t =
  let rendered = List.map (fun r -> (r.ts, t.render r)) (rows t) in
  let rendered =
    match categories with
    | Some cats -> List.filter (fun (_, (c, _)) -> List.mem c cats) rendered
    | None -> rendered
  in
  let skip = match last with Some n -> List.length rendered - n | None -> 0 in
  if dropped t > 0 then
    Format.fprintf fmt "... %d earlier record(s) overwritten (ring capacity %d) ...@." (dropped t)
      t.cap;
  List.iteri
    (fun i (ts, (category, msg)) ->
      if i >= skip then
        Format.fprintf fmt "%12s  %-7s %s@." (Format.asprintf "%a" Clock.pp ts) category msg)
    rendered

let report ~name t =
  if dropped t > 0 then
    Format.eprintf "log report: the %s ring overwrote %d of %d record(s) (capacity %d)@." name
      (dropped t) t.total t.cap

let event t ~now ~category ~label ~owner ~aux a b =
  match category with
  | Custom name -> record t ~now ~tag:custom_tag ~label ~owner:name ~aux a b 0 0 0
  | c -> record t ~now ~tag:(tag_of c) ~label ~owner ~aux a b 0 0 0
