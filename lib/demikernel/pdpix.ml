type qd = int
type qtoken = int
type sga = Memory.Heap.buffer list
type proto = Tcp | Udp

type completion =
  | Accepted of qd
  | Connected
  | Pushed
  | Popped of sga
  | Popped_from of Net.Addr.endpoint * sga
  | Failed of string

exception Unsupported of string

type api = {
  socket : proto -> qd;
  bind : qd -> Net.Addr.endpoint -> unit;
  listen : qd -> backlog:int -> unit;
  accept : qd -> qtoken;
  connect : qd -> Net.Addr.endpoint -> qtoken;
  close : qd -> unit;
  queue : unit -> qd;
  open_log : string -> qd;
  seek : qd -> int -> unit;
  truncate : qd -> int -> unit;
  push : qd -> sga -> qtoken;
  pushto : qd -> Net.Addr.endpoint -> sga -> qtoken;
  pop : qd -> qtoken;
  wait : qtoken -> completion;
  wait_any : qtoken array -> int * completion;
  wait_any_t : qtoken array -> timeout_ns:int -> (int * completion) option;
  wait_all : qtoken array -> completion array;
  yield : unit -> unit;
  spin : int -> unit;
  alloc : int -> Memory.Heap.buffer;
  alloc_str : string -> Memory.Heap.buffer;
  free : Memory.Heap.buffer -> unit;
  clock : unit -> int;
  libos_name : string;
  host_name : string;
  causal : unit -> Engine.Causal.t option;
}

let sga_length sga = List.fold_left (fun n b -> n + Memory.Heap.length b) 0 sga

(* One copy for the common one-buffer sga; a longer one copies each
   buffer twice (out of the heap, then into the joined string). *)
let sga_to_string sga =
  match sga with
  | [ buf ] -> Memory.Heap.to_string buf
  | bufs -> String.concat "" (List.map Memory.Heap.to_string bufs)

(* ---------- runtime ownership oracle ----------

   A dynamic check of the zero-copy protocol: every buffer handed
   through a [checked] api runs a per-slot state machine

     App-owned --push--> In-flight --token completes--> App-owned
     App-owned --free--> released        (slot forgotten)
     (pop completion registers libOS-handed buffers as App-owned)

   and deviations are recorded rather than raised, so a full run can be
   audited at teardown next to the heap sanitizer's report. Buffers are
   keyed by {!Memory.Heap.slot_id} (structural equality on [buffer] is
   both meaningless and unsafe). Writes while in flight are detected by
   comparing a payload digest taken at push time against the payload at
   completion time — only when the window (rel_offset, length) is
   unchanged, so a libOS legitimately re-windowing a buffer cannot
   false-positive. *)

type ownership_violation = { kind : string; detail : string }

type buf_track = {
  slot : int;
  mutable pushes : int; (* outstanding push tokens covering this slot *)
  mutable snapshot : (string * int * int) option; (* digest, rel_offset, length at push *)
}

type token_track = {
  mutable waited : bool; (* ever passed to a wait* *)
  pushed : sga; (* buffers whose ownership this token returns; [] otherwise *)
}

type oracle = {
  oracle_name : string;
  bufs : (int, buf_track) Hashtbl.t;
  toks : (int, token_track) Hashtbl.t;
  mutable violations : ownership_violation list; (* newest first *)
  mutable finished : bool;
}

let oracle ~name () =
  {
    oracle_name = name;
    bufs = Hashtbl.create 64;
    toks = Hashtbl.create 64;
    violations = [];
    finished = false;
  }

let oracle_name o = o.oracle_name

let violate o kind detail = o.violations <- { kind; detail } :: o.violations

(* Digested in place: an armed oracle copies no payload. *)
let buf_digest b = Digest.subbytes (Memory.Heap.data b) (Memory.Heap.offset b) (Memory.Heap.length b)

let track o b =
  let slot = Memory.Heap.slot_id b in
  if not (Hashtbl.mem o.bufs slot) then
    Hashtbl.replace o.bufs slot { slot; pushes = 0; snapshot = None }

let checked o (api : api) =
  let on_push sga qt =
    List.iter
      (fun b ->
        track o b;
        let bt = Hashtbl.find o.bufs (Memory.Heap.slot_id b) in
        if bt.pushes = 0 then
          bt.snapshot <-
            Some (buf_digest b, Memory.Heap.rel_offset b, Memory.Heap.length b);
        bt.pushes <- bt.pushes + 1)
      sga;
    Hashtbl.replace o.toks qt { waited = false; pushed = sga }
  in
  let on_token qt = Hashtbl.replace o.toks qt { waited = false; pushed = [] } in
  let mark_waited qt =
    match Hashtbl.find_opt o.toks qt with Some tk -> tk.waited <- true | None -> ()
  in
  let return_buf ~delivered b =
    match Hashtbl.find_opt o.bufs (Memory.Heap.slot_id b) with
    | None -> () (* freed in flight: already flagged, slot forgotten *)
    | Some bt ->
        if bt.pushes > 0 then begin
          bt.pushes <- bt.pushes - 1;
          if bt.pushes = 0 then begin
            (match bt.snapshot with
            | Some (digest, off, len) when delivered ->
                if
                  Memory.Heap.rel_offset b = off
                  && Memory.Heap.length b = len
                  && not (String.equal (buf_digest b) digest)
                then
                  violate o "write-in-flight"
                    (Printf.sprintf
                       "slot %d: payload changed between push and completion (the libOS \
                        owned it)"
                       bt.slot)
            | Some _ | None -> ());
            bt.snapshot <- None
          end
        end
  in
  let on_completion qt c =
    (match Hashtbl.find_opt o.toks qt with
    | Some tk ->
        let delivered = match c with Pushed -> true | _ -> false in
        List.iter (return_buf ~delivered) tk.pushed
    | None -> ());
    match c with
    | Popped sga | Popped_from (_, sga) -> List.iter (track o) sga
    | Accepted _ | Connected | Pushed | Failed _ -> ()
  in
  let on_free b =
    let slot = Memory.Heap.slot_id b in
    (match Hashtbl.find_opt o.bufs slot with
    | Some bt when bt.pushes > 0 ->
        violate o "free-in-flight"
          (Printf.sprintf "slot %d: freed while its push token is outstanding" slot)
    | Some _ | None -> ());
    Hashtbl.remove o.bufs slot
  in
  {
    api with
    accept =
      (fun qd ->
        let qt = api.accept qd in
        on_token qt;
        qt);
    connect =
      (fun qd ep ->
        let qt = api.connect qd ep in
        on_token qt;
        qt);
    push =
      (fun qd sga ->
        let qt = api.push qd sga in
        on_push sga qt;
        qt);
    pushto =
      (fun qd dst sga ->
        let qt = api.pushto qd dst sga in
        on_push sga qt;
        qt);
    pop =
      (fun qd ->
        let qt = api.pop qd in
        on_token qt;
        qt);
    wait =
      (fun qt ->
        mark_waited qt;
        let c = api.wait qt in
        on_completion qt c;
        c);
    wait_any =
      (fun qts ->
        Array.iter mark_waited qts;
        let i, c = api.wait_any qts in
        on_completion qts.(i) c;
        (i, c));
    wait_any_t =
      (fun qts ~timeout_ns ->
        Array.iter mark_waited qts;
        match api.wait_any_t qts ~timeout_ns with
        | Some (i, c) as hit ->
            on_completion qts.(i) c;
            hit
        | None -> None);
    wait_all =
      (fun qts ->
        Array.iter mark_waited qts;
        let cs = api.wait_all qts in
        Array.iteri (fun i c -> on_completion qts.(i) c) cs;
        cs);
    alloc =
      (fun size ->
        let b = api.alloc size in
        track o b;
        b);
    alloc_str =
      (fun s ->
        let b = api.alloc_str s in
        track o b;
        b);
    free =
      (fun b ->
        on_free b;
        api.free b);
  }

let oracle_finish o =
  if not o.finished then begin
    o.finished <- true;
    (* A token the app never even tried to redeem is a protocol leak:
       its completion (and any buffer ownership it returns) is lost.
       Tokens parked in a wait* when the run ended are fine — the app
       was blocked on them. *)
    Engine.Det.hashtbl_iter_sorted ~compare:Int.compare o.toks (fun qt tk ->
        if not tk.waited then
          violate o "dropped-token"
            (Printf.sprintf "token %d was never passed to any wait*" qt))
  end;
  List.rev o.violations

let pp_ownership_violation fmt v = Format.fprintf fmt "[%s] %s" v.kind v.detail

let log_oracle_teardown ?(fmt = Format.err_formatter) o =
  match oracle_finish o with
  | [] -> ()
  | vs ->
      Format.fprintf fmt "ownership oracle (%s): %d violation(s)@." o.oracle_name
        (List.length vs);
      List.iter (fun v -> Format.fprintf fmt "  %a@." pp_ownership_violation v) vs
