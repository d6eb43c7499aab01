type component =
  | App
  | Sched
  | Libos
  | Proto
  | Device
  | Wire
  | Kernel
  | Copy
  | Softirq
  | Storage

let components =
  [ App; Sched; Libos; Proto; Device; Wire; Kernel; Copy; Softirq; Storage ]

let names =
  [| "app"; "sched"; "libos"; "proto"; "device"; "wire"; "kernel"; "copy"; "softirq"; "storage" |]

let component_index c =
  match c with
  | App -> 0
  | Sched -> 1
  | Libos -> 2
  | Proto -> 3
  | Device -> 4
  | Wire -> 5
  | Kernel -> 6
  | Copy -> 7
  | Softirq -> 8
  | Storage -> 9

let component_name c = names.(component_index c)

type interval = {
  comp : component;
  owner : string;
  label : string;
  t0 : Clock.t;
  t1 : Clock.t;
}

type op = {
  op_key : int;
  mutable op_kind : string;
  op_owner : string;
  opened_at : Clock.t;
  mutable closed_at : Clock.t option;
  mutable op_ok : bool;
}

type wire_status = Wire_delivered | Wire_dropped of string

type wire_event = {
  wire_flow : int;
  wire_src : string;
  wire_dst : string;
  wire_label : string;
  wire_t0 : Clock.t;
  wire_t1 : Clock.t;
  wire_status : wire_status;
}

(* Ring layout: an interval is tagged with its component index, spans
   [ts, a] and carries its owner and label; a wire event is tagged
   [wire_ok] or [wire_drop], spans [ts, a], carries its flow in [b],
   its source host as owner, and its destination (delivered) or drop
   reason (dropped) as aux. A delivered frame is also the fabric's
   [Wire] interval, so it is stored once. *)
let wire_ok = List.length components
let wire_drop = wire_ok + 1
let by_index = Array.of_list components

type t = {
  log : Log.t;
  totals : int array; (* per-component virtual ns, indexed by component_index *)
  mutable noted : int; (* intervals ever noted, delivered frames included *)
  ops : (string * int, op) Hashtbl.t; (* keyed by (owner, qtoken): qtokens are per-host *)
  mutable op_order : op list; (* newest first *)
  mutable op_count : int;
  (* SLO watchdog (Demiflight): ops whose close-time latency exceeded
     the armed threshold. max_int = disarmed, so the close path tests a
     plain int, never an option. *)
  mutable slo_threshold : int;
  mutable slo_outliers : op list; (* newest first *)
  mutable slo_kept : int;
  mutable slo_count : int;
}

let slo_capacity = 1024

let create ?(capacity = 262_144) () =
  {
    log = Log.create ~capacity ();
    totals = Array.make (List.length components) 0;
    noted = 0;
    ops = Hashtbl.create 256;
    op_order = [];
    op_count = 0;
    slo_threshold = max_int;
    slo_outliers = [];
    slo_kept = 0;
    slo_count = 0;
  }

let log t = t.log

let set_slo t ~threshold_ns =
  if threshold_ns <= 0 then invalid_arg "Span.set_slo: threshold must be positive";
  t.slo_threshold <- threshold_ns

let slo_threshold t = if t.slo_threshold = max_int then None else Some t.slo_threshold
let outliers t = List.rev t.slo_outliers
let outlier_count t = t.slo_count

let note t ~comp ~owner ~label ~t0 ~t1 =
  assert (t1 >= t0);
  let idx = component_index comp in
  t.totals.(idx) <- t.totals.(idx) + (t1 - t0);
  t.noted <- t.noted + 1;
  Log.record t.log ~now:t0 ~tag:idx ~label ~owner ~aux:"" t1 0 0 0 0

let note_wire t ~flow ~src ~dst ~label ~t0 ~t1 =
  assert (t1 >= t0);
  let idx = component_index Wire in
  t.totals.(idx) <- t.totals.(idx) + (t1 - t0);
  t.noted <- t.noted + 1;
  Log.record t.log ~now:t0 ~tag:wire_ok ~label ~owner:src ~aux:dst t1 flow 0 0 0

let note_wire_drop t ~flow ~src ~label ~reason ~at =
  Log.record t.log ~now:at ~tag:wire_drop ~label ~owner:src ~aux:reason at flow 0 0 0

let wire_events t =
  List.filter_map
    (fun (r : Log.row) ->
      let delivered = r.tag = wire_ok in
      if r.tag < wire_ok then None
      else
        Some
          {
            wire_flow = r.b; wire_src = r.owner; wire_dst = (if delivered then r.aux else "");
            wire_label = r.label; wire_t0 = r.ts; wire_t1 = r.a;
            wire_status = (if delivered then Wire_delivered else Wire_dropped r.aux);
          })
    (Log.rows t.log)

let open_op t ~key ~kind ~owner ~now =
  let op =
    { op_key = key; op_kind = kind; op_owner = owner; opened_at = now; closed_at = None; op_ok = true }
  in
  Hashtbl.replace t.ops (owner, key) op;
  t.op_order <- op :: t.op_order;
  t.op_count <- t.op_count + 1

let label_op t ~key ~owner kind =
  match Hashtbl.find_opt t.ops (owner, key) with
  | Some op -> op.op_kind <- kind
  | None -> ()

let close_op t ~key ~owner ~now ~ok =
  match Hashtbl.find_opt t.ops (owner, key) with
  | Some op when op.closed_at = None ->
      op.closed_at <- Some now;
      op.op_ok <- ok;
      (* The watchdog fires retroactively at close time: the op already
         missed its SLO, so the recent history (flight ring, wire
         events, sibling spans) is still warm and can be dumped. Pure
         bookkeeping here — the dump itself happens post-run. *)
      if now - op.opened_at > t.slo_threshold then begin
        t.slo_count <- t.slo_count + 1;
        if t.slo_kept < slo_capacity then begin
          t.slo_outliers <- op :: t.slo_outliers;
          t.slo_kept <- t.slo_kept + 1
        end
      end
  | Some _ | None -> ()

let intervals t =
  List.filter_map
    (fun (r : Log.row) ->
      if r.tag > wire_ok then None
      else if r.tag = wire_ok then
        Some { comp = Wire; owner = "fabric"; label = r.label; t0 = r.ts; t1 = r.a }
      else Some { comp = by_index.(r.tag); owner = r.owner; label = r.label; t0 = r.ts; t1 = r.a })
    (Log.rows t.log)

let ops t = List.rev t.op_order
let open_ops t = List.filter (fun op -> op.closed_at = None) (ops t)
let dropped t = t.noted - List.length (intervals t)
let op_count t = t.op_count
let total t comp = t.totals.(component_index comp)
let totals t = List.map (fun c -> (c, total t c)) components

(* Mirrors the heap sanitizer's teardown leak report: every op span
   opened at push/pop submission must have been closed by a completion
   (success, failure or timeout-abort) before the world is torn down. *)
let log_teardown ?(fmt = Format.err_formatter) t =
  match open_ops t with
  | [] -> ()
  | leaked ->
      Format.fprintf fmt "span report: %d op span(s) still open at teardown@."
        (List.length leaked);
      List.iter
        (fun op ->
          Format.fprintf fmt "  qtoken %d (%s on %s) opened at %a, never closed@."
            op.op_key op.op_kind op.op_owner Clock.pp op.opened_at)
        leaked
