(* Each log owns a fixed slice of the device, assigned in open order.
   A slice starts with an 8-byte superblock [magic u32][start u32] —
   [start] is the slice-relative offset where live records begin (it
   advances when the application truncates) — followed by records
   framed as [u32 length][payload]. A fresh Cattree instance over the
   same device (a "reboot") re-opens logs in the same order, reads the
   superblock and recovers the records by scanning length headers until
   a zero length (the device is zero-filled). *)

let magic = 0xCA77_0001

let superblock_size = 8

type log = {
  base : int;
  limit : int; (* exclusive end of this log's device slice *)
  mutable tail : int; (* device offset for the next append *)
  mutable read_cursor : int;
  mutable gc_floor : int; (* records below this offset are truncated *)
  mutable records : (int * int) list; (* (offset, len), newest first *)
}

type inflight =
  | Write_op of { token : Pdpix.qtoken; len : int }
  | Read_op of { token : Pdpix.qtoken }
  | Sync_read of { cell : string option ref; waiter : Dsched.handle }

type t = {
  rt : Runtime.t;
  ssd : Net.Ssd_sim.t;
  mutable dead : bool;
  by_name : (string, Pdpix.qd) Hashtbl.t;
  inflight : (int, inflight) Hashtbl.t; (* device command id -> waiter *)
  mutable next_io : int;
  mutable alloc_cursor : int; (* next free device slice *)
  mutable persisted : int;
}

let slice_size t = Net.Ssd_sim.capacity t.ssd / 16

let host t = Runtime.host t.rt
let cost t = (host t).Host.cost
let charge t ns = Host.charge (host t) ns
let charge_storage t ns = Host.charge_as (host t) Engine.Span.Storage ns

let bytes_persisted t = t.persisted

let fresh_io t =
  let id = t.next_io in
  t.next_io <- t.next_io + 1;
  id

let complete_io t { Net.Ssd_sim.id; ok; data } =
  match Hashtbl.find_opt t.inflight id with
  | None -> ()
  | Some op -> (
      Hashtbl.remove t.inflight id;
      match op with
      | Write_op { token; len } ->
          if ok then begin
            t.persisted <- t.persisted + len;
            Runtime.complete t.rt token Pdpix.Pushed
          end
          else Runtime.complete t.rt token (Pdpix.Failed "device write error")
      | Read_op { token } ->
          if ok then begin
            let buf = Memory.Heap.alloc (host t).Host.heap (max 1 (String.length data)) in
            Memory.Heap.blit_string data buf;
            Runtime.complete t.rt token (Pdpix.Popped [ buf ])
          end
          else Runtime.complete t.rt token (Pdpix.Failed "device read error")
      | Sync_read { cell; waiter } ->
          cell := Some (if ok then data else "");
          Dsched.wake (Runtime.sched t.rt) waiter)

(* A crashed node must stop consuming the device's completion queue —
   its successor owns the device now. *)
let poll t () =
  if t.dead then false
  else
    match Net.Ssd_sim.poll_cq t.ssd ~max:16 with
    | [] -> false
    | completions ->
        charge t (cost t).Net.Cost.libos_poll_ns;
        List.iter (complete_io t) completions;
        true

let kill t = t.dead <- true

(* Blocking device read from inside an application coroutine: the
   fast-path coroutine completes the command and wakes us. Control-path
   only (log recovery at open). *)
let read_sync t ~off ~len =
  let sched = Runtime.sched t.rt in
  let cell = ref None in
  let id = fresh_io t in
  Hashtbl.replace t.inflight id (Sync_read { cell; waiter = Dsched.self sched });
  charge_storage t (cost t).Net.Cost.ssd_submit_ns;
  Net.Ssd_sim.submit_read t.ssd ~id ~off ~len;
  let rec await () =
    match !cell with
    | Some data -> data
    | None ->
        Dsched.block sched;
        await ()
  in
  await ()

(* Scan a device slice for records persisted by a previous incarnation
   of this log (crash recovery). *)
let recover_records t ~start ~limit =
  let rec scan cursor acc =
    if cursor + 4 > limit then (List.rev acc, cursor)
    else begin
      let header = read_sync t ~off:cursor ~len:4 in
      let len = Net.Wire.get_u32 (Bytes.unsafe_of_string header) 0 in
      if len = 0 || cursor + 4 + len > limit then (List.rev acc, cursor)
      else scan (cursor + 4 + len) ((cursor, len) :: acc)
    end
  in
  scan start []

(* Persist the superblock; fire-and-forget is safe: losing it merely
   replays already-truncated records on the next recovery. *)
let write_superblock t log =
  let b = Bytes.create superblock_size in
  Net.Wire.set_u32 b 0 magic;
  Net.Wire.set_u32 b 4 (log.gc_floor - log.base);
  Net.Ssd_sim.submit_write t.ssd ~id:(fresh_io t) ~off:log.base (Bytes.unsafe_to_string b)

let append t log sga =
  let payload = Pdpix.sga_to_string sga in
  let len = String.length payload in
  if log.tail + 4 + len > log.limit then
    Runtime.completed_token t.rt (Pdpix.Failed "cattree: log slice full")
  else begin
    let framed = Bytes.create (4 + len) in
    Net.Wire.set_u32 framed 0 len;
    Bytes.blit_string payload 0 framed 4 len;
    charge_storage t (cost t).Net.Cost.ssd_submit_ns;
    let id = fresh_io t in
    let qt = Runtime.fresh_token t.rt in
    Hashtbl.replace t.inflight id (Write_op { token = qt; len });
    Net.Ssd_sim.submit_write t.ssd ~id ~off:log.tail (Bytes.unsafe_to_string framed);
    log.records <- (log.tail, len) :: log.records;
    log.tail <- log.tail + 4 + len;
    qt
  end

let read t log () =
  let cursor = max log.read_cursor log.gc_floor in
  let record = List.find_opt (fun (off, _) -> off = cursor) log.records in
  match record with
  | None ->
      (* Nothing (yet) at the cursor: fail fast rather than block — the
         paper's logging workloads never read past the tail. *)
      Runtime.completed_token t.rt (Pdpix.Failed "cattree: read at log tail")
  | Some (off, len) ->
      charge_storage t (cost t).Net.Cost.ssd_submit_ns;
      log.read_cursor <- off + 4 + len;
      let id = fresh_io t in
      let qt = Runtime.fresh_token t.rt in
      Hashtbl.replace t.inflight id (Read_op { token = qt });
      Net.Ssd_sim.submit_read t.ssd ~id ~off:(off + 4) ~len;
      qt

let seek log off =
  let target = log.base + superblock_size + off in
  if off < 0 || target > log.limit then invalid_arg "cattree: seek outside log";
  log.read_cursor <- target

let truncate t log off =
  (* Garbage collection (§6.4): records below the floor become
     unreadable, and the floor is persisted in the superblock so a
     recovery scan starts past the dead prefix. *)
  let floor = log.base + superblock_size + off in
  if off < 0 || floor > log.limit then invalid_arg "cattree: truncate outside log";
  log.gc_floor <- max log.gc_floor floor;
  log.records <- List.filter (fun (o, _) -> o >= log.gc_floor) log.records;
  if log.read_cursor < log.gc_floor then log.read_cursor <- log.gc_floor;
  write_superblock t log

let open_log t name =
  match Hashtbl.find_opt t.by_name name with
  | Some qd -> qd
  | None ->
      let base = t.alloc_cursor in
      let limit = base + slice_size t in
      if limit > Net.Ssd_sim.capacity t.ssd then failwith "cattree: device full";
      t.alloc_cursor <- limit;
      let sb = read_sync t ~off:base ~len:superblock_size in
      let start =
        let b = Bytes.unsafe_of_string sb in
        if Net.Wire.get_u32 b 0 = magic then
          min (base + max superblock_size (Net.Wire.get_u32 b 4)) limit
        else base + superblock_size
      in
      let recovered, tail = recover_records t ~start ~limit in
      let log =
        {
          base;
          limit;
          tail;
          read_cursor = start;
          gc_floor = start;
          records = List.rev recovered (* newest first *);
        }
      in
      let qd =
        Runtime.qd
          (Runtime.new_log t.rt
             {
               Runtime.append = append t log;
               read = read t log;
               seek = seek log;
               truncate = Some (truncate t log);
             })
      in
      (* A fresh slice needs its superblock installed. *)
      write_superblock t log;
      Hashtbl.replace t.by_name name qd;
      qd

let create rt ~ssd =
  let t =
    {
      rt;
      ssd;
      dead = false;
      by_name = Hashtbl.create 4;
      inflight = Hashtbl.create 16;
      next_io = 1;
      alloc_cursor = 0;
      persisted = 0;
    }
  in
  Runtime.fast_path rt ~name:"cattree-fast-path" ~signal:(Net.Ssd_sim.cq_signal ssd) (poll t);
  t
