open Demikernel

type status = Ok | Not_found | Error

type command = Get | Set | Del

let cmd_get = 1
let cmd_set = 2
let cmd_del = 3

let byte_of_command = function Get -> cmd_get | Set -> cmd_set | Del -> cmd_del
let status_byte = function Ok -> 0 | Not_found -> 1 | Error -> 2
let status_of_byte = function 0 -> Ok | 1 -> Not_found | _ -> Error

let encode_request ~cmd ~key ~value =
  let klen = String.length key in
  let b = Bytes.create (3 + klen + String.length value) in
  Net.Wire.set_u8 b 0 cmd;
  Net.Wire.set_u16 b 1 klen;
  Bytes.blit_string key 0 b 3 klen;
  Bytes.blit_string value 0 b (3 + klen) (String.length value);
  Bytes.unsafe_to_string b

let encode_command command ~key ~value = encode_request ~cmd:(byte_of_command command) ~key ~value

let parse_command msg =
  let b = Bytes.unsafe_of_string msg in
  if Bytes.length b < 3 then None
  else begin
    let cmd = Net.Wire.get_u8 b 0 in
    let klen = Net.Wire.get_u16 b 1 in
    if Bytes.length b < 3 + klen then None
    else begin
      let key = Bytes.sub_string b 3 klen in
      let value = Bytes.sub_string b (3 + klen) (Bytes.length b - 3 - klen) in
      match cmd with
      | 1 -> Some (Get, key, value)
      | 2 -> Some (Set, key, value)
      | 3 -> Some (Del, key, value)
      | _ -> None
    end
  end

let encode_response status ~value =
  let b = Bytes.create (1 + String.length value) in
  Net.Wire.set_u8 b 0 (status_byte status);
  Bytes.blit_string value 0 b 1 (String.length value);
  Bytes.unsafe_to_string b

let parse_response resp =
  if String.length resp < 1 then None
  else Some (status_of_byte (Char.code resp.[0]), String.sub resp 1 (String.length resp - 1))

(* ---------- server ---------- *)

type conn_state = { qd : Pdpix.qd; acc : Framing.accum }

type srv = {
  api : Pdpix.api;
  store : (string, Memory.Heap.buffer) Hashtbl.t;
  log : Pdpix.qd option;
  cur : Framing.ctx; (* causal context of the request being served *)
  mutable aof_off : int; (* bytes appended to the log, framing included *)
  mutable aof_live_floor : int; (* offset of the newest snapshot *)
  mutable compaction : bool; (* off on libOSes without log cursors *)
}

let reply srv qd status value_sga =
  let value_len = Pdpix.sga_length value_sga in
  let msg = Framing.fresh_msg_id srv.api in
  let cx = srv.cur in
  let hdr =
    (* One framed response, written straight into its buffer:
       [u32 ctx+1+vlen][ctx][u8 status], value follows. The context
       echoes the request's (parent = its msg id, hop + 1); all zeros
       when no recorder is attached. *)
    let hdr = srv.api.Pdpix.alloc (Framing.hdr_size + 1) in
    let b = Memory.Heap.data hdr and off = Memory.Heap.offset hdr in
    Net.Wire.set_u32 b off (Framing.ctx_size + 1 + value_len);
    if msg = 0 then Framing.write_ctx b (off + 4) ~req:0 ~msg:0 ~parent:0 ~hop:0
    else
      Framing.write_ctx b (off + 4) ~req:cx.Framing.c_req ~msg ~parent:cx.Framing.c_msg
        ~hop:(cx.Framing.c_hop + 1);
    Net.Wire.set_u8 b (off + Framing.hdr_size) (status_byte status);
    hdr
  in
  let qt = srv.api.Pdpix.push qd (hdr :: value_sga) in
  if msg <> 0 then
    Framing.note_sent srv.api ~op:qt ~req:cx.Framing.c_req ~msg ~parent:cx.Framing.c_msg
      ~hop:(cx.Framing.c_hop + 1);
  match srv.api.Pdpix.wait qt with
  | Pdpix.Pushed | Pdpix.Failed _ ->
      (* Free only the header; value buffers belong to the store (UAF
         protection covers a concurrent DEL racing the in-flight push). *)
      srv.api.Pdpix.free hdr
  | _ -> failwith "dkv: unexpected push completion"

let store_bytes srv =
  Engine.Det.hashtbl_fold_sorted ~compare:String.compare srv.store
    (fun k v n -> n + String.length k + Memory.Heap.length v)
    0

(* AOF compaction: once the live tail of the log is several times the
   store's size, write a snapshot (one SET record per live key) and
   truncate everything before it. Correct across crashes because the
   truncation floor is persisted by the storage stack and, even if the
   floor write is lost, replaying the pre-snapshot records is
   idempotent. *)
let rec maybe_compact srv log =
  (* Compaction is synchronous (no background fork here), so trigger it
     rarely: only once the live log dwarfs the store. *)
  let live = srv.aof_off - srv.aof_live_floor in
  if srv.compaction && live > max 262_144 (8 * store_bytes srv) then begin
    let snapshot_start = srv.aof_off in
    (* Snapshot in key order: the snapshot's byte layout (and hence the
       persisted log) must not depend on Hashtbl hashing. *)
    Engine.Det.hashtbl_iter_sorted ~compare:String.compare srv.store
      (fun key value ->
        append_record srv log [ srv.api.Pdpix.alloc_str
            (Framing.encode (encode_request ~cmd:cmd_set ~key ~value:(Memory.Heap.to_string value))) ]
          ~free_after:true);
    (try srv.api.Pdpix.truncate log snapshot_start
     with Pdpix.Unsupported _ -> srv.compaction <- false);
    srv.aof_live_floor <- snapshot_start
  end

and append_record srv log sga ~free_after =
  (match srv.api.Pdpix.wait (srv.api.Pdpix.push log sga) with
  | Pdpix.Pushed -> ()
  | _ -> failwith "dkv: log append failed");
  srv.aof_off <- srv.aof_off + 4 + Pdpix.sga_length sga;
  if free_after then List.iter srv.api.Pdpix.free sga

let persist_set srv sga =
  match srv.log with
  | None -> ()
  | Some log ->
      (* fsync-per-SET: push the request bytes to the append-only log
         and wait for device persistence before replying. *)
      append_record srv log sga ~free_after:false;
      maybe_compact srv log

let store_replace srv key buf =
  (match Hashtbl.find_opt srv.store key with
  | Some old -> srv.api.Pdpix.free old
  | None -> ());
  Hashtbl.replace srv.store key buf

(* Process one request given as parsed fields; [take_value] yields the
   value as a store-ready buffer (zero-copy on the fast path, a fresh
   copy on the reassembly path). *)
let dispatch srv qd ~cmd ~key ~take_value =
  if cmd = cmd_get then
    match Hashtbl.find_opt srv.store key with
    | Some value -> reply srv qd Ok [ value ]
    | None -> reply srv qd Not_found []
  else if cmd = cmd_set then begin
    store_replace srv key (take_value ());
    reply srv qd Ok []
  end
  else if cmd = cmd_del then begin
    match Hashtbl.find_opt srv.store key with
    | Some old ->
        srv.api.Pdpix.free old;
        Hashtbl.remove srv.store key;
        reply srv qd Ok []
    | None -> reply srv qd Not_found []
  end
  else reply srv qd Error []

(* Fast path: the pop delivered exactly one complete framed request in
   one buffer and nothing was pending. Parse in place; a SET re-windows
   the buffer onto the value bytes and stores it — the incoming PUT
   lands in the store without a copy (§7.2's Redis story). *)
let try_fast_path srv cs ~pop_op sga =
  match sga with
  | [ buf ] when Framing.buffered cs.acc = 0 ->
      let data = Memory.Heap.data buf in
      let abs = Memory.Heap.offset buf in
      let len = Memory.Heap.length buf in
      if len < Framing.hdr_size + 3 then false
      else begin
        let frame_len = Net.Wire.get_u32 data abs in
        if 4 + frame_len <> len then false
        else begin
          let cmd = Net.Wire.get_u8 data (abs + 4 + Framing.ctx_size) in
          let klen = Net.Wire.get_u16 data (abs + 5 + Framing.ctx_size) in
          if frame_len < Framing.ctx_size + 3 + klen then false
          else begin
            Framing.read_ctx data (abs + 4) srv.cur;
            Framing.note_received srv.api ~op:pop_op srv.cur;
            let key = Bytes.sub_string data (abs + Framing.hdr_size + 3) klen in
            let value_off = Framing.hdr_size + 3 + klen in
            let value_len = frame_len - Framing.ctx_size - 3 - klen in
            if cmd = cmd_set && srv.log <> None then persist_set srv [ buf ];
            dispatch srv cs.qd ~cmd ~key ~take_value:(fun () ->
                Memory.Heap.set_bounds buf
                  ~offset:(Memory.Heap.rel_offset buf + value_off)
                  ~length:value_len;
                buf);
            (* GET/DEL never consumed the request buffer. *)
            if cmd <> cmd_set then srv.api.Pdpix.free buf;
            true
          end
        end
      end
  | _ -> false

(* Reassembly path: the request is the accumulator's view, parsed in
   place. A SET's value is blitted once, into its store buffer. *)
let handle_message srv cs =
  let b = Framing.view_data cs.acc in
  let off = Framing.view_off cs.acc and len = Framing.view_len cs.acc in
  if len < 3 then reply srv cs.qd Error []
  else begin
    let cmd = Net.Wire.get_u8 b off in
    let klen = Net.Wire.get_u16 b (off + 1) in
    if len < 3 + klen then reply srv cs.qd Error []
    else begin
      let key = Bytes.sub_string b (off + 3) klen in
      if cmd = cmd_set && srv.log <> None then begin
        let record = Framing.alloc_framed srv.api ~req:0 ~msg:0 ~parent:0 ~hop:0 b off len in
        persist_set srv [ record ];
        srv.api.Pdpix.free record
      end;
      dispatch srv cs.qd ~cmd ~key ~take_value:(fun () ->
          let n = len - 3 - klen in
          let value = srv.api.Pdpix.alloc (max 1 n) in
          Bytes.blit b (off + 3 + klen) (Memory.Heap.data value) (Memory.Heap.offset value) n;
          Memory.Heap.set_length value n;
          value)
    end
  end

(* Crash recovery: replay the append-only file into the store before
   serving. Each log record is one framed SET request. *)
let recover_from_aof srv log =
  let api = srv.api in
  api.Pdpix.seek log 0;
  (* reached only when the libOS supports log cursors *)
  let rec replay () =
    match api.Pdpix.wait (api.Pdpix.pop log) with
    | Pdpix.Popped sga ->
        let record = Pdpix.sga_to_string sga in
        List.iter api.Pdpix.free sga;
        srv.aof_off <- srv.aof_off + 4 + String.length record;
        (if String.length record > Framing.hdr_size then
           let inner =
             String.sub record Framing.hdr_size (String.length record - Framing.hdr_size)
           in
           match parse_command inner with
           | Some (Set, key, value) -> store_replace srv key (api.Pdpix.alloc_str value)
           | Some _ | None -> ());
        replay ()
    | Pdpix.Failed _ -> srv.aof_live_floor <- 0 (* reached the tail *)
    | _ -> failwith "dkv: unexpected recovery completion"
  in
  replay ()

let server ?(port = 6379) ?(persist = false) (api : Pdpix.api) =
  let lqd = api.Pdpix.socket Pdpix.Tcp in
  api.Pdpix.bind lqd (Net.Addr.endpoint 0 port);
  api.Pdpix.listen lqd ~backlog:64;
  let log = if persist then Some (api.Pdpix.open_log "dkv.aof") else None in
  let srv =
    {
      api; store = Hashtbl.create 1024; log; cur = Framing.make_ctx ();
      aof_off = 0; aof_live_floor = 0; compaction = true;
    }
  in
  (match log with
  | Some l -> (
      (* Catnap's kernel log is write-only (no cursor); skip replay and
         compaction there — the ext4 file still has the data for
         offline tools. *)
      try recover_from_aof srv l with Pdpix.Unsupported _ -> srv.compaction <- false)
  | None -> ());
  let serve cs ~op sga =
    if not (try_fast_path srv cs ~pop_op:op sga) then begin
      List.iter
        (fun buf ->
          Framing.feed_buf cs.acc buf;
          api.Pdpix.free buf)
        sga;
      let rec drain () =
        if Framing.take cs.acc then begin
          Framing.note_received api ~op (Framing.last cs.acc);
          Framing.ctx_copy ~src:(Framing.last cs.acc) ~dst:srv.cur;
          handle_message srv cs;
          drain ()
        end
      in
      drain ()
    end
  in
  Serve.run api ~name:"dkv" lqd ~conn:(fun qd -> { qd; acc = Framing.create () }) ~on_data:serve

(* ---------- client ---------- *)

type client = Framing.chan

let client_connect api dst = Framing.connect api dst

let request c ~cmd ~key ~value =
  let req = Framing.fresh_request (Framing.chan_api c) in
  Framing.send_ctx c ~req ~parent:0 ~hop:1 (encode_request ~cmd ~key ~value);
  let got = Framing.take_recv c in
  Framing.finish_request (Framing.chan_api c) ~req;
  let a = Framing.chan_accum c in
  let b = Framing.view_data a and off = Framing.view_off a and len = Framing.view_len a in
  if got && len >= 1 then
    (status_of_byte (Net.Wire.get_u8 b off), Bytes.sub_string b (off + 1) (len - 1))
  else (Error, "")

let get c key = request c ~cmd:cmd_get ~key ~value:""
let set c key value = fst (request c ~cmd:cmd_set ~key ~value)
let del c key = fst (request c ~cmd:cmd_del ~key ~value:"")
let client_close = Framing.close

let bench_client ~dst ~keys ~value_size ~ops ~kind ~seed ?on_start ?record ?on_done
    (api : Pdpix.api) =
  let c = client_connect api dst in
  let prng = Engine.Prng.create (Int64.of_int seed) in
  let value = String.make value_size 'v' in
  let key_of i = Printf.sprintf "key:%012d" i in
  (* GET benchmarks read a preloaded keyspace. *)
  (if kind = `Get then
     let rec preload i =
       if i < keys then begin
         ignore (set c (key_of i) value);
         preload (i + 1)
       end
     in
     preload 0);
  (match on_start with Some f -> f () | None -> ());
  let rec go n =
    if n > 0 then begin
      let key = key_of (Engine.Prng.int prng keys) in
      let start = api.Pdpix.clock () in
      (match kind with
      | `Get -> ignore (get c key)
      | `Set -> ignore (set c key value));
      (match record with Some f -> f (api.Pdpix.clock () - start) | None -> ());
      go (n - 1)
    end
  in
  go ops;
  client_close c;
  match on_done with Some f -> f () | None -> ()
