open Demikernel

let op_get = 1
let op_put = 2

(* Requests: [u8 op][u16 klen][key] (GET)
             [u8 op][u16 klen][key][u32 version][value] (PUT)
   Responses: GET hit  [u8 1][u32 version][value]
              GET miss [u8 0]
              PUT ack  [u8 1] *)

(* ---------- wire codec ---------- *)

let get_len key = 3 + String.length key
let put_len key value = 7 + String.length key + String.length value

let write_get b off key =
  let klen = String.length key in
  Net.Wire.set_u8 b off op_get;
  Net.Wire.set_u16 b (off + 1) klen;
  Bytes.blit_string key 0 b (off + 3) klen

let write_put b off key ~version value =
  let klen = String.length key in
  Net.Wire.set_u8 b off op_put;
  Net.Wire.set_u16 b (off + 1) klen;
  Bytes.blit_string key 0 b (off + 3) klen;
  Net.Wire.set_u32 b (off + 3 + klen) version;
  Bytes.blit_string value 0 b (off + 7 + klen) (String.length value)

let encode_get key =
  let b = Bytes.create (get_len key) in
  write_get b 0 key;
  Bytes.unsafe_to_string b

let encode_put key ~version value =
  let b = Bytes.create (put_len key value) in
  write_put b 0 key ~version value;
  Bytes.unsafe_to_string b

(* ---------- store ---------- *)

(* A key's value lives in [value.[0 .. len)]; a newer PUT overwrites it
   in place and allocates only when the value grows. *)
type entry = { mutable version : int; mutable value : Bytes.t; mutable len : int }

type store = {
  entries : (string, entry) Hashtbl.t;
  mutable status : int; (* the pending reply's first byte *)
  mutable hit : entry; (* the pending GET hit, or [no_hit] *)
}

let no_hit = { version = 0; value = Bytes.empty; len = 0 }

let create_store () = { entries = Hashtbl.create 1024; status = 0; hit = no_hit }
let length store = Hashtbl.length store.entries

(* Last-writer-wins by version: stale replicated writes lose. *)
let put_value store key ~version b off n =
  match Hashtbl.find store.entries key with
  | e ->
      if version > e.version then begin
        if n > Bytes.length e.value then e.value <- Bytes.create n;
        Bytes.blit b off e.value 0 n;
        e.version <- version;
        e.len <- n
      end
  | exception Not_found ->
      Hashtbl.add store.entries key { version; value = Bytes.sub b off n; len = n }

(* A frame too short for the key length it declares (or, for a PUT, for
   its version) gets the miss/failure byte instead of a parse error. *)
let apply store b off len =
  store.status <- 0;
  store.hit <- no_hit;
  (if len >= 3 then
     let op = Net.Wire.get_u8 b off in
     let klen = Net.Wire.get_u16 b (off + 1) in
     if op = op_get && len >= 3 + klen then begin
       match Hashtbl.find store.entries (Bytes.sub_string b (off + 3) klen) with
       | e ->
           store.status <- 1;
           store.hit <- e
       | exception Not_found -> ()
     end
     else if op = op_put && len >= 7 + klen then begin
       put_value store
         (Bytes.sub_string b (off + 3) klen)
         ~version:(Net.Wire.get_u32 b (off + 3 + klen))
         b (off + 7 + klen) (len - 7 - klen);
       store.status <- 1
     end);
  if store.hit == no_hit then 1 else 5 + store.hit.len

let write_reply store b off =
  Net.Wire.set_u8 b off store.status;
  let e = store.hit in
  if e != no_hit then begin
    Net.Wire.set_u32 b (off + 1) e.version;
    Bytes.blit e.value 0 b (off + 5) e.len
  end

(* ---------- server ---------- *)

type conn_state = { qd : Pdpix.qd; acc : Framing.accum }

(* The request is the accumulator's view; its reply is written straight
   into the one framed buffer that is pushed. *)
let handle api store cs =
  let a = cs.acc in
  let n = apply store (Framing.view_data a) (Framing.view_off a) (Framing.view_len a) in
  let buf = Framing.reply_frame api ~to_ctx:(Framing.last a) n in
  write_reply store (Memory.Heap.data buf) (Framing.payload_off buf);
  Framing.send_reply api cs.qd buf

(* Top-level recursion, not closures built per popped sga: serving a pop
   allocates nothing for its own loops. *)
let rec feed_all (api : Pdpix.api) acc = function
  | [] -> ()
  | buf :: rest ->
      Framing.feed_buf acc buf;
      api.Pdpix.free buf;
      feed_all api acc rest

let rec drain api store cs ~op =
  if Framing.take cs.acc then begin
    Framing.note_received api ~op (Framing.last cs.acc);
    handle api store cs;
    drain api store cs ~op
  end

let server ?(port = 7447) (api : Pdpix.api) =
  let lqd = api.Pdpix.socket Pdpix.Tcp in
  api.Pdpix.bind lqd (Net.Addr.endpoint 0 port);
  api.Pdpix.listen lqd ~backlog:64;
  let store = create_store () in
  let serve cs ~op sga =
    feed_all api cs.acc sga;
    drain api store cs ~op
  in
  Serve.run api ~name:"txnstore" lqd ~conn:(fun qd -> { qd; acc = Framing.create () }) ~on_data:serve

(* ---------- client ---------- *)

type replica = {
  chan : Framing.chan;
  mutable owed : int; (* acks of past quorum writes not yet drained *)
}

type client = {
  api : Pdpix.api;
  chans : replica array;
  prng : Engine.Prng.t;
  mutable rr : int;
}

let connect api ~replicas ~seed =
  {
    api;
    chans =
      Array.of_list
        (List.map (fun ep -> { chan = Framing.connect api ep; owed = 0 }) replicas);
    prng = Engine.Prng.create (Int64.of_int seed);
    rr = 0;
  }

(* Per-connection replies are FIFO, so before reading a fresh response
   off a replica every straggler ack it still owes must be consumed.
   Draining notes the straggler's [Received] under its original request
   id — the DAG keeps the non-quorum leg, it just lands after End. *)
let drain_owed r =
  while r.owed > 0 do
    if not (Framing.take_recv r.chan) then failwith "txnstore client: replica closed";
    r.owed <- r.owed - 1
  done

let parse_get_view b off len =
  if len >= 5 && Bytes.get b off = '\x01' then
    Some (Net.Wire.get_u32 b (off + 1), Bytes.sub_string b (off + 5) (len - 5))
  else None

let parse_get_response resp = parse_get_view (Bytes.unsafe_of_string resp) 0 (String.length resp)

let get c key =
  let r = c.chans.(c.rr mod Array.length c.chans) in
  c.rr <- c.rr + 1;
  drain_owed r;
  let req = Framing.fresh_request c.api in
  let buf = Framing.frame r.chan ~req ~parent:0 ~hop:1 (get_len key) in
  write_get (Memory.Heap.data buf) (Framing.payload_off buf) key;
  Framing.send_frame r.chan buf;
  let got = Framing.take_recv r.chan in
  Framing.finish_request c.api ~req;
  if not got then failwith "txnstore client: replica closed";
  let a = Framing.chan_accum r.chan in
  parse_get_view (Framing.view_data a) (Framing.view_off a) (Framing.view_len a)

let put ?quorum c key ~version value =
  let n = Array.length c.chans in
  let q = match quorum with None -> n | Some q -> max 1 (min q n) in
  Array.iter drain_owed c.chans;
  let req = Framing.fresh_request c.api in
  (* Send to every replica before waiting for any ack — push completes
     at transmission, so the three replications overlap on the wire. *)
  Array.iter
    (fun r ->
      let buf = Framing.frame r.chan ~req ~parent:0 ~hop:1 (put_len key value) in
      write_put (Memory.Heap.data buf) (Framing.payload_off buf) key ~version value;
      Framing.send_frame r.chan buf)
    c.chans;
  (* Acks drain in replica order (each wait overlaps the others'
     arrivals), so the quorum is the first [q] replicas' acks —
     deterministic, and any straggler is always a highest-index
     replica, left owed for a later drain. *)
  let acked = ref 0 in
  Array.iter
    (fun r ->
      if !acked < q then begin
        let ok =
          Framing.take_recv r.chan
          &&
          let a = Framing.chan_accum r.chan in
          Framing.view_len a = 1 && Bytes.get (Framing.view_data a) (Framing.view_off a) = '\x01'
        in
        if not ok then failwith "txnstore client: put not acked";
        incr acked
      end
      else r.owed <- r.owed + 1)
    c.chans;
  Framing.finish_request c.api ~req

let rmw c key f =
  let version, value = match get c key with Some (v, s) -> (v, s) | None -> (0, "") in
  put c key ~version:(version + 1) (f value)

let close c =
  Array.iter
    (fun r ->
      drain_owed r;
      Framing.close r.chan)
    c.chans

let ycsb_f ~dst_replicas ~keys ~value_size ~txns ~theta ~seed ?record ?on_done (api : Pdpix.api)
    =
  let c = connect api ~replicas:dst_replicas ~seed in
  let next_key = Workload.zipfian c.prng ~n:keys ~theta in
  let value = String.make value_size 'w' in
  (* Preload so every transaction finds its key. *)
  let rec preload i =
    if i < keys then begin
      put c (Workload.key_name i) ~version:1 value;
      preload (i + 1)
    end
  in
  preload 0;
  let rec go n =
    if n > 0 then begin
      let key = Workload.key_name (next_key ()) in
      let start = api.Pdpix.clock () in
      rmw c key (fun _old -> value);
      (match record with Some f -> f (api.Pdpix.clock () - start) | None -> ());
      go (n - 1)
    end
  in
  go txns;
  close c;
  match on_done with Some f -> f () | None -> ()
