open Demikernel

(* Every frame is [u32 len][16-byte causal context][payload], where len
   covers context + payload. The context rides in EVERY frame — all
   zeros when no Demifleet recorder is attached, real ids when one is —
   so frame lengths (and hence serialization, timing and the trace digest)
   are identical with tracing on or off: the observer-effect-free
   argument is structural, not probabilistic (DESIGN.md §15). *)

let ctx_size = 16
let hdr_size = 4 + ctx_size

type ctx = {
  mutable c_req : int;
  mutable c_msg : int;
  mutable c_parent : int;
  mutable c_hop : int;
}

let make_ctx () = { c_req = 0; c_msg = 0; c_parent = 0; c_hop = 0 }

let ctx_copy ~src ~dst =
  dst.c_req <- src.c_req;
  dst.c_msg <- src.c_msg;
  dst.c_parent <- src.c_parent;
  dst.c_hop <- src.c_hop

(* Context pack/unpack: writes into / reads from caller-owned bytes —
   the zero-alloc contract dlint's hotpath pass enforces. *)
(* dlint: hotpath *)
let write_ctx b off ~req ~msg ~parent ~hop =
  Net.Wire.set_u32 b off req;
  Net.Wire.set_u32 b (off + 4) msg;
  Net.Wire.set_u32 b (off + 8) parent;
  Net.Wire.set_u16 b (off + 12) hop;
  Net.Wire.set_u16 b (off + 14) 0

(* dlint: hotpath *)
let read_ctx b off c =
  c.c_req <- Net.Wire.get_u32 b off;
  c.c_msg <- Net.Wire.get_u32 b (off + 4);
  c.c_parent <- Net.Wire.get_u32 b (off + 8);
  c.c_hop <- Net.Wire.get_u16 b (off + 12)

let encode_ctx ~req ~msg ~parent ~hop payload =
  let n = String.length payload in
  let b = Bytes.create (hdr_size + n) in
  Net.Wire.set_u32 b 0 (ctx_size + n);
  write_ctx b 4 ~req ~msg ~parent ~hop;
  Bytes.blit_string payload 0 b hdr_size n;
  Bytes.unsafe_to_string b

let encode payload = encode_ctx ~req:0 ~msg:0 ~parent:0 ~hop:0 payload

let header ~payload_len ~req ~msg ~parent ~hop =
  let b = Bytes.create hdr_size in
  Net.Wire.set_u32 b 0 (ctx_size + payload_len);
  write_ctx b 4 ~req ~msg ~parent ~hop;
  Bytes.unsafe_to_string b

type accum = { buf : Buffer.t; last_ctx : ctx }

let create () = { buf = Buffer.create 256; last_ctx = make_ctx () }

let feed a s = Buffer.add_string a.buf s

let buffered a = Buffer.length a.buf

let last a = a.last_ctx

let next a =
  let len = Buffer.length a.buf in
  if len < 4 then None
  else begin
    let contents = Buffer.contents a.buf in
    let b = Bytes.unsafe_of_string contents in
    let frame_len = Net.Wire.get_u32 b 0 in
    if len < 4 + frame_len || frame_len < ctx_size then None
    else begin
      read_ctx b 4 a.last_ctx;
      let msg = String.sub contents hdr_size (frame_len - ctx_size) in
      Buffer.clear a.buf;
      Buffer.add_substring a.buf contents (4 + frame_len) (len - 4 - frame_len);
      Some msg
    end
  end

(* ---------- Demifleet recording helpers ----------
   All are a single branch when no recorder is attached: ids mint as 0
   and zero contexts are never noted, so instrumented apps behave
   byte-identically in unobserved runs. *)

let fresh_request (api : Pdpix.api) =
  match api.Pdpix.causal () with
  | None -> 0
  | Some cr ->
      let req = Engine.Causal.fresh_req cr in
      Engine.Causal.note cr ~kind:Engine.Causal.Begin ~req ~msg:0 ~parent:0 ~hop:0
        ~host:api.Pdpix.host_name ~op:0 ~now:(api.Pdpix.clock ());
      req

let finish_request (api : Pdpix.api) ~req =
  if req <> 0 then
    match api.Pdpix.causal () with
    | None -> ()
    | Some cr ->
        Engine.Causal.note cr ~kind:Engine.Causal.End ~req ~msg:0 ~parent:0 ~hop:0
          ~host:api.Pdpix.host_name ~op:0 ~now:(api.Pdpix.clock ())

let fresh_msg_id (api : Pdpix.api) =
  match api.Pdpix.causal () with None -> 0 | Some cr -> Engine.Causal.fresh_msg cr

let note_sent (api : Pdpix.api) ~op ~req ~msg ~parent ~hop =
  if msg <> 0 then
    match api.Pdpix.causal () with
    | None -> ()
    | Some cr ->
        Engine.Causal.note cr ~kind:Engine.Causal.Sent ~req ~msg ~parent ~hop
          ~host:api.Pdpix.host_name ~op ~now:(api.Pdpix.clock ())

let note_received (api : Pdpix.api) ~op c =
  if c.c_msg <> 0 then
    match api.Pdpix.causal () with
    | None -> ()
    | Some cr ->
        Engine.Causal.note cr ~kind:Engine.Causal.Received ~req:c.c_req ~msg:c.c_msg
          ~parent:c.c_parent ~hop:c.c_hop ~host:api.Pdpix.host_name ~op
          ~now:(api.Pdpix.clock ())

(* ---------- Blocking channel ---------- *)

type chan = {
  api : Pdpix.api;
  qd : Pdpix.qd;
  acc : accum;
  mutable eof : bool;
  mutable pop_op : int; (* qtoken of the most recent pop on this chan *)
}

let chan_of_qd api qd = { api; qd; acc = create (); eof = false; pop_op = 0 }

let chan_api c = c.api

let send_ctx c ~req ~parent ~hop payload =
  let msg = fresh_msg_id c.api in
  let buf = c.api.Pdpix.alloc_str (encode_ctx ~req ~msg ~parent ~hop payload) in
  let qt = c.api.Pdpix.push c.qd [ buf ] in
  note_sent c.api ~op:qt ~req ~msg ~parent ~hop;
  match c.api.Pdpix.wait qt with
  | Pdpix.Pushed -> c.api.Pdpix.free buf
  | Pdpix.Failed why -> failwith ("Framing.send: " ^ why)
  | _ -> failwith "Framing.send: unexpected completion"

let send c payload = send_ctx c ~req:0 ~parent:0 ~hop:0 payload

let rec recv c =
  match next c.acc with
  | Some msg ->
      note_received c.api ~op:c.pop_op c.acc.last_ctx;
      Some msg
  | None ->
      if c.eof then None
      else begin
        let qt = c.api.Pdpix.pop c.qd in
        c.pop_op <- qt;
        (match c.api.Pdpix.wait qt with
        | Pdpix.Popped [] -> c.eof <- true
        | Pdpix.Popped sga ->
            List.iter
              (fun buf ->
                feed c.acc (Memory.Heap.to_string buf);
                c.api.Pdpix.free buf)
              sga
        | Pdpix.Failed _ -> c.eof <- true
        | _ -> failwith "Framing.recv: unexpected completion");
        recv c
      end

(* One framed reply on a raw server-side queue, echoing the request's
   context: same request id, parent = the request's msg id, hop + 1 —
   the link that lets the DAG attribute the ack to its replica. A
   failed push (peer reset mid-reply) is tolerated, as servers must. *)
let reply_on (api : Pdpix.api) qd ~to_ctx payload =
  let msg = fresh_msg_id api in
  let frame =
    if msg = 0 then encode payload
    else
      encode_ctx ~req:to_ctx.c_req ~msg ~parent:to_ctx.c_msg ~hop:(to_ctx.c_hop + 1) payload
  in
  let buf = api.Pdpix.alloc_str frame in
  let qt = api.Pdpix.push qd [ buf ] in
  if msg <> 0 then
    note_sent api ~op:qt ~req:to_ctx.c_req ~msg ~parent:to_ctx.c_msg ~hop:(to_ctx.c_hop + 1);
  match api.Pdpix.wait qt with
  | Pdpix.Pushed | Pdpix.Failed _ -> api.Pdpix.free buf
  | _ -> failwith "Framing.reply_on: unexpected completion"

let connect api dst =
  let qd = api.Pdpix.socket Pdpix.Tcp in
  match api.Pdpix.wait (api.Pdpix.connect qd dst) with
  | Pdpix.Connected -> chan_of_qd api qd
  | Pdpix.Failed why -> failwith ("Framing.connect: " ^ why)
  | _ -> failwith "Framing.connect: unexpected completion"

let close c = c.api.Pdpix.close c.qd
