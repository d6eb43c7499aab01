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

(* Context pack/unpack: writes into / reads from caller-owned bytes,
   so neither allocates. *)
let write_ctx b off ~req ~msg ~parent ~hop =
  Net.Wire.set_u32 b off req;
  Net.Wire.set_u32 b (off + 4) msg;
  Net.Wire.set_u32 b (off + 8) parent;
  Net.Wire.set_u16 b (off + 12) hop;
  Net.Wire.set_u16 b (off + 14) 0

let read_ctx b off c =
  c.c_req <- Net.Wire.get_u32 b off;
  c.c_msg <- Net.Wire.get_u32 b (off + 4);
  c.c_parent <- Net.Wire.get_u32 b (off + 8);
  c.c_hop <- Net.Wire.get_u16 b (off + 12)

(* A frame's header at [off], for an [n]-byte payload that follows it. *)
let write_header b off ~req ~msg ~parent ~hop n =
  Net.Wire.set_u32 b off (ctx_size + n);
  write_ctx b (off + 4) ~req ~msg ~parent ~hop

let encode_ctx ~req ~msg ~parent ~hop payload =
  let n = String.length payload in
  let b = Bytes.create (hdr_size + n) in
  write_header b 0 ~req ~msg ~parent ~hop n;
  Bytes.blit_string payload 0 b hdr_size n;
  Bytes.unsafe_to_string b

let encode payload = encode_ctx ~req:0 ~msg:0 ~parent:0 ~hop:0 payload

let alloc_frame (api : Pdpix.api) ~req ~msg ~parent ~hop n =
  let buf = api.Pdpix.alloc (hdr_size + n) in
  write_header (Memory.Heap.data buf) (Memory.Heap.offset buf) ~req ~msg ~parent ~hop n;
  buf

let payload_off buf = Memory.Heap.offset buf + hdr_size

let alloc_framed api ~req ~msg ~parent ~hop src off n =
  let buf = alloc_frame api ~req ~msg ~parent ~hop n in
  Bytes.blit src off (Memory.Heap.data buf) (payload_off buf) n;
  buf

(* The unread bytes are [buf.[rd .. wr)]. [feed] appends at [wr],
   sliding the unread bytes to the front or moving them to a larger
   buffer only when the tail is full; [take] only advances [rd], so the
   messages it exposes stay where they are until the next feed. Once a
   frame's length prefix has arrived, [take] records the bytes still
   [want]ed and the next feed reserves room for the whole frame, so a
   large frame is accumulated without regrowing once per chunk. *)
type accum = {
  mutable buf : Bytes.t;
  mutable rd : int;
  mutable wr : int;
  mutable want : int; (* bytes the frame at [rd] still lacks *)
  mutable view_off : int;
  mutable view_len : int;
  last_ctx : ctx;
}

(* Up to this frame size the whole announced frame is reserved at once;
   past it the buffer grows only as bytes arrive. *)
let max_reserve = 1 lsl 20

let create () =
  {
    buf = Bytes.create 256; rd = 0; wr = 0; want = 0; view_off = 0; view_len = 0;
    last_ctx = make_ctx ();
  }

(* Room for [n] more bytes at [wr]. *)
let reserve a n =
  let live = a.wr - a.rd in
  let cap = Bytes.length a.buf in
  if a.wr + n > cap then begin
    if live + n <= cap then Bytes.blit a.buf a.rd a.buf 0 live
    else begin
      let b = Bytes.create (max (live + n) (2 * cap)) in
      Bytes.blit a.buf a.rd b 0 live;
      a.buf <- b
    end;
    a.rd <- 0;
    a.wr <- live
  end

let feed_bytes a src off len =
  reserve a (max len a.want);
  Bytes.blit src off a.buf a.wr len;
  a.wr <- a.wr + len;
  a.want <- max 0 (a.want - len)

let feed a s = feed_bytes a (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_buf a buf =
  feed_bytes a (Memory.Heap.data buf) (Memory.Heap.offset buf) (Memory.Heap.length buf)

let buffered a = a.wr - a.rd

let last a = a.last_ctx

let take a =
  let len = a.wr - a.rd in
  if len < 4 then false
  else begin
    let frame_len = Net.Wire.get_u32 a.buf a.rd in
    if len < 4 + frame_len || frame_len < ctx_size then begin
      if frame_len <= max_reserve then a.want <- 4 + frame_len - len;
      false
    end
    else begin
      read_ctx a.buf (a.rd + 4) a.last_ctx;
      a.view_off <- a.rd + hdr_size;
      a.view_len <- frame_len - ctx_size;
      a.rd <- a.rd + 4 + frame_len;
      if a.rd = a.wr then begin
        a.rd <- 0;
        a.wr <- 0
      end;
      true
    end
  end

let view_data a = a.buf
let view_off a = a.view_off
let view_len a = a.view_len

(* The one copy [next] and [recv] make: the viewed message as a string. *)
let view_string a = Bytes.sub_string a.buf a.view_off a.view_len

let next a = if take a then Some (view_string a) else None

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

(* The one send path, for chans and server replies alike: push the
   frame, note [Sent] under the context in its header (read before the
   push hands the buffer over), wait, and free it. *)
let push_frame (api : Pdpix.api) qd buf =
  let b = Memory.Heap.data buf and c = Memory.Heap.offset buf + 4 in
  let req = Net.Wire.get_u32 b c and msg = Net.Wire.get_u32 b (c + 4) in
  let parent = Net.Wire.get_u32 b (c + 8) and hop = Net.Wire.get_u16 b (c + 12) in
  let qt = api.Pdpix.push qd [ buf ] in
  note_sent api ~op:qt ~req ~msg ~parent ~hop;
  let completion = api.Pdpix.wait qt in
  (match completion with Pdpix.Pushed | Pdpix.Failed _ -> api.Pdpix.free buf | _ -> ());
  completion

let frame c ~req ~parent ~hop n =
  alloc_frame c.api ~req ~msg:(fresh_msg_id c.api) ~parent ~hop n

let send_frame c buf =
  match push_frame c.api c.qd buf with
  | Pdpix.Pushed -> ()
  | Pdpix.Failed why -> failwith ("Framing.send: " ^ why)
  | _ -> failwith "Framing.send: unexpected completion"

let send_ctx c ~req ~parent ~hop payload =
  let n = String.length payload in
  let buf = frame c ~req ~parent ~hop n in
  Bytes.blit_string payload 0 (Memory.Heap.data buf) (payload_off buf) n;
  send_frame c buf

let send c payload = send_ctx c ~req:0 ~parent:0 ~hop:0 payload

let chan_accum c = c.acc

let rec take_recv c =
  if take c.acc then begin
    note_received c.api ~op:c.pop_op c.acc.last_ctx;
    true
  end
  else if c.eof then false
  else begin
    let qt = c.api.Pdpix.pop c.qd in
    c.pop_op <- qt;
    (match c.api.Pdpix.wait qt with
    | Pdpix.Popped [] -> c.eof <- true
    | Pdpix.Popped sga ->
        List.iter
          (fun buf ->
            feed_buf c.acc buf;
            c.api.Pdpix.free buf)
          sga
    | Pdpix.Failed _ -> c.eof <- true
    | _ -> failwith "Framing.recv: unexpected completion");
    take_recv c
  end

let recv c = if take_recv c then Some (view_string c.acc) else None

(* A reply echoes the request's context: same request id, parent = the
   request's msg id, hop + 1 -- the link that lets the DAG attribute the
   ack to its replica. With no recorder attached the context is zeros. *)
let reply_frame api ~to_ctx n =
  let msg = fresh_msg_id api in
  if msg = 0 then alloc_frame api ~req:0 ~msg:0 ~parent:0 ~hop:0 n
  else
    alloc_frame api ~req:to_ctx.c_req ~msg ~parent:to_ctx.c_msg ~hop:(to_ctx.c_hop + 1) n

(* A failed push (peer reset mid-reply) is tolerated, as servers must. *)
let send_reply api qd buf =
  match push_frame api qd buf with
  | Pdpix.Pushed | Pdpix.Failed _ -> ()
  | _ -> failwith "Framing.send_reply: unexpected completion"

let connect api dst =
  let qd = api.Pdpix.socket Pdpix.Tcp in
  match api.Pdpix.wait (api.Pdpix.connect qd dst) with
  | Pdpix.Connected -> chan_of_qd api qd
  | Pdpix.Failed why -> failwith ("Framing.connect: " ^ why)
  | _ -> failwith "Framing.connect: unexpected completion"

let close c = c.api.Pdpix.close c.qd
