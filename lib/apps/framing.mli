(** Length-prefixed message framing over PDPIX byte streams, carrying
    the Demifleet causal context.

    Catnip connections are TCP streams that re-chunk pushes; Catmint
    delivers whole messages. A 4-byte length prefix makes application
    protocols (KV store, TxnStore RPC) portable across both.

    Every frame is [\[u32 len\]\[16 B context\]\[payload\]]: request id,
    message id, parent message id (u32 each), hop count (u16) and a pad.
    The context is {e always} present — all zeros when no
    {!Engine.Causal} recorder is attached — so frame lengths, timing
    and the trace digest are byte-identical with tracing on or off.

    Messages are built and parsed in place. A sender gets one
    [api.alloc] buffer with the frame header already written
    ({!frame}, {!reply_frame}), writes its payload at
    {!payload_off}, and hands the buffer to the one push path
    ({!send_frame}, {!send_reply}); {!send} and {!send_ctx} are that
    path with a string payload blitted in. A receiver {!take}s the next
    whole message and reads it through the accumulator's view
    ({!view_data}, {!view_off}, {!view_len}) without copying it out.
    {!next} and {!recv} are [take] plus one copy, for callers that want
    a string. *)

val ctx_size : int
(** Bytes of causal context per frame (16). *)

val hdr_size : int
(** Total frame header: 4-byte length + context (20). *)

type ctx = {
  mutable c_req : int;
  mutable c_msg : int;
  mutable c_parent : int;
  mutable c_hop : int;
}
(** A decoded causal context. Mutable so unpack paths are zero-alloc. *)

val make_ctx : unit -> ctx

val ctx_copy : src:ctx -> dst:ctx -> unit

val write_ctx : Bytes.t -> int -> req:int -> msg:int -> parent:int -> hop:int -> unit
(** Pack a context at a byte offset (also zeroes the pad). Zero-alloc. *)

val read_ctx : Bytes.t -> int -> ctx -> unit
(** Unpack a context at a byte offset into a caller-owned scratch
    record. Zero-alloc. *)

val write_header : Bytes.t -> int -> req:int -> msg:int -> parent:int -> hop:int -> int -> unit
(** [write_header b off ~req ~msg ~parent ~hop n]: the length prefix and
    context of a frame whose [n]-byte payload follows at
    [off + hdr_size]. Zero-alloc. *)

val encode : string -> string
(** Frame a payload with an all-zero context ("no request"). *)

val encode_ctx : req:int -> msg:int -> parent:int -> hop:int -> string -> string
(** Frame a payload with an explicit context. *)

val payload_off : Memory.Heap.buffer -> int
(** Where a frame buffer's payload starts in its [Memory.Heap.data]. *)

val alloc_framed :
  Demikernel.Pdpix.api ->
  req:int ->
  msg:int ->
  parent:int ->
  hop:int ->
  Bytes.t ->
  int ->
  int ->
  Memory.Heap.buffer
(** [alloc_framed api ~req ~msg ~parent ~hop b off n]: one
    [api.alloc (hdr_size + n)] buffer holding the whole frame, its
    header written in place and the [n] payload bytes of [b] at [off]
    blitted once. The caller owns the buffer. *)

type accum
(** Reassembly state for one connection: a byte buffer with read and
    write offsets. *)

val create : unit -> accum

val feed : accum -> string -> unit
(** Append received bytes. *)

val feed_buf : accum -> Memory.Heap.buffer -> unit
(** Append a received heap buffer's payload, blitting it straight into
    the accumulator (no intermediate string). The caller still owns and
    frees [buf]. *)

val take : accum -> bool
(** Consume the next complete message, if any, and make it the view:
    its payload (context stripped) is [view_len] bytes of [view_data]
    at [view_off], and its context is {!last}. The bytes stay in place
    until the next feed, so a view saved before a later [take] in the
    same drain still reads its own message. Feeding and taking are
    linear in the bytes fed — an incomplete frame is never re-copied
    per call, and once its length prefix has arrived the next feed sizes
    the accumulator for the whole frame. *)

val view_data : accum -> Bytes.t
val view_off : accum -> int
val view_len : accum -> int

val next : accum -> string option
(** {!take}, then one copy of the viewed message out as a string. *)

val last : accum -> ctx
(** The context of the most recently taken message — the accum's own
    scratch record, valid until the next {!take}. *)

val buffered : accum -> int

(** {1 Demifleet recording} — all a single branch when no recorder is
    attached (ids mint as 0, zero contexts are never noted). *)

val fresh_request : Demikernel.Pdpix.api -> int
(** Mint a request id and note [Begin] on this host; 0 when detached. *)

val finish_request : Demikernel.Pdpix.api -> req:int -> unit
(** Note [End]; no-op when [req] is 0. *)

val fresh_msg_id : Demikernel.Pdpix.api -> int

val note_sent : Demikernel.Pdpix.api -> op:int -> req:int -> msg:int -> parent:int -> hop:int -> unit
(** Note [Sent] under the local op-span qtoken [op]; no-op when [msg]
    is 0. For raw (non-{!chan}) senders like the UDP relay. *)

val note_received : Demikernel.Pdpix.api -> op:int -> ctx -> unit
(** Note [Received] for a decoded context; no-op on zero contexts. *)

(** {1 Blocking channel} — for client coroutines that own their
    connection outright. *)

type chan

val chan_of_qd : Demikernel.Pdpix.api -> Demikernel.Pdpix.qd -> chan

val chan_api : chan -> Demikernel.Pdpix.api

val frame : chan -> req:int -> parent:int -> hop:int -> int -> Memory.Heap.buffer
(** One [api.alloc (hdr_size + n)] buffer for an [n]-byte message on
    this chan, its header written in place: the request context and a
    freshly minted msg id. Write the payload at {!payload_off}, then
    {!send_frame} it. *)

val send_frame : chan -> Memory.Heap.buffer -> unit
(** Push a frame built by {!frame}, note [Sent] under its header's
    context, wait for the push completion and free the buffer. Raises
    if the push fails. *)

val send : chan -> string -> unit
(** Push one framed message (zero context) and wait for the push
    completion: {!send_ctx} with no request. *)

val send_ctx : chan -> req:int -> parent:int -> hop:int -> string -> unit
(** {!frame} with the string blitted in as its payload, then
    {!send_frame}. *)

val take_recv : chan -> bool
(** Block until a complete message is taken into the view of
    {!chan_accum}; [false] on EOF. Notes [Received] for every taken
    message carrying a context. *)

val chan_accum : chan -> accum

val recv : chan -> string option
(** {!take_recv}, then one copy of the message out; [None] on EOF. *)

val reply_frame : Demikernel.Pdpix.api -> to_ctx:ctx -> int -> Memory.Heap.buffer
(** {!frame} for an [n]-byte reply on a raw server-side queue,
    echoing [to_ctx] (same request, parent = the request's msg id,
    hop + 1; zeros when no recorder is attached). *)

val send_reply : Demikernel.Pdpix.api -> Demikernel.Pdpix.qd -> Memory.Heap.buffer -> unit
(** {!send_frame} for a {!reply_frame} buffer on a server-side queue.
    Tolerates a failed push, as servers must. *)

val connect : Demikernel.Pdpix.api -> Net.Addr.endpoint -> chan
(** Create + connect a TCP-proto queue and wrap it. Raises on failure. *)

val close : chan -> unit
