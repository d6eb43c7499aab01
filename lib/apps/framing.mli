(** Length-prefixed message framing over PDPIX byte streams, carrying
    the Demifleet causal context.

    Catnip connections are TCP streams that re-chunk pushes; Catmint
    delivers whole messages. A 4-byte length prefix makes application
    protocols (KV store, TxnStore RPC) portable across both.

    Every frame is [\[u32 len\]\[16 B context\]\[payload\]]: request id,
    message id, parent message id (u32 each), hop count (u16) and a pad.
    The context is {e always} present — all zeros when no
    {!Engine.Causal} recorder is attached — so frame lengths, timing
    and the trace digest are byte-identical with tracing on or off. *)

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

val encode : string -> string
(** Frame a payload with an all-zero context ("no request"). *)

val encode_ctx : req:int -> msg:int -> parent:int -> hop:int -> string -> string
(** Frame a payload with an explicit context. *)

val header : payload_len:int -> req:int -> msg:int -> parent:int -> hop:int -> string
(** Just the {!hdr_size}-byte prefix for a payload of [payload_len]
    bytes — for servers that splice zero-copy value buffers after it. *)

type accum
(** Reassembly state for one connection. *)

val create : unit -> accum

val feed : accum -> string -> unit
(** Append received bytes. *)

val next : accum -> string option
(** Extract the next complete message (context stripped), if any. *)

val last : accum -> ctx
(** The context of the most recently extracted message — the accum's
    own scratch record, valid until the next {!next}. *)

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

val send : chan -> string -> unit
(** Push one framed message (zero context) and wait for the push
    completion. *)

val send_ctx : chan -> req:int -> parent:int -> hop:int -> string -> unit
(** {!send}, stamping the request context and noting [Sent] (the msg id
    is minted here). *)

val recv : chan -> string option
(** Block until a complete message arrives; [None] on EOF. Notes
    [Received] for every extracted message carrying a context. *)

val reply_on :
  Demikernel.Pdpix.api -> Demikernel.Pdpix.qd -> to_ctx:ctx -> string -> unit
(** Send one framed reply on a raw server-side queue, echoing [to_ctx]
    (same request, parent = the request's msg id, hop + 1). Tolerates a
    failed push, as servers must. *)

val connect : Demikernel.Pdpix.api -> Net.Addr.endpoint -> chan
(** Create + connect a TCP-proto queue and wrap it. Raises on failure. *)

val close : chan -> unit
