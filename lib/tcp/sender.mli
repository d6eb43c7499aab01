(** The send side of one TCP connection: the queued segments and their
    heap references, [snd_una]/[snd_nxt]/[snd_wnd], the FIN's sequence
    slot, {!Rto}, {!Cc}, the SACK scoreboard, and every decision to
    transmit or retransmit.

    The queue is one FIFO of MSS-or-smaller slices of application
    buffers from [snd_una] to the last queued byte; those from
    [snd_nxt] on were never sent. Each holds a libOS reference to its
    buffer ([Heap.os_incref]) until cumulatively acked: retransmissions
    re-read it (the UAF protection of §5.3). Every segment leaves
    through the [emit] callback the connection's stack supplies, so a
    test can drive a sender with pushes, acks and RTO expiries alone. *)

type t

(** Why a segment is emitted. *)
type kind =
  | Fresh  (** queued bytes leaving for the first time (a zero-window probe too) *)
  | Retransmit  (** the first unSACKed segment again: an RTO, or three duplicate acks *)
  | Hole  (** an unSACKed segment below the highest SACK, on three duplicate acks *)
  | Fin  (** our FIN, first or again; no payload *)

type emit = kind -> Seqnum.t -> int -> Bytes.t -> int -> int -> unit
(** [emit kind seq push_id b off len] sends the segment at [seq] whose
    payload is the [len] bytes at [off] in [b]. [push_id] is the push's
    id when the push's last segment first leaves (the PDPIX push
    completes), -1 otherwise. *)

val create :
  iss:Seqnum.t -> mss:int -> Cc.algorithm -> min_rto:int -> max_rto:int ->
  clock:(unit -> int) -> emit:emit -> t
(** Nothing queued, [snd_una] = [snd_nxt] = [iss], an [mss]-byte window
    until the peer advertises one, no window scale and no SACK. [clock]
    is read when a segment first leaves and when an ack retires it. *)

(** The handshake: [negotiate] takes the peer's SYN options (its window
    shift, and whether SACK is on); [syn_sent] moves [snd_nxt] past our
    SYN at [iss]; [syn_acked s th] takes [snd_una] and the window from
    the segment [th] that acked our SYN (a SYN's window is unscaled). *)

val negotiate : t -> wscale:int -> sack:bool -> unit
val syn_sent : t -> unit
val syn_acked : t -> Net.Tcp_wire.t -> unit

val push : t -> mss:int -> push_id:int -> Memory.Heap.buffer list -> unit
(** Queue the buffers after the last queued byte as [mss]-byte segments,
    the last one carrying [push_id], and transmit what the window
    allows. O(1) in the queue's length. *)

val close : t -> unit
(** Queue our FIN after the last queued byte, and transmit. *)

val on_ack : t -> Net.Tcp_wire.t -> payload_len:int -> bool
(** Take the ack fields of [th], which carries [payload_len] bytes: its
    SACK blocks and window, then new data acked (retire, RTT sample by
    Karn's rule, congestion window, transmit) or a duplicate ack, whose
    third resends the first unSACKed segment, or with SACK every
    unSACKed segment below the highest SACK. True when the RTO must be
    re-armed: [snd_una] moved, or a fast retransmit went out. *)

val on_rto : t -> unit
(** Collapse the window, back the timeout off, and resend the first
    unSACKed segment, else an unacked FIN, else the first unsent
    segment (a zero-window probe). *)

val needs_rto : t -> bool
(** Data in flight, an unacked FIN, or data queued behind a zero
    window. *)

val rto : t -> int
(** The retransmission timeout, backoff included. *)

val release : t -> unit
(** Drop every queued segment and its heap reference. *)

val snd_nxt : t -> Seqnum.t
val fin_acked : t -> bool
val bytes_in_flight : t -> int
val cwnd : t -> int
val srtt : t -> int option
val sack : t -> bool

val retransmits : t -> int
(** Segments sent again, FINs included. *)
