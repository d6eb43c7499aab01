type kind = Fresh | Retransmit | Hole | Fin
type emit = kind -> Seqnum.t -> int -> Bytes.t -> int -> int -> unit

(* The queue is an intrusive FIFO: each segment links to the next, so
   queueing one allocates only the segment, whatever the depth. *)
type seg =
  | Nil
  | Seg of {
      seq : Seqnum.t;
      len : int;
      buf : Memory.Heap.buffer;
      off : int; (* of the slice in [buf] *)
      mutable push_id : int; (* the push's id on its last segment, -1 on the others *)
      mutable first_tx : int; (* -1 before it is sent, and after it is resent (Karn's rule) *)
      mutable sacked : bool; (* covered by a peer SACK block (RFC 2018) *)
      mutable next : seg;
    }

type t = {
  emit : emit;
  clock : unit -> int;
  rto : Rto.t;
  cc : Cc.t;
  mutable snd_una : Seqnum.t;
  mutable snd_nxt : Seqnum.t;
  mutable snd_wnd : int;
  mutable wscale : int; (* of the peer's advertised windows *)
  mutable sack : bool;
  mutable dupacks : int;
  mutable fin_queued : bool;
  mutable fin_seq : Seqnum.t; (* -1 until the FIN is sent *)
  mutable retransmits : int;
  mutable head : seg; (* at [snd_una] *)
  mutable unsent : seg; (* at [snd_nxt]: the first segment never sent, [Nil] when all were *)
  mutable tail : seg;
}

let create ~iss ~mss cc ~min_rto ~max_rto ~clock ~emit =
  { emit; clock; rto = Rto.create ~min_rto ~max_rto; cc = Cc.create cc ~mss;
    snd_una = iss; snd_nxt = iss; snd_wnd = mss; wscale = 0; sack = false; dupacks = 0;
    fin_queued = false; fin_seq = -1; retransmits = 0; head = Nil; unsent = Nil; tail = Nil }

let negotiate s ~wscale ~sack =
  s.wscale <- wscale;
  s.sack <- sack

let syn_sent s = s.snd_nxt <- Seqnum.add s.snd_nxt 1

let syn_acked s th =
  s.snd_una <- th.Net.Tcp_wire.ack;
  s.snd_wnd <- th.Net.Tcp_wire.window lsl (if th.Net.Tcp_wire.syn then 0 else s.wscale)

let snd_nxt s = s.snd_nxt
let bytes_in_flight s = Seqnum.sub s.snd_nxt s.snd_una
let cwnd s = Cc.cwnd s.cc
let srtt s = Rto.srtt s.rto
let rto s = Rto.rto s.rto
let sack s = s.sack
let retransmits s = s.retransmits
let fin_acked s = s.fin_seq >= 0 && Seqnum.le (Seqnum.add s.fin_seq 1) s.snd_una

let needs_rto s =
  s.head != s.unsent || (s.fin_seq >= 0 && not (fin_acked s)) || (s.unsent != Nil && s.snd_wnd = 0)

(* ---------- transmission ---------- *)

(* The one way queued bytes first leave: the first unsent segment,
   whether the window lets it go or a zero-window probe forces it. *)
let send_head s =
  match s.unsent with
  | Nil -> ()
  | Seg r ->
      r.first_tx <- s.clock ();
      s.emit Fresh r.seq r.push_id (Memory.Heap.data r.buf) (Memory.Heap.offset r.buf + r.off)
        r.len;
      s.snd_nxt <- Seqnum.add s.snd_nxt r.len;
      s.unsent <- r.next

(* The one way a sent segment leaves again. *)
let resend s kind = function
  | Nil -> ()
  | Seg r ->
      r.first_tx <- -1;
      s.retransmits <- s.retransmits + 1;
      s.emit kind r.seq (-1) (Memory.Heap.data r.buf) (Memory.Heap.offset r.buf + r.off) r.len

(* Unsent segments while the window allows, and always one when nothing
   is in flight, so a window smaller than a segment cannot deadlock the
   connection; then the FIN, once every byte has left. *)
let rec transmit s =
  match s.unsent with
  | Seg r ->
      let wnd = min (Cc.cwnd s.cc) s.snd_wnd and in_flight = bytes_in_flight s in
      if in_flight + r.len <= wnd || (in_flight = 0 && wnd > 0) then begin
        send_head s;
        transmit s
      end
  | Nil ->
      if s.fin_queued && s.fin_seq < 0 then begin
        s.fin_seq <- s.snd_nxt;
        s.emit Fin s.snd_nxt (-1) Bytes.empty 0 0;
        s.snd_nxt <- Seqnum.add s.snd_nxt 1
      end

let close s =
  s.fin_queued <- true;
  transmit s

let queued_end s = match s.tail with Seg r -> Seqnum.add r.seq r.len | Nil -> s.snd_nxt

(* Append [buf] from [off] on as [mss]-byte segments. *)
let rec split s ~mss buf off =
  let len = min mss (Memory.Heap.length buf - off) in
  if len > 0 then begin
    Memory.Heap.os_incref buf;
    let seg =
      Seg { seq = queued_end s; len; buf; off; push_id = -1; first_tx = -1; sacked = false;
            next = Nil }
    in
    (match s.tail with Seg r -> r.next <- seg | Nil -> s.head <- seg);
    s.tail <- seg;
    if s.unsent == Nil then s.unsent <- seg;
    split s ~mss buf (off + len)
  end

let rec push s ~mss ~push_id = function
  | buf :: rest ->
      split s ~mss buf 0;
      push s ~mss ~push_id rest
  | [] ->
      (match s.tail with Seg r -> r.push_id <- push_id | Nil -> ());
      transmit s

(* ---------- retransmission: the scoreboard walks the sent segments ---------- *)

let rec first_unsacked s seg =
  if seg == s.unsent then Nil
  else match seg with Seg r when r.sacked -> first_unsacked s r.next | Seg _ | Nil -> seg

(* Whether one of the segment's SACK blocks, from block [i] on, covers
   [lo, hi). At most {!Net.Tcp_wire.max_sack_blocks} blocks. *)
let rec sack_covers th lo hi i =
  i < th.Net.Tcp_wire.sack_count
  && ((Seqnum.le th.Net.Tcp_wire.sack_edges.(2 * i) lo
      && Seqnum.le hi th.Net.Tcp_wire.sack_edges.((2 * i) + 1))
     || sack_covers th lo hi (i + 1))

let rec mark_sacked s th seg =
  match seg with
  | Seg r when seg != s.unsent ->
      if (not r.sacked) && sack_covers th r.seq (Seqnum.add r.seq r.len) 0 then r.sacked <- true;
      mark_sacked s th r.next
  | Seg _ | Nil -> ()

(* The end of the highest SACKed segment, at least [high]. *)
let rec sack_high s high seg =
  match seg with
  | Seg r when seg != s.unsent ->
      sack_high s (if r.sacked then Seqnum.max high (Seqnum.add r.seq r.len) else high) r.next
  | Seg _ | Nil -> high

let rec resend_holes s high seg =
  match seg with
  | Seg r when seg != s.unsent ->
      if (not r.sacked) && Seqnum.lt r.seq high then resend s Hole seg;
      resend_holes s high r.next
  | Seg _ | Nil -> ()

(* The first unSACKed segment; with none, the timer was armed for a FIN
   or a zero-window probe. *)
let on_rto s =
  Cc.on_timeout s.cc;
  Rto.backoff s.rto;
  match first_unsacked s s.head with
  | Seg _ as seg -> resend s Retransmit seg
  | Nil ->
      if s.fin_seq >= 0 && not (fin_acked s) then begin
        s.retransmits <- s.retransmits + 1;
        s.emit Fin s.fin_seq (-1) Bytes.empty 0 0
      end
      else send_head s

(* With SACK, every unSACKed segment below the highest selective ack is
   presumed lost (RFC 6675): repair all the holes now instead of one
   per round trip. With no SACKed segment in flight (SACK off, say),
   the head is the first unSACKed one. *)
let fast_retransmit s =
  Cc.on_fast_retransmit s.cc;
  let high = sack_high s s.snd_una s.head in
  if Seqnum.lt s.snd_una high then resend_holes s high s.head else resend s Retransmit s.head

(* Retire the fully-acked segments at the head, dropping their buffer
   refs. Returns the RTT sample of the last retired segment that was
   sent only once, or [sample]. *)
let rec retire s ack sample =
  match s.head with
  | Seg r when s.head != s.unsent && Seqnum.le (Seqnum.add r.seq r.len) ack ->
      s.head <- r.next;
      if r.next == Nil then s.tail <- Nil;
      let sample =
        if r.first_tx >= 0 then s.clock () - r.first_tx else sample
      in
      Memory.Heap.os_decref r.buf;
      retire s ack sample
  | Seg _ | Nil -> sample

let on_ack s th ~payload_len =
  let ack = th.Net.Tcp_wire.ack in
  if th.Net.Tcp_wire.sack_count > 0 && s.sack then mark_sacked s th s.head;
  s.snd_wnd <- th.Net.Tcp_wire.window lsl s.wscale;
  if Seqnum.lt s.snd_una ack && Seqnum.le ack s.snd_nxt then begin
    let acked = Seqnum.sub ack s.snd_una in
    s.snd_una <- ack;
    s.dupacks <- 0;
    Rto.reset_backoff s.rto;
    let sample = retire s ack (-1) in
    if sample >= 0 then Rto.observe s.rto sample;
    Cc.on_ack s.cc ~acked ~now:(s.clock ());
    transmit s;
    true
  end
  else if
    (* Duplicate ack (RFC 5681 §2): same ack, data in flight, and no
       payload — data segments of the reverse stream must not count, or
       bidirectional traffic fakes losses. *)
    ack = s.snd_una && s.head != s.unsent && (not th.Net.Tcp_wire.syn)
    && (not th.Net.Tcp_wire.fin) && payload_len = 0
  then begin
    s.dupacks <- s.dupacks + 1;
    if s.dupacks = 3 then fast_retransmit s;
    s.dupacks = 3
  end
  else false

let rec release s =
  match s.head with
  | Seg r ->
      Memory.Heap.os_decref r.buf;
      s.head <- r.next;
      release s
  | Nil ->
      s.unsent <- Nil;
      s.tail <- Nil
