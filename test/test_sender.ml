(* Tests for a connection's send side driven through its pure
   interface: pushes, acks and RTO expiries in, emitted segments out.
   No stack, no wire: each emit is recorded as (kind, offset, push id,
   payload), the offset taken from the first byte after the SYN. *)

module Sender = Tcp.Sender

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let iss = 0xFFFF_FF00 (* close to the top: offsets cross the 32-bit wrap *)
let mss = 100

type rig = {
  s : Sender.t;
  heap : Memory.Heap.t;
  clock : int ref;
  sent : (Sender.kind * int * int * string) list ref; (* newest first *)
}

let off_of seq = Tcp.Seqnum.sub seq (Tcp.Seqnum.add iss 1)
let seq_of off = Tcp.Seqnum.add iss (1 + off)

(* An established sender: our SYN acked by a SYN-ACK advertising
   [window], with SACK on or off. *)
let rig ?(sack = false) ?(window = 10_000) () =
  let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let clock = ref 0 and sent = ref [] in
  let emit kind seq push_id b off len =
    sent := (kind, off_of seq, push_id, Bytes.sub_string b off len) :: !sent
  in
  let s =
    Sender.create ~iss ~mss Tcp.Cc.Newreno ~min_rto:1_000 ~max_rto:1_000_000_000
      ~clock:(fun () -> !clock) ~emit
  in
  Sender.negotiate s ~wscale:0 ~sack;
  Sender.syn_sent s;
  let th = Net.Tcp_wire.create () in
  Net.Tcp_wire.set th ~src_port:80 ~dst_port:49152 ~seq:0 ~ack:(seq_of 0) ~syn:true
    ~ack_flag:true ~fin:false ~rst:false ~psh:false ~window;
  Sender.syn_acked s th;
  { s; heap; clock; sent }

(* Emits since the last call, oldest first. *)
let take r =
  let l = List.rev !(r.sent) in
  r.sent := [];
  l

let push r ?(push_id = 1) strings =
  let bufs = List.map (Memory.Heap.alloc_of_string r.heap) strings in
  Sender.push r.s ~mss ~push_id bufs;
  (* The app is done with its buffers: the sender's refs keep them. *)
  List.iter Memory.Heap.free bufs

(* A pure ack up to [off], with [window] and SACK blocks [sacks]
   (offset ranges), carrying [payload] bytes. *)
let ack ?(window = 10_000) ?(sacks = []) ?(payload = 0) r off =
  let th = Net.Tcp_wire.create () in
  Net.Tcp_wire.set th ~src_port:80 ~dst_port:49152 ~seq:0 ~ack:(seq_of off) ~syn:false
    ~ack_flag:true ~fin:false ~rst:false ~psh:false ~window;
  List.iteri
    (fun i (lo, hi) ->
      th.Net.Tcp_wire.sack_edges.(2 * i) <- seq_of lo;
      th.Net.Tcp_wire.sack_edges.((2 * i) + 1) <- seq_of hi)
    sacks;
  th.Net.Tcp_wire.sack_count <- List.length sacks;
  Sender.on_ack r.s th ~payload_len:payload

let kind_name = function
  | Sender.Fresh -> "fresh"
  | Sender.Retransmit -> "retransmit"
  | Sender.Hole -> "hole"
  | Sender.Fin -> "fin"

(* Emits as "kind@offset/len", with "!id" when a push completes. *)
let render l =
  List.map
    (fun (k, off, push_id, data) ->
      Printf.sprintf "%s@%d/%d%s" (kind_name k) off (String.length data)
        (if push_id >= 0 then Printf.sprintf "!%d" push_id else ""))
    l

let check_emits what expected r = Alcotest.(check (list string)) what expected (render (take r))

let test_mss_split_and_push_completion () =
  let r = rig ~window:200 () in
  let data = String.init 250 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  push r ~push_id:7 [ String.sub data 0 170; String.sub data 170 80 ];
  let first = take r in
  Alcotest.(check (list string))
    "the window takes two segments; each buffer splits at the mss"
    [ "fresh@0/100"; "fresh@100/70" ] (render first);
  check_bool "the push is not complete yet" true
    (List.for_all (fun (_, _, id, _) -> id < 0) first);
  check_bool "new data acked" true (ack r 170);
  let rest = take r in
  Alcotest.(check (list string))
    "the last segment completes the push" [ "fresh@170/80!7" ] (render rest);
  check_bool "payloads tile the pushed bytes" true
    (String.concat "" (List.map (fun (_, _, _, d) -> d) (first @ rest)) = data)

let test_ack_retires_and_drops_refs () =
  let r = rig () in
  push r [ String.make 100 'a' ];
  push r [ String.make 100 'b' ];
  ignore (take r);
  check_int "both freed buffers held by the sender" 2 (Memory.Heap.live_objects r.heap);
  ignore (ack r 100 : bool);
  check_int "the acked segment's buffer is released" 1 (Memory.Heap.live_objects r.heap);
  ignore (ack r 200 : bool);
  check_int "0 live objects once everything is acked" 0 (Memory.Heap.live_objects r.heap);
  check_int "nothing in flight" 0 (Sender.bytes_in_flight r.s);
  check_bool "no RTO needed" false (Sender.needs_rto r.s)

let test_karn () =
  let r = rig () in
  push r [ String.make 100 'k' ];
  r.clock := 5_000;
  Sender.on_rto r.s;
  check_emits "the RTO resends the segment" [ "fresh@0/100!1"; "retransmit@0/100" ] r;
  r.clock := 5_400;
  ignore (ack r 100 : bool);
  Alcotest.(check (option int)) "no RTT sample from a resent segment" None (Sender.srtt r.s);
  push r [ String.make 100 'l' ];
  r.clock := 5_700;
  ignore (ack r 200 : bool);
  Alcotest.(check (option int)) "a segment sent once gives one" (Some 300) (Sender.srtt r.s)

(* Five segments in flight; the peer's dup acks for offset 0. *)
let five_in_flight ?sack () =
  let r = rig ?sack () in
  push r [ String.make 500 'd' ];
  ignore (take r);
  r

let test_three_dupacks_sack_off () =
  let r = five_in_flight () in
  check_bool "first dup ack" false (ack r 0);
  check_bool "second dup ack" false (ack r 0);
  check_emits "nothing resent before the third" [] r;
  check_bool "third dup ack: re-arm the RTO" true (ack r 0);
  check_emits "the head is resent once" [ "retransmit@0/100" ] r;
  check_bool "fourth dup ack" false (ack r 0);
  check_emits "and only once" [] r;
  check_int "one retransmission" 1 (Sender.retransmits r.s)

let test_three_dupacks_sack_on () =
  let r = five_in_flight ~sack:true () in
  let sacks = [ (200, 300); (400, 500) ] in
  for _ = 1 to 3 do
    ignore (ack ~sacks r 0 : bool)
  done;
  check_emits "every unSACKed segment below the highest SACK"
    [ "hole@0/100"; "hole@100/100"; "hole@300/100" ] r

let test_payload_is_not_a_dupack () =
  let r = five_in_flight () in
  for _ = 1 to 3 do
    check_bool "a data segment with the same ack" false (ack ~payload:10 r 0)
  done;
  check_emits "reverse-stream data fakes no loss" [] r;
  ignore (ack r 0 : bool);
  ignore (ack r 0 : bool);
  check_emits "two pure dup acks are not three" [] r;
  check_bool "the third pure one is" true (ack r 0);
  check_emits "the head is resent" [ "retransmit@0/100" ] r

let test_rto_resends_first_unsacked () =
  let r = rig ~sack:true () in
  push r [ String.make 300 'r' ];
  ignore (take r);
  (* A SACK block over the head, as a receiver's report may lag. *)
  ignore (ack ~sacks:[ (0, 100) ] r 0 : bool);
  let rto = Sender.rto r.s in
  Sender.on_rto r.s;
  check_emits "the first unSACKed segment only" [ "retransmit@100/100" ] r;
  check_int "the window collapses to one segment" mss (Sender.cwnd r.s);
  check_int "the timeout backs off" (2 * rto) (Sender.rto r.s)

let test_zero_window_probe () =
  let r = rig ~window:100 () in
  push r [ String.make 300 'z' ];
  check_emits "the window takes one segment" [ "fresh@0/100" ] r;
  check_bool "acked, and the window closes" true (ack ~window:0 r 100);
  check_emits "nothing leaves into a zero window" [] r;
  check_bool "queued data behind a zero window needs the RTO" true (Sender.needs_rto r.s);
  Sender.on_rto r.s;
  check_emits "the probe is the next unsent segment" [ "fresh@100/100" ] r;
  check_int "and it is in flight" 100 (Sender.bytes_in_flight r.s);
  ignore (ack ~window:0 r 200 : bool);
  Sender.on_rto r.s;
  check_emits "the last probe completes the push" [ "fresh@200/100!1" ] r;
  check_bool "the window opens" true (ack r 300);
  check_bool "nothing left to guard" false (Sender.needs_rto r.s)

let test_fin_after_data () =
  let r = rig ~window:100 () in
  push r [ String.make 200 'f' ];
  Sender.close r.s;
  check_emits "the FIN waits for the queued bytes" [ "fresh@0/100" ] r;
  ignore (ack r 100 : bool);
  check_emits "then follows them" [ "fresh@100/100!1"; "fin@200/0" ] r;
  ignore (ack r 200 : bool);
  check_bool "unacked FIN" false (Sender.fin_acked r.s);
  Sender.on_rto r.s;
  check_emits "the RTO resends the FIN" [ "fin@200/0" ] r;
  ignore (ack r 201 : bool);
  check_bool "FIN acked" true (Sender.fin_acked r.s);
  check_bool "nothing left to guard" false (Sender.needs_rto r.s)

let suite =
  [
    Alcotest.test_case "mss split, push completes with its last segment" `Quick
      test_mss_split_and_push_completion;
    Alcotest.test_case "cumulative ack retires segments and their refs" `Quick
      test_ack_retires_and_drops_refs;
    Alcotest.test_case "karn: no rtt sample from a resent segment" `Quick test_karn;
    Alcotest.test_case "three dup acks, sack off: the head once" `Quick
      test_three_dupacks_sack_off;
    Alcotest.test_case "three dup acks, sack on: every hole" `Quick test_three_dupacks_sack_on;
    Alcotest.test_case "a segment with payload is not a dup ack" `Quick
      test_payload_is_not_a_dupack;
    Alcotest.test_case "rto resends the first unsacked segment" `Quick
      test_rto_resends_first_unsacked;
    Alcotest.test_case "zero-window probe" `Quick test_zero_window_probe;
    Alcotest.test_case "fin after the queued bytes, resent by rto" `Quick test_fin_after_data;
  ]
