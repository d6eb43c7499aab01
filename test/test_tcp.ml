(* Tests for the deterministic TCP/UDP stack: sequence arithmetic, RTO
   estimation, congestion control, reassembly, and full two-stack
   conversations with injected loss and reordering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Seqnum --- *)

let test_seqnum_wrap () =
  let near_top = 0xFFFF_FFF0 in
  let wrapped = Tcp.Seqnum.add near_top 0x20 in
  check_int "wraps" 0x10 wrapped;
  check_bool "wrapped is ahead" true (Tcp.Seqnum.lt near_top wrapped);
  check_int "distance across wrap" 0x20 (Tcp.Seqnum.sub wrapped near_top)

let seqnum_add_sub =
  QCheck.Test.make ~name:"seqnum sub inverts add" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_bound 0x7FFFFFF))
    (fun (base, delta) -> Tcp.Seqnum.sub (Tcp.Seqnum.add base delta) base = delta)

let test_seqnum_window () =
  check_bool "in window" true (Tcp.Seqnum.in_window 105 ~base:100 ~size:10);
  check_bool "below" false (Tcp.Seqnum.in_window 99 ~base:100 ~size:10);
  check_bool "at end" false (Tcp.Seqnum.in_window 110 ~base:100 ~size:10);
  check_bool "window across wrap" true
    (Tcp.Seqnum.in_window 5 ~base:0xFFFF_FFF0 ~size:0x40)

(* --- Rto --- *)

let test_rto_first_sample () =
  let r = Tcp.Rto.create ~min_rto:1000 ~max_rto:1_000_000_000 () in
  Tcp.Rto.observe r 10_000;
  Alcotest.(check (option int)) "srtt = first sample" (Some 10_000) (Tcp.Rto.srtt r);
  (* RTO = SRTT + 4*RTTVAR = 10000 + 4*5000 = 30000. *)
  check_int "rto" 30_000 (Tcp.Rto.rto r)

let test_rto_smoothing () =
  let r = Tcp.Rto.create ~min_rto:1 ~max_rto:1_000_000_000 () in
  Tcp.Rto.observe r 8_000;
  List.iter (fun _ -> Tcp.Rto.observe r 8_000) (List.init 20 Fun.id);
  (match Tcp.Rto.srtt r with
  | Some srtt -> check_bool "converges to sample" true (abs (srtt - 8_000) < 200)
  | None -> Alcotest.fail "no srtt");
  check_bool "rto approaches srtt with low variance" true (Tcp.Rto.rto r < 12_000)

let test_rto_backoff () =
  let r = Tcp.Rto.create ~min_rto:1000 ~max_rto:64_000 () in
  Tcp.Rto.observe r 2_000;
  let base = Tcp.Rto.rto r in
  Tcp.Rto.backoff r;
  check_int "doubles" (2 * base) (Tcp.Rto.rto r);
  Tcp.Rto.backoff r;
  check_int "doubles again" (4 * base) (Tcp.Rto.rto r);
  Tcp.Rto.reset_backoff r;
  check_int "reset" base (Tcp.Rto.rto r);
  (* Ceiling. *)
  List.iter (fun _ -> Tcp.Rto.backoff r) (List.init 30 Fun.id);
  check_int "capped" 64_000 (Tcp.Rto.rto r)

(* --- Cc --- *)

let test_cc_slow_start () =
  let cc = Tcp.Cc.create Tcp.Cc.Newreno ~mss:1000 ~now:0 in
  let w0 = Tcp.Cc.cwnd cc in
  check_int "IW10" 10_000 w0;
  Tcp.Cc.on_ack cc ~acked:5000 ~now:1000;
  check_int "slow start grows by acked" (w0 + 5000) (Tcp.Cc.cwnd cc);
  check_bool "in slow start" true (Tcp.Cc.in_slow_start cc)

let test_cc_fast_retransmit_halves () =
  let cc = Tcp.Cc.create Tcp.Cc.Newreno ~mss:1000 ~now:0 in
  Tcp.Cc.on_ack cc ~acked:50_000 ~now:1000;
  let before = Tcp.Cc.cwnd cc in
  Tcp.Cc.on_fast_retransmit cc ~now:2000;
  check_int "halved" (before / 2) (Tcp.Cc.cwnd cc);
  check_bool "out of slow start" false (Tcp.Cc.in_slow_start cc)

let test_cc_timeout_collapses () =
  let cc = Tcp.Cc.create Tcp.Cc.Cubic ~mss:1000 ~now:0 in
  Tcp.Cc.on_ack cc ~acked:100_000 ~now:1000;
  Tcp.Cc.on_timeout cc ~now:2000;
  check_int "one mss" 1000 (Tcp.Cc.cwnd cc)

let test_cubic_growth () =
  let cc = Tcp.Cc.create Tcp.Cc.Cubic ~mss:1000 ~now:0 in
  (* Leave slow start via a loss, then grow along the cubic curve. *)
  Tcp.Cc.on_ack cc ~acked:90_000 ~now:0;
  Tcp.Cc.on_fast_retransmit cc ~now:0;
  let after_loss = Tcp.Cc.cwnd cc in
  let now = ref 0 in
  for _ = 1 to 2000 do
    now := !now + 100_000 (* 100us per ack *);
    Tcp.Cc.on_ack cc ~acked:1000 ~now:!now
  done;
  check_bool "recovers beyond w_max eventually" true (Tcp.Cc.cwnd cc > after_loss);
  check_bool "does not explode instantly" true (Tcp.Cc.cwnd cc < 100 * 90_000)

let test_cc_none_unbounded () =
  let cc = Tcp.Cc.create Tcp.Cc.None_cc ~mss:1000 ~now:0 in
  Tcp.Cc.on_timeout cc ~now:0;
  check_bool "effectively unbounded" true (Tcp.Cc.cwnd cc > 1 lsl 40)

(* --- Reassembly --- *)

let test_reasm_in_order () =
  let r = Tcp.Reassembly.create ~rcv_nxt:100 ~capacity:1024 in
  Tcp.Reassembly.insert r ~seq:100 "abc";
  Alcotest.(check (option string)) "ready" (Some "abc") (Tcp.Reassembly.pop_ready r);
  check_int "rcv_nxt advanced" 103 (Tcp.Reassembly.rcv_nxt r);
  Alcotest.(check (option string)) "drained" None (Tcp.Reassembly.pop_ready r)

let test_reasm_gap () =
  let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:1024 in
  Tcp.Reassembly.insert r ~seq:5 "fghij";
  Alcotest.(check (option string)) "hole blocks" None (Tcp.Reassembly.pop_ready r);
  check_int "buffered" 5 (Tcp.Reassembly.buffered_bytes r);
  Tcp.Reassembly.insert r ~seq:0 "abcde";
  Alcotest.(check (option string)) "first" (Some "abcde") (Tcp.Reassembly.pop_ready r);
  Alcotest.(check (option string)) "second" (Some "fghij") (Tcp.Reassembly.pop_ready r)

let test_reasm_duplicate () =
  let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:1024 in
  Tcp.Reassembly.insert r ~seq:0 "abc";
  ignore (Tcp.Reassembly.pop_ready r);
  Tcp.Reassembly.insert r ~seq:0 "abc" (* full retransmission *);
  Alcotest.(check (option string)) "no duplicate delivery" None (Tcp.Reassembly.pop_ready r)

let test_reasm_overlap () =
  let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:1024 in
  Tcp.Reassembly.insert r ~seq:2 "cde";
  Tcp.Reassembly.insert r ~seq:0 "abcd" (* overlaps the tail *);
  let rec drain acc =
    match Tcp.Reassembly.pop_ready r with Some s -> drain (acc ^ s) | None -> acc
  in
  Alcotest.(check string) "merged once" "abcde" (drain "")

let reasm_permutation =
  QCheck.Test.make ~name:"reassembly handles any arrival order" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) (int_bound 1000))
    (fun (data, salt) ->
      let chunk = 7 in
      let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:4096 in
      let pieces = ref [] in
      let n = String.length data in
      let rec cut off =
        if off < n then begin
          let len = min chunk (n - off) in
          pieces := (off, String.sub data off len) :: !pieces;
          cut (off + len)
        end
      in
      cut 0;
      (* Deterministic pseudo-shuffle driven by the salt. *)
      let arr = Array.of_list !pieces in
      let g = Engine.Prng.create (Int64.of_int salt) in
      for i = Array.length arr - 1 downto 1 do
        let j = Engine.Prng.int g (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      Array.iter (fun (seq, s) -> Tcp.Reassembly.insert r ~seq s) arr;
      let rec drain acc =
        match Tcp.Reassembly.pop_ready r with Some s -> drain (acc ^ s) | None -> acc
      in
      drain "" = data)

(* --- Two-stack harness ---

   Deterministic mini-world: two stacks joined by a delayed frame queue,
   with a manual clock and per-frame drop/delay hooks. This is exactly
   the "feed the stack a trace" debugging workflow §6.3 describes. *)

module Pair = struct
  type side = A | B

  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable in_flight : (int * int * side * string) list; (* arrival, seq, dest, frame *)
    latency : int;
    mutable drop : side -> string -> bool; (* drop frames heading to [side]? *)
    mutable a : Tcp.Stack.t;
    mutable b : Tcp.Stack.t;
    heap_a : Memory.Heap.t;
    heap_b : Memory.Heap.t;
    mutable events : (int * string) list; (* reverse order *)
  }

  let describe_event = function
    | Tcp.Stack.Udp_readable s -> Printf.sprintf "udp_readable:%d" (Tcp.Stack.udp_socket_port s)
    | Tcp.Stack.Accept_ready l -> Printf.sprintf "accept_ready:%d" (Tcp.Stack.listener_port l)
    | Tcp.Stack.Established _ -> "established"
    | Tcp.Stack.Readable _ -> "readable"
    | Tcp.Stack.Push_completed (_, id) -> Printf.sprintf "push_completed:%d" id
    | Tcp.Stack.Closed c -> Printf.sprintf "closed:%d" (Tcp.Stack.conn_id c)
    | Tcp.Stack.Reset _ -> "reset"

  let make ?(latency = 2_000) ?(config = Tcp.Stack.default_config) () =
    let heap_a = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let heap_b = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let rec t =
      lazy
        (let clock () = (Lazy.force t).clock in
         let send dest frame =
           let p = Lazy.force t in
           if not (p.drop dest frame) then begin
             p.seq <- p.seq + 1;
             p.in_flight <- (p.clock + p.latency, p.seq, dest, frame) :: p.in_flight
           end
         in
         let record side e =
           let p = Lazy.force t in
           p.events <- (p.clock, side ^ ":" ^ describe_event e) :: p.events
         in
         let iface_a =
           Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1) ~clock
             ~tx_frame:(fun f -> send B f) ()
         in
         let iface_b =
           Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 2) ~ip:(Net.Addr.Ip.of_index 2) ~clock
             ~tx_frame:(fun f -> send A f) ()
         in
         let a =
           Tcp.Stack.create ~config ~iface:iface_a ~heap:heap_a
             ~prng:(Engine.Prng.create 11L) ~events:(record "a") ()
         in
         let b =
           Tcp.Stack.create ~config ~iface:iface_b ~heap:heap_b
             ~prng:(Engine.Prng.create 22L) ~events:(record "b") ()
         in
         {
           clock = 0;
           seq = 0;
           in_flight = [];
           latency;
           drop = (fun _ _ -> false);
           a;
           b;
           heap_a;
           heap_b;
           events = [];
         })
    in
    Lazy.force t

  let stack t side = match side with A -> t.a | B -> t.b
  let heap t side = match side with A -> t.heap_a | B -> t.heap_b

  (* Advance the world until [horizon] or until fully quiet. *)
  let run ?(horizon = 10_000_000_000) t =
    let next_event () =
      let frame_time =
        List.fold_left (fun acc (at, _, _, _) -> min acc at) max_int t.in_flight
      in
      let timer_time =
        List.fold_left
          (fun acc d -> match d with Some d -> min acc d | None -> acc)
          max_int
          [ Tcp.Stack.next_timer t.a; Tcp.Stack.next_timer t.b ]
      in
      min frame_time timer_time
    in
    let rec step guard =
      if guard = 0 then failwith "Pair.run: no quiescence";
      let at = next_event () in
      if at = max_int || at > horizon then ()
      else begin
        t.clock <- max t.clock at;
        let due, rest = List.partition (fun (a, _, _, _) -> a <= t.clock) t.in_flight in
        t.in_flight <- rest;
        let due = List.sort (fun (a1, s1, _, _) (a2, s2, _, _) -> compare (a1, s1) (a2, s2)) due in
        List.iter (fun (_, _, dest, frame) -> Tcp.Stack.input (stack t dest) frame) due;
        Tcp.Stack.on_timer t.a;
        Tcp.Stack.on_timer t.b;
        step (guard - 1)
      end
    in
    step 1_000_000

  (* Handshake helper: B listens, A connects; returns both conns. *)
  let connect t ~port =
    let listener = Tcp.Stack.tcp_listen t.b ~port in
    let ca = Tcp.Stack.tcp_connect t.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) port) in
    run t;
    let cb =
      match Tcp.Stack.tcp_accept listener with
      | Some c -> c
      | None -> Alcotest.fail "no accepted connection"
    in
    (ca, cb)

  let send_string t side conn s =
    let buf = Memory.Heap.alloc_of_string (heap t side) s in
    Tcp.Stack.tcp_send conn [ buf ];
    buf

  let recv_all conn =
    let rec go acc =
      match Tcp.Stack.tcp_recv conn with
      | `Data buf ->
          let s = Memory.Heap.to_string buf in
          Memory.Heap.free buf;
          go (acc ^ s)
      | `Eof | `Nothing -> acc
    in
    go ""
end

let test_handshake () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  check_bool "a established" true (Tcp.Stack.conn_state ca = Tcp.Stack.Established_st);
  check_bool "b established" true (Tcp.Stack.conn_state cb = Tcp.Stack.Established_st);
  check_int "a remote port" 7 (Tcp.Stack.conn_remote ca).Net.Addr.port

let test_data_transfer () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  let buf = Pair.send_string p Pair.A ca "hello, microsecond world" in
  Pair.run p;
  Alcotest.(check string) "delivered" "hello, microsecond world" (Pair.recv_all cb);
  (* After the ack, the stack's references are gone; the app free
     recycles the slot. *)
  check_int "stack released refs" 0 (Memory.Heap.os_refs buf);
  Memory.Heap.free buf;
  check_bool "slot recycled" false (Memory.Heap.is_slot_live buf)

let test_bidirectional () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  ignore (Pair.send_string p Pair.A ca "ping");
  Pair.run p;
  Alcotest.(check string) "a->b" "ping" (Pair.recv_all cb);
  ignore (Pair.send_string p Pair.B cb "pong");
  Pair.run p;
  Alcotest.(check string) "b->a" "pong" (Pair.recv_all ca)

let test_large_transfer () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  (* 100 kB across many MSS-sized segments and several pushes. *)
  let chunk = String.init 10_000 (fun i -> Char.chr (((i * 7) + (i / 256)) land 0xff)) in
  let bufs = List.init 10 (fun _ -> Pair.send_string p Pair.A ca chunk) in
  Pair.run p;
  let got = Pair.recv_all cb in
  check_int "all bytes" 100_000 (String.length got);
  let expect = String.concat "" (List.init 10 (fun _ -> chunk)) in
  check_bool "content exact" true (String.equal got expect);
  List.iter Memory.Heap.free bufs

let test_push_completion_event () =
  let p = Pair.make () in
  let ca, _cb = Pair.connect p ~port:7 in
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a "payload" in
  Tcp.Stack.tcp_send ca ~push_id:42 [ buf ];
  Pair.run p;
  let seen =
    List.exists (fun (_, e) -> e = "a:push_completed:42") p.Pair.events
  in
  check_bool "push completion event" true seen

let test_retransmit_on_loss () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  (* Drop the next data-bearing frame towards B, once. *)
  let dropped = ref false in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && (not !dropped) && String.length frame > 80 then begin
        dropped := true;
        true
      end
      else false);
  ignore (Pair.send_string p Pair.A ca "retransmit me please, network");
  Pair.run p;
  check_bool "frame was dropped" true !dropped;
  Alcotest.(check string) "delivered despite loss" "retransmit me please, network"
    (Pair.recv_all cb);
  check_bool "sender retransmitted" true (Tcp.Stack.conn_retransmits ca > 0)

let test_lost_ack_no_duplicate () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  (* Drop the first pure-ack frame towards A after data flows. *)
  let dropped = ref false in
  p.Pair.drop <-
    (fun side _frame ->
      if side = Pair.A && not !dropped then begin
        dropped := true;
        true
      end
      else false);
  ignore (Pair.send_string p Pair.A ca "exactly once");
  Pair.run p;
  Alcotest.(check string) "delivered exactly once" "exactly once" (Pair.recv_all cb);
  check_bool "nothing more" true (Pair.recv_all cb = "")

let test_fast_retransmit () =
  let config = { Tcp.Stack.default_config with min_rto_ns = 1_000_000_000 } in
  (* RTO floor of 1s: only fast retransmit can recover quickly. *)
  let p = Pair.make ~config () in
  let ca, cb = Pair.connect p ~port:7 in
  let chunk = String.make 1460 'x' in
  (* Drop exactly one mid-stream data segment. *)
  let count = ref 0 in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && String.length frame > 1000 then begin
        incr count;
        !count = 2
      end
      else false);
  let bufs = List.init 8 (fun _ -> Pair.send_string p Pair.A ca chunk) in
  Pair.run p ~horizon:500_000_000;
  check_int "all delivered" (8 * 1460) (String.length (Pair.recv_all cb));
  check_bool "recovered via fast retransmit (well before the 1s RTO)" true
    (p.Pair.clock < 500_000_000);
  check_bool "sender recorded retransmit" true (Tcp.Stack.conn_retransmits ca > 0);
  List.iter Memory.Heap.free bufs

let test_uaf_protection_on_retransmit () =
  (* The flagship §5.3 scenario: the app frees its buffer immediately
     after push; the first transmission is lost; the retransmission must
     still carry the original bytes because the stack's reference kept
     the slot alive. *)
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  let dropped = ref false in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && (not !dropped) && String.length frame > 80 then begin
        dropped := true;
        true
      end
      else false);
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a "guarded by refcounts" in
  Tcp.Stack.tcp_send ca [ buf ];
  Memory.Heap.free buf (* app frees immediately — would be UAF under malloc *);
  check_bool "slot survives app free" true (Memory.Heap.is_slot_live buf);
  (* A fresh allocation must not reuse the protected slot. *)
  let other = Memory.Heap.alloc p.Pair.heap_a 64 in
  check_bool "no slot reuse while in flight" true
    (Memory.Heap.offset other <> Memory.Heap.offset buf
    || not (Memory.Heap.is_slot_live buf));
  Pair.run p;
  Alcotest.(check string) "retransmission delivered original bytes" "guarded by refcounts"
    (Pair.recv_all cb);
  check_bool "slot finally recycled after ack" false (Memory.Heap.is_slot_live buf);
  check_bool "uaf protection recorded" true
    ((Memory.Heap.stats p.Pair.heap_a).Memory.Heap.uaf_protected >= 1)

let test_syn_loss_recovery () =
  let p = Pair.make () in
  let dropped = ref false in
  p.Pair.drop <-
    (fun side _ ->
      if side = Pair.B && not !dropped then begin
        dropped := true;
        true
      end
      else false);
  let listener = Tcp.Stack.tcp_listen p.Pair.b ~port:9 in
  let ca = Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9) in
  Pair.run p;
  check_bool "established after SYN retry" true
    (Tcp.Stack.conn_state ca = Tcp.Stack.Established_st);
  check_bool "accepted" true (Tcp.Stack.tcp_accept listener <> None)

let test_graceful_close () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  ignore (Pair.send_string p Pair.A ca "bye");
  Pair.run p;
  ignore (Pair.recv_all cb);
  Tcp.Stack.tcp_close ca;
  Pair.run p;
  check_bool "peer sees EOF" true (Tcp.Stack.tcp_recv cb = `Eof);
  Tcp.Stack.tcp_close cb;
  Pair.run p;
  check_bool "initiator reaches closed after TIME_WAIT" true
    (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st);
  check_bool "responder closed" true (Tcp.Stack.conn_state cb = Tcp.Stack.Closed_st);
  check_int "no live connections on a" 0 (Tcp.Stack.live_connections p.Pair.a);
  check_int "no live connections on b" 0 (Tcp.Stack.live_connections p.Pair.b)

let test_abort_resets_peer () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  Tcp.Stack.tcp_abort ca;
  Pair.run p;
  check_bool "peer reset" true (Tcp.Stack.conn_state cb = Tcp.Stack.Closed_st);
  let seen = List.exists (fun (_, e) -> e = "b:reset") p.Pair.events in
  check_bool "reset event" true seen

let test_connect_refused () =
  let p = Pair.make () in
  let ca = Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 81) in
  Pair.run p;
  check_bool "closed by RST" true (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st)

let test_flow_control_small_window () =
  (* Receiver with a tiny window: sender must stall and resume as the
     application drains — exercising window updates end to end. *)
  let config = { Tcp.Stack.default_config with rwnd_capacity = 4096; window_scale = 0 } in
  let p = Pair.make ~config () in
  let ca, cb = Pair.connect p ~port:7 in
  let data = String.init 40_000 (fun i -> Char.chr (i land 0xff)) in
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a data in
  Tcp.Stack.tcp_send ca [ buf ];
  (* Drain slowly: run, read a bit, repeat. *)
  let got = Buffer.create 40_000 in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "flow control deadlock";
    Pair.run p;
    let s = Pair.recv_all cb in
    Buffer.add_string got s;
    if Buffer.length got < 40_000 then pump (guard - 1)
  in
  pump 1000;
  check_bool "all data through a 4kB window" true (String.equal (Buffer.contents got) data);
  Memory.Heap.free buf

let test_reordering_via_latency () =
  (* Deliver one frame late by juggling the queue: drop and re-send is
     covered; here we use the drop hook to delay instead. *)
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  let held = ref None in
  let count = ref 0 in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && String.length frame > 1000 then begin
        incr count;
        if !count = 1 then begin
          held := Some frame;
          true
        end
        else false
      end
      else false);
  let chunk = String.make 1460 'y' in
  let b1 = Pair.send_string p Pair.A ca chunk in
  let b2 = Pair.send_string p Pair.A ca chunk in
  (* Release the held frame after the second one is in flight: arrives
     out of order. *)
  (match !held with
  | Some frame ->
      p.Pair.drop <- (fun _ _ -> false);
      p.Pair.seq <- p.Pair.seq + 1;
      p.Pair.in_flight <-
        (p.Pair.clock + 8_000, p.Pair.seq, Pair.B, frame) :: p.Pair.in_flight
  | None -> ());
  Pair.run p;
  check_int "reassembled in order" (2 * 1460) (String.length (Pair.recv_all cb));
  List.iter Memory.Heap.free [ b1; b2 ]

(* --- SACK (RFC 2018) --- *)

let test_reassembly_ranges () =
  let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:4096 in
  Tcp.Reassembly.insert r ~seq:10 "aaaaa";
  Tcp.Reassembly.insert r ~seq:15 "bbbbb" (* contiguous: coalesces *);
  Tcp.Reassembly.insert r ~seq:30 "ccccc";
  Alcotest.(check (list (pair int int))) "coalesced ranges" [ (10, 20); (30, 35) ]
    (Tcp.Reassembly.ranges r)

let reasm_ranges_cover_buffered =
  QCheck.Test.make ~name:"reassembly ranges cover exactly the buffered bytes" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_bound 300))
    (fun seqs ->
      let r = Tcp.Reassembly.create ~rcv_nxt:0 ~capacity:100_000 in
      List.iter (fun seq -> Tcp.Reassembly.insert r ~seq:(seq + 1) "xxxxx") seqs;
      let covered =
        List.fold_left (fun n (l, rr) -> n + Tcp.Seqnum.sub rr l) 0 (Tcp.Reassembly.ranges r)
      in
      covered = Tcp.Reassembly.buffered_bytes r)

(* Drop several data segments out of a large burst and count the
   retransmissions needed to finish; selective acks must recover with
   no more retransmissions than holes, while cumulative-only recovery
   re-sends delivered data too. *)
let retransmits_with_sack use_sack =
  let config =
    { Tcp.Stack.default_config with Tcp.Stack.use_sack; min_rto_ns = 4_000_000 }
  in
  let p = Pair.make ~config () in
  let ca, cb = Pair.connect p ~port:7 in
  let dropped = ref 0 in
  let count = ref 0 in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && String.length frame > 1000 then begin
        incr count;
        (* lose the 3rd, 7th and 11th data segments *)
        if !count = 3 || !count = 7 || !count = 11 then begin
          incr dropped;
          true
        end
        else false
      end
      else false);
  let chunk = String.make 1460 'z' in
  let bufs = List.init 16 (fun _ -> Pair.send_string p Pair.A ca chunk) in
  Pair.run p ~horizon:2_000_000_000;
  let got = Pair.recv_all cb in
  Alcotest.(check int) "all bytes delivered" (16 * 1460) (String.length got);
  Alcotest.(check int) "three drops injected" 3 !dropped;
  List.iter Memory.Heap.free bufs;
  Tcp.Stack.conn_retransmits ca

let test_sack_retransmits_only_holes () =
  let with_sack = retransmits_with_sack true in
  let without = retransmits_with_sack false in
  check_bool
    (Printf.sprintf "sack (%d retx) <= without (%d retx)" with_sack without)
    true
    (with_sack <= without);
  (* With SACK, recovery needs roughly one retransmission per hole. *)
  check_bool (Printf.sprintf "sack retx (%d) close to hole count" with_sack) true
    (with_sack <= 6)

let test_sack_negotiated_only_when_both_sides_offer () =
  let config = { Tcp.Stack.default_config with Tcp.Stack.use_sack = false } in
  let p = Pair.make ~config () in
  let ca, cb = Pair.connect p ~port:7 in
  (* No SACK: traffic still flows and recovers from loss. *)
  let dropped = ref false in
  p.Pair.drop <-
    (fun side frame ->
      if side = Pair.B && (not !dropped) && String.length frame > 1000 then begin
        dropped := true;
        true
      end
      else false);
  let chunk = String.make 1460 'q' in
  let bufs = List.init 4 (fun _ -> Pair.send_string p Pair.A ca chunk) in
  Pair.run p;
  Alcotest.(check int) "delivered" (4 * 1460) (String.length (Pair.recv_all cb));
  List.iter Memory.Heap.free bufs;
  ignore ca

(* Chaos test: random loss, duplication and extra delay applied to every
   frame; the byte stream must still arrive exactly once, in order. *)
let tcp_chaos =
  QCheck.Test.make ~name:"tcp survives random loss+dup+reorder" ~count:25
    QCheck.(int_bound 10_000)
    (fun salt ->
      let p = Pair.make () in
      let prng = Engine.Prng.create (Int64.of_int (salt + 1)) in
      p.Pair.drop <-
        (fun side frame ->
          ignore side;
          let roll = Engine.Prng.float prng in
          if roll < 0.05 then true (* lose *)
          else begin
            if roll < 0.10 then begin
              (* duplicate: inject a second copy with extra delay *)
              p.Pair.seq <- p.Pair.seq + 1;
              p.Pair.in_flight <-
                (p.Pair.clock + 9_000, p.Pair.seq, side, frame) :: p.Pair.in_flight
            end
            else if roll < 0.20 then begin
              (* reorder: inject a delayed copy and drop the prompt one *)
              p.Pair.seq <- p.Pair.seq + 1;
              p.Pair.in_flight <-
                (p.Pair.clock + 7_000, p.Pair.seq, side, frame) :: p.Pair.in_flight
            end;
            roll >= 0.10 && roll < 0.20
          end);
      let ca, cb = Pair.connect p ~port:7 in
      let data = String.init 20_000 (fun i -> Char.chr ((i * 31) land 0xff)) in
      let buf = Memory.Heap.alloc_of_string p.Pair.heap_a data in
      Tcp.Stack.tcp_send ca [ buf ];
      let collected = Buffer.create 20_000 in
      let rec pump guard =
        if guard = 0 then false
        else begin
          Pair.run p ~horizon:20_000_000_000;
          Buffer.add_string collected (Pair.recv_all cb);
          if Buffer.length collected < 20_000 then pump (guard - 1) else true
        end
      in
      let finished = pump 50 in
      Memory.Heap.free buf;
      finished && String.equal (Buffer.contents collected) data)

let test_udp_roundtrip () =
  let p = Pair.make () in
  let sa = Tcp.Stack.udp_bind p.Pair.a ~port:53 in
  let sb = Tcp.Stack.udp_bind p.Pair.b ~port:54 in
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a "udp datagram" in
  Tcp.Stack.udp_sendto p.Pair.a sa ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 54) buf;
  Memory.Heap.free buf (* UDP sends complete inline *);
  Pair.run p;
  (match Tcp.Stack.udp_recv sb with
  | Some (from, data) ->
      Alcotest.(check string) "payload" "udp datagram" (Memory.Heap.to_string data);
      check_int "source port" 53 from.Net.Addr.port;
      Memory.Heap.free data
  | None -> Alcotest.fail "no datagram");
  check_bool "empty after" true (Tcp.Stack.udp_recv sb = None)

let test_udp_unknown_port_dropped () =
  let p = Pair.make () in
  let sa = Tcp.Stack.udp_bind p.Pair.a ~port:53 in
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a "nobody home" in
  Tcp.Stack.udp_sendto p.Pair.a sa ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9999) buf;
  Memory.Heap.free buf;
  Pair.run p (* must not raise *)

let test_determinism () =
  let scenario () =
    let p = Pair.make () in
    let ca, cb = Pair.connect p ~port:7 in
    ignore (Pair.send_string p Pair.A ca "deterministic");
    Pair.run p;
    ignore (Pair.recv_all cb);
    Tcp.Stack.tcp_close ca;
    Tcp.Stack.tcp_close cb;
    Pair.run p;
    (p.Pair.clock, List.rev p.Pair.events)
  in
  let c1, e1 = scenario () in
  let c2, e2 = scenario () in
  check_int "same final clock" c1 c2;
  check_bool "same event trace" true (e1 = e2)

let test_options_negotiated () =
  let p = Pair.make () in
  let ca, _ = Pair.connect p ~port:7 in
  ignore (Pair.send_string p Pair.A ca "x");
  Pair.run p;
  (* SRTT exists after one acked exchange and is near 2*latency + stack
     turnaround. *)
  match Tcp.Stack.conn_srtt ca with
  | Some srtt -> check_bool "rtt measured" true (srtt >= 2 * 2_000)
  | None -> Alcotest.fail "no rtt sample"

(* --- timer-wheel semantics at the stack level (PR 3) --- *)

let test_rto_backoff_rearm () =
  let p = Pair.make () in
  let ca, _cb = Pair.connect p ~port:7 in
  (* Black-hole every data-bearing frame towards B: only the RTO can
     drive progress, and each firing must re-arm with a longer timeout. *)
  p.Pair.drop <- (fun side frame -> side = Pair.B && String.length frame > 80);
  ignore (Pair.send_string p Pair.A ca (String.make 200 'v'));
  (* Backed-off firings land near rto, 3*rto, 7*rto, ... *)
  Pair.run p ~horizon:65_000_000;
  check_bool "multiple RTO firings" true (Tcp.Stack.conn_retransmits ca >= 3);
  check_bool "still established" true (Tcp.Stack.conn_state ca = Tcp.Stack.Established_st);
  (match Tcp.Stack.next_timer p.Pair.a with
  | Some d ->
      check_bool "re-armed after each fire, with backoff" true
        (d > p.Pair.clock
        && d - p.Pair.clock >= 2 * Tcp.Stack.(default_config.min_rto_ns))
  | None -> Alcotest.fail "RTO not re-armed after firing")

let test_syn_retry_cap_resets () =
  let p = Pair.make () in
  (* Nothing ever reaches B: the SYN must back off and eventually give up. *)
  p.Pair.drop <- (fun side _ -> side = Pair.B);
  let ca = Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7) in
  Pair.run p;
  check_bool "gave up into Closed" true (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st);
  check_bool "reset event emitted" true
    (List.exists (fun (_, e) -> e = "a:reset") p.Pair.events);
  check_bool "wheel empty after give-up" true (Tcp.Stack.next_timer p.Pair.a = None);
  check_int "no live connections" 0 (Tcp.Stack.live_connections p.Pair.a)

let test_time_wait_shared_deadline_order () =
  (* Four connections whose TIME_WAIT deadlines coincide exactly: the
     wheel must expire them at the same virtual instant, in arming
     (= uid) order — same tie-break as the event queue. *)
  let p = Pair.make () in
  let conns = List.map (fun port -> Pair.connect p ~port) [ 7; 8; 9; 10 ] in
  List.iter (fun (ca, _) -> Tcp.Stack.tcp_close ca) conns;
  Pair.run p (* A sides in FIN_WAIT_2, B sides see EOF *);
  List.iter (fun (_, cb) -> Tcp.Stack.tcp_close cb) conns;
  Pair.run p;
  List.iter
    (fun (ca, cb) ->
      check_bool "a closed" true (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st);
      check_bool "b closed" true (Tcp.Stack.conn_state cb = Tcp.Stack.Closed_st))
    conns;
  let a_closed =
    List.filter_map
      (fun (at, e) ->
        if String.length e > 9 && String.sub e 0 9 = "a:closed:" then
          Some (at, int_of_string (String.sub e 9 (String.length e - 9)))
        else None)
      (List.rev p.Pair.events)
  in
  check_int "all four TIME_WAIT expiries observed" 4 (List.length a_closed);
  (match a_closed with
  | (t0, _) :: rest -> List.iter (fun (ti, _) -> check_int "shared deadline" t0 ti) rest
  | [] -> ());
  let ids = List.map snd a_closed in
  check_bool "ties fire in creation (uid) order" true (List.sort compare ids = ids)

let test_abort_cancels_timers () =
  let p = Pair.make () in
  let ca, _cb = Pair.connect p ~port:7 in
  (* Arm A's RTO by sending into a black hole, then abort: the pending
     entry must be cancelled immediately, and never fire afterwards. *)
  p.Pair.drop <- (fun side frame -> side = Pair.B && String.length frame > 80);
  ignore (Pair.send_string p Pair.A ca (String.make 200 'x'));
  check_bool "rto armed" true (Tcp.Stack.next_timer p.Pair.a <> None);
  Tcp.Stack.tcp_abort ca;
  check_bool "abort cancels the pending RTO" true (Tcp.Stack.next_timer p.Pair.a = None);
  Pair.run p (* deliver the RST to B and go quiescent *);
  let events_before = List.length p.Pair.events in
  p.Pair.clock <- p.Pair.clock + 50_000_000 (* well past the old deadline *);
  Tcp.Stack.on_timer p.Pair.a;
  Tcp.Stack.on_timer p.Pair.b;
  check_int "no stale timer fires" events_before (List.length p.Pair.events);
  check_bool "both wheels empty" true
    (Tcp.Stack.next_timer p.Pair.a = None && Tcp.Stack.next_timer p.Pair.b = None)

(* --- Conntab (flat demux table) --- *)

let test_conntab_basic () =
  let t = Tcp.Conntab.create ~initial:4 () in
  check_bool "empty miss" true (Tcp.Conntab.find t ~ka:1 ~kb:2 = None);
  Tcp.Conntab.replace t ~ka:1 ~kb:2 "a";
  Tcp.Conntab.replace t ~ka:1 ~kb:3 "b";
  check_int "length" 2 (Tcp.Conntab.length t);
  check_bool "hit a" true (Tcp.Conntab.find t ~ka:1 ~kb:2 = Some "a");
  check_bool "hit b" true (Tcp.Conntab.find t ~ka:1 ~kb:3 = Some "b");
  (* Hashtbl.replace semantics: one binding per key, overwrite wins. *)
  Tcp.Conntab.replace t ~ka:1 ~kb:2 "a2";
  check_int "overwrite keeps length" 2 (Tcp.Conntab.length t);
  check_bool "overwrite visible" true (Tcp.Conntab.find t ~ka:1 ~kb:2 = Some "a2");
  Tcp.Conntab.remove t ~ka:1 ~kb:2;
  check_bool "removed" true (Tcp.Conntab.find t ~ka:1 ~kb:2 = None);
  check_bool "other survives" true (Tcp.Conntab.find t ~ka:1 ~kb:3 = Some "b");
  Tcp.Conntab.remove t ~ka:9 ~kb:9 (* absent key: no-op *);
  check_int "final length" 1 (Tcp.Conntab.length t)

let test_conntab_fold_sorted () =
  let t = Tcp.Conntab.create () in
  List.iter
    (fun (ka, kb) -> Tcp.Conntab.replace t ~ka ~kb (ka * 100 + kb))
    [ (3, 1); (1, 2); (1, 1); (2, 9) ];
  let keys = Tcp.Conntab.fold_sorted t ~cmp:compare (fun k _ acc -> k :: acc) [] in
  check_bool "sorted key order" true
    (List.rev keys = [ (1, 1); (1, 2); (2, 9); (3, 1) ])

let conntab_matches_hashtbl =
  QCheck.Test.make ~name:"conntab mirrors Hashtbl through churn (incl. growth)" ~count:100
    QCheck.(list (triple (int_bound 15) (int_bound 15) bool))
    (fun ops ->
      let t = Tcp.Conntab.create ~initial:2 () in
      let h : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iteri
        (fun i (ka, kb, add) ->
          if add then begin
            Tcp.Conntab.replace t ~ka ~kb i;
            Hashtbl.replace h (ka, kb) i
          end
          else begin
            Tcp.Conntab.remove t ~ka ~kb;
            Hashtbl.remove h (ka, kb)
          end)
        ops;
      Tcp.Conntab.length t = Hashtbl.length h
      && Seq.for_all
           (fun ka ->
             Seq.for_all
               (fun kb ->
                 Tcp.Conntab.find t ~ka ~kb = Hashtbl.find_opt h (ka, kb))
               (Seq.init 16 Fun.id))
           (Seq.init 16 Fun.id))

(* --- flat-TCB arena behavior visible through the stack --- *)

let test_conn_stats_census () =
  let p = Pair.make () in
  let stats s = Tcp.Stack.conn_stats s in
  check_int "starts empty" 0 (stats p.Pair.a).Tcp.Stack.live;
  let ca1, _ = Pair.connect p ~port:7 in
  let ca2, _ = Pair.connect p ~port:8 in
  check_int "two live" 2 (stats p.Pair.a).Tcp.Stack.live;
  check_int "two ever" 2 (stats p.Pair.a).Tcp.Stack.ever_opened;
  check_int "peak two" 2 (stats p.Pair.a).Tcp.Stack.peak;
  Tcp.Stack.tcp_close ca1;
  Tcp.Stack.tcp_close ca2;
  Pair.run p;
  (* Active closer lingers in TIME_WAIT; push past 2*MSL. *)
  p.Pair.clock <- p.Pair.clock + 600_000_000;
  Tcp.Stack.on_timer p.Pair.a;
  Tcp.Stack.on_timer p.Pair.b;
  check_int "none live after close" 0 (stats p.Pair.a).Tcp.Stack.live;
  check_int "ever_opened is monotone" 2 (stats p.Pair.a).Tcp.Stack.ever_opened;
  check_int "peak survives closes" 2 (stats p.Pair.a).Tcp.Stack.peak;
  check_int "live matches live_connections" (Tcp.Stack.live_connections p.Pair.a)
    (stats p.Pair.a).Tcp.Stack.live

let test_conn_slot_lifecycle () =
  let p = Pair.make () in
  let ca, _cb = Pair.connect p ~port:7 in
  let slot = Tcp.Stack.conn_slot ca in
  check_bool "live conn has a slot" true (slot >= 0);
  check_bool "slot is live in the arena" true
    (Memory.Pool.is_live (Tcp.Stack.tcb_pool p.Pair.a) slot);
  Tcp.Stack.tcp_close ca;
  Pair.run p;
  p.Pair.clock <- p.Pair.clock + 600_000_000;
  Tcp.Stack.on_timer p.Pair.a;
  Tcp.Stack.on_timer p.Pair.b;
  check_int "slot released after full close" (-1) (Tcp.Stack.conn_slot ca);
  check_bool "arena slot freed" false (Memory.Pool.is_live (Tcp.Stack.tcb_pool p.Pair.a) slot);
  (* Post-close introspection stays safe (no UAF into the arena). *)
  check_bool "state reads Closed" true (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st);
  check_int "cwnd reads 0" 0 (Tcp.Stack.conn_cwnd ca);
  (* Churn: the freed slot is recycled for the next connection. *)
  let ca2, _ = Pair.connect p ~port:9 in
  check_int "slot recycled LIFO" slot (Tcp.Stack.conn_slot ca2);
  match Memory.Pool.sanitizer_report (Tcp.Stack.tcb_pool p.Pair.a) with
  | Some r ->
      check_int "no canary violations" 0 r.Memory.Pool.canary_violations;
      check_int "no double frees" 0 r.Memory.Pool.double_frees;
      check_int "no uaf" 0 r.Memory.Pool.uaf_accesses
  | None -> ()

let test_push_tracking_spills () =
  let p = Pair.make () in
  let ca, cb = Pair.connect p ~port:7 in
  (* Five concurrent multi-segment pushes: two fit the inline tracking
     slots, the rest must spill — every one still completes exactly
     once, in transmission order. *)
  let bufs =
    List.map
      (fun id ->
        let buf =
          Memory.Heap.alloc_of_string p.Pair.heap_a (String.make (3000 + (id * 100)) 'p')
        in
        Tcp.Stack.tcp_send ca ~push_id:id [ buf ];
        buf)
      [ 10; 20; 30; 40; 50 ]
  in
  Pair.run p;
  List.iter Memory.Heap.free bufs;
  let completions =
    List.filter_map
      (fun (_, e) ->
        match String.index_opt e ':' with
        | Some _ when String.length e > 17 && String.sub e 0 17 = "a:push_completed:" ->
            Some (int_of_string (String.sub e 17 (String.length e - 17)))
        | _ -> None)
      (List.rev p.Pair.events)
  in
  check_bool "all pushes complete once, in order" true (completions = [ 10; 20; 30; 40; 50 ]);
  check_int "payload fully delivered"
    (List.fold_left (fun acc id -> acc + 3000 + (id * 100)) 0 [ 10; 20; 30; 40; 50 ])
    (String.length (Pair.recv_all cb))

(* --- golden digest: pooled TCB vs boxed baseline ---

   This scenario (loss, concurrent multi-segment pushes, bidirectional
   traffic, churn with slot reuse) was captured on the boxed-record
   stack immediately before the flat-TCB arena landed; the digest below
   is that run's trace digest. The pooled stack must replay it
   bit-for-bit — the arena is a representation change, not a behavior
   change. *)

let golden_digest_expected = "4bc9b1dc22dc8bc8"

let run_golden_scenario () =
  let trace = Engine.Log.create ~capacity:65_536 () in
  let clock = ref 0 in
  let golden msg =
    Engine.Log.event trace ~now:!clock ~category:(Engine.Log.Custom "golden") ~label:msg ~owner:""
      ~aux:"" 0 0
  in
  let wire_seq = ref 0 in
  let in_flight = ref [] (* (arrival, seq, dest, frame) dest: 0=a 1=b *) in
  let send dest frame =
    incr wire_seq;
    (* Deterministic loss: drop every 11th frame among the first 120. *)
    if not (!wire_seq < 120 && !wire_seq mod 11 = 5) then
      in_flight := (!clock + 2_000, !wire_seq, dest, frame) :: !in_flight
  in
  let record side e =
    golden (side ^ ":" ^ Pair.describe_event e)
  in
  let heap_a = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let heap_b = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let iface_a =
    Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1)
      ~clock:(fun () -> !clock)
      ~tx_frame:(fun f -> send 1 f)
      ()
  in
  let iface_b =
    Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 2) ~ip:(Net.Addr.Ip.of_index 2)
      ~clock:(fun () -> !clock)
      ~tx_frame:(fun f -> send 0 f)
      ()
  in
  let a =
    Tcp.Stack.create ~iface:iface_a ~heap:heap_a ~prng:(Engine.Prng.create 11L)
      ~events:(record "a") ()
  in
  let b =
    Tcp.Stack.create ~iface:iface_b ~heap:heap_b ~prng:(Engine.Prng.create 22L)
      ~events:(record "b") ()
  in
  let stack = function 0 -> a | _ -> b in
  let run () =
    let guard = ref 200_000 in
    let continue = ref true in
    while !continue do
      decr guard;
      if !guard = 0 then failwith "golden: no quiescence";
      let frame_time =
        List.fold_left (fun acc (at, _, _, _) -> min acc at) max_int !in_flight
      in
      let timer_time = min (Tcp.Stack.next_timer_ns a) (Tcp.Stack.next_timer_ns b) in
      let at = min frame_time timer_time in
      if at = max_int || at > 30_000_000_000 then continue := false
      else begin
        clock := max !clock at;
        let due, rest = List.partition (fun (t, _, _, _) -> t <= !clock) !in_flight in
        in_flight := rest;
        let due =
          List.sort (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2)) due
        in
        List.iter (fun (_, _, dest, frame) -> Tcp.Stack.input (stack dest) frame) due;
        Tcp.Stack.on_timer a;
        Tcp.Stack.on_timer b
      end
    done
  in
  let recv_all conn =
    let buf = Buffer.create 256 in
    let rec go () =
      match Tcp.Stack.tcp_recv conn with
      | `Data b ->
          Buffer.add_string buf (Memory.Heap.to_string b);
          Memory.Heap.free b;
          go ()
      | `Eof | `Nothing -> ()
    in
    go ();
    Buffer.contents buf
  in
  let listener = Tcp.Stack.tcp_listen b ~port:7 in
  (* Three client connections, established in two waves. *)
  let c1 = Tcp.Stack.tcp_connect a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7) in
  let c2 = Tcp.Stack.tcp_connect a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7) in
  run ();
  let c3 = Tcp.Stack.tcp_connect a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7) in
  run ();
  let accepted = ref [] in
  let rec drain_accept () =
    match Tcp.Stack.tcp_accept listener with
    | Some c ->
        accepted := c :: !accepted;
        drain_accept ()
    | None -> ()
  in
  drain_accept ();
  let srv = List.rev !accepted in
  (* Concurrent multi-segment pushes on c1: exercises push tracking
     beyond the inline capacity. *)
  let payload n ch = String.make n ch in
  let bufs =
    List.map
      (fun (n, ch) ->
        let buf = Memory.Heap.alloc_of_string heap_a (payload n ch) in
        Tcp.Stack.tcp_send c1 [ buf ];
        buf)
      [ (4000, 'x'); (3000, 'y'); (2000, 'z'); (1500, 'w') ]
  in
  (* Single small send on c2, bidirectional on c3. *)
  let b2 = Memory.Heap.alloc_of_string heap_a "hello-c2" in
  Tcp.Stack.tcp_send c2 [ b2 ];
  let b3 = Memory.Heap.alloc_of_string heap_a "ping-c3" in
  Tcp.Stack.tcp_send c3 [ b3 ];
  run ();
  List.iter Memory.Heap.free (b2 :: b3 :: bufs);
  let got = List.map (fun c -> recv_all c) srv in
  List.iteri
    (fun i s ->
      golden
        (Printf.sprintf "srv%d_recv:%d:%s" i (String.length s)
           (if String.length s > 16 then String.sub s 0 16 else s)))
    got;
  (* Server replies on its first conn, then closes everything. *)
  (match srv with
  | s1 :: _ ->
      let rb = Memory.Heap.alloc_of_string heap_b "reply-from-b" in
      Tcp.Stack.tcp_send s1 [ rb ];
      run ();
      Memory.Heap.free rb
  | [] -> ());
  let r1 = recv_all c1 in
  golden ("c1_recv:" ^ r1);
  Tcp.Stack.tcp_close c1;
  Tcp.Stack.tcp_close c2;
  run ();
  List.iter (fun c -> Tcp.Stack.tcp_close c) srv;
  Tcp.Stack.tcp_close c3;
  run ();
  (* Churn: reconnect from the same stack; conn table reuse. *)
  let c4 = Tcp.Stack.tcp_connect a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 7) in
  run ();
  let b4 = Memory.Heap.alloc_of_string heap_a "second-life" in
  Tcp.Stack.tcp_send c4 [ b4 ];
  run ();
  Memory.Heap.free b4;
  drain_accept ();
  Tcp.Stack.tcp_close c4;
  run ();
  golden
    (Printf.sprintf "final:retx=%d+%d live=%d+%d" (Tcp.Stack.total_retransmits a)
       (Tcp.Stack.total_retransmits b) (Tcp.Stack.live_connections a)
       (Tcp.Stack.live_connections b));
  Engine.Log.digest trace

let test_golden_digest_vs_boxed_baseline () =
  Alcotest.(check string) "pooled stack replays the boxed baseline bit-for-bit"
    golden_digest_expected (run_golden_scenario ())

let suite =
  [
    Alcotest.test_case "seqnum wraparound" `Quick test_seqnum_wrap;
    QCheck_alcotest.to_alcotest seqnum_add_sub;
    Alcotest.test_case "seqnum window" `Quick test_seqnum_window;
    Alcotest.test_case "rto first sample" `Quick test_rto_first_sample;
    Alcotest.test_case "rto smoothing" `Quick test_rto_smoothing;
    Alcotest.test_case "rto exponential backoff" `Quick test_rto_backoff;
    Alcotest.test_case "cc slow start" `Quick test_cc_slow_start;
    Alcotest.test_case "cc fast retransmit halves" `Quick test_cc_fast_retransmit_halves;
    Alcotest.test_case "cc timeout collapses" `Quick test_cc_timeout_collapses;
    Alcotest.test_case "cubic growth after loss" `Quick test_cubic_growth;
    Alcotest.test_case "cc none is unbounded" `Quick test_cc_none_unbounded;
    Alcotest.test_case "reassembly in order" `Quick test_reasm_in_order;
    Alcotest.test_case "reassembly gap" `Quick test_reasm_gap;
    Alcotest.test_case "reassembly duplicate" `Quick test_reasm_duplicate;
    Alcotest.test_case "reassembly overlap" `Quick test_reasm_overlap;
    QCheck_alcotest.to_alcotest reasm_permutation;
    Alcotest.test_case "tcp handshake" `Quick test_handshake;
    Alcotest.test_case "tcp data transfer + ref release" `Quick test_data_transfer;
    Alcotest.test_case "tcp bidirectional" `Quick test_bidirectional;
    Alcotest.test_case "tcp large transfer" `Quick test_large_transfer;
    Alcotest.test_case "tcp push completion event" `Quick test_push_completion_event;
    Alcotest.test_case "tcp retransmit on loss" `Quick test_retransmit_on_loss;
    Alcotest.test_case "tcp lost ack, no duplicates" `Quick test_lost_ack_no_duplicate;
    Alcotest.test_case "tcp fast retransmit" `Quick test_fast_retransmit;
    Alcotest.test_case "tcp UAF protection on retransmit" `Quick test_uaf_protection_on_retransmit;
    Alcotest.test_case "tcp SYN loss recovery" `Quick test_syn_loss_recovery;
    Alcotest.test_case "tcp graceful close" `Quick test_graceful_close;
    Alcotest.test_case "tcp abort resets peer" `Quick test_abort_resets_peer;
    Alcotest.test_case "tcp connect refused" `Quick test_connect_refused;
    Alcotest.test_case "tcp flow control small window" `Quick test_flow_control_small_window;
    Alcotest.test_case "tcp reordering" `Quick test_reordering_via_latency;
    Alcotest.test_case "reassembly sack ranges" `Quick test_reassembly_ranges;
    QCheck_alcotest.to_alcotest reasm_ranges_cover_buffered;
    Alcotest.test_case "sack retransmits only holes" `Quick test_sack_retransmits_only_holes;
    Alcotest.test_case "sack off still recovers" `Quick test_sack_negotiated_only_when_both_sides_offer;
    QCheck_alcotest.to_alcotest tcp_chaos;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp unknown port dropped" `Quick test_udp_unknown_port_dropped;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "rtt measured via handshake options" `Quick test_options_negotiated;
    Alcotest.test_case "rto backoff re-arms on the wheel" `Quick test_rto_backoff_rearm;
    Alcotest.test_case "syn retry cap resets" `Quick test_syn_retry_cap_resets;
    Alcotest.test_case "time_wait shared-deadline ordering" `Quick
      test_time_wait_shared_deadline_order;
    Alcotest.test_case "abort cancels pending timers" `Quick test_abort_cancels_timers;
  ]
