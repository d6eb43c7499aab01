(* Deeper coverage: Catmint's credit flow control, TCP corner cases,
   scheduler details, engine wait_many, and a model-based heap test. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

(* --- engine: wait_many --- *)

let test_wait_many_any_signal () =
  let sim = Engine.Sim.create () in
  let cv1 = Engine.Condvar.create sim in
  let cv2 = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_many sim [ cv1; cv2 ] ~timeout:None));
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 100;
      Engine.Condvar.broadcast cv2);
  Engine.Sim.run sim;
  check_bool "either signal wakes" true (!outcome = Some `Signaled)

let test_wait_many_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let woke_at = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      ignore (Engine.Condvar.wait_many sim [ cv ] ~timeout:(Some 777));
      woke_at := Engine.Sim.now sim);
  Engine.Sim.run sim;
  check_int "timeout at the deadline" 777 !woke_at

let test_wait_many_empty_list_timeout () =
  let sim = Engine.Sim.create () in
  let r = ref None in
  Engine.Fiber.spawn sim (fun () ->
      r := Some (Engine.Condvar.wait_many sim [] ~timeout:(Some 10)));
  Engine.Sim.run sim;
  check_bool "empty list times out" true (!r = Some `Timeout)

(* --- scheduler: stop and counters --- *)

let test_sched_stop () =
  let sim = Engine.Sim.create () in
  let host =
    Demikernel.Host.create sim ~name:"t" ~cost:bare ~heap_mode:Memory.Heap.Pool_backed
  in
  let sched = Demikernel.Dsched.create host in
  let ran = ref 0 in
  let rec fp () =
    incr ran;
    if !ran > 100 then Demikernel.Dsched.stop sched;
    Demikernel.Dsched.yield sched;
    fp ()
  in
  ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.Fast_path fp);
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  check_bool "stopped promptly" true (!ran > 100 && !ran < 105);
  check_bool "switches counted" true (Demikernel.Dsched.context_switches sched >= 100)

let test_sched_fastpath_round_robin () =
  let sim = Engine.Sim.create () in
  let host =
    Demikernel.Host.create sim ~name:"t" ~cost:bare ~heap_mode:Memory.Heap.Pool_backed
  in
  let sched = Demikernel.Dsched.create host in
  let order = ref [] in
  let fp tag () =
    for _ = 1 to 3 do
      order := tag :: !order;
      Demikernel.Dsched.yield sched
    done
  in
  ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.Fast_path (fp "x"));
  ignore (Demikernel.Dsched.spawn sched Demikernel.Dsched.Fast_path (fp "y"));
  Engine.Fiber.spawn sim (fun () -> Demikernel.Dsched.run sched);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "FIFO rotation" [ "x"; "y"; "x"; "y"; "x"; "y" ]
    (List.rev !order)

(* --- heap: model-based property --- *)

let heap_model =
  (* Random interleavings of alloc / app-free / os-incref / os-decref
     checked against a naive reference model of reference counts. *)
  QCheck.Test.make ~name:"heap matches a reference refcount model" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 120) (int_bound 3))
    (fun ops ->
      let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
      (* model: (buffer, app_live, os_refs) *)
      let live = ref [] in
      let ok = ref true in
      let check () =
        List.iter
          (fun (b, app, os) ->
            if Memory.Heap.app_live b <> app then ok := false;
            if Memory.Heap.os_refs b <> os then ok := false;
            if Memory.Heap.is_slot_live b <> (app || os > 0) then ok := false)
          !live
      in
      List.iteri
        (fun i op ->
          (match (op, !live) with
          | 0, _ -> live := (Memory.Heap.alloc heap ((i mod 7) + 1), true, 0) :: !live
          | 1, (b, true, os) :: rest ->
              Memory.Heap.free b;
              live := if os = 0 then rest else (b, false, os) :: rest
          | 2, (b, app, os) :: rest when app || os > 0 ->
              Memory.Heap.os_incref b;
              live := (b, app, os + 1) :: rest
          | 3, (b, app, os) :: rest when os > 0 ->
              Memory.Heap.os_decref b;
              live := if (not app) && os = 1 then rest else (b, app, os - 1) :: rest
          | _, _ -> ());
          check ())
        ops;
      (* Drain everything; the heap must end balanced. *)
      List.iter
        (fun (b, app, os) ->
          if app then Memory.Heap.free b;
          for _ = 1 to os do
            Memory.Heap.os_decref b
          done)
        !live;
      !ok && Memory.Heap.live_objects heap = 0)

(* --- TCP corner cases --- *)

module Pair = struct
  (* A tiny two-stack world (subset of test_tcp's harness). *)
  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable in_flight : (int * int * [ `A | `B ] * string) list;
    mutable a : Tcp.Stack.t;
    mutable b : Tcp.Stack.t;
    heap_a : Memory.Heap.t;
    heap_b : Memory.Heap.t;
  }

  let make ?(config = Tcp.Stack.default_config) () =
    let heap_a = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let heap_b = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
    let rec t =
      lazy
        (let clock () = (Lazy.force t).clock in
         let send dest frame =
           let p = Lazy.force t in
           p.seq <- p.seq + 1;
           p.in_flight <- (p.clock + 1_000, p.seq, dest, frame) :: p.in_flight
         in
         let iface i dest =
           Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index i) ~ip:(Net.Addr.Ip.of_index i) ~clock
             ~tx_frame:(fun f -> send dest f) ()
         in
         {
           clock = 0;
           seq = 0;
           in_flight = [];
           a =
             Tcp.Stack.create ~config ~iface:(iface 1 `B) ~heap:heap_a
               ~prng:(Engine.Prng.create 5L) ~events:(fun _ -> ()) ();
           b =
             Tcp.Stack.create ~config ~iface:(iface 2 `A) ~heap:heap_b
               ~prng:(Engine.Prng.create 6L) ~events:(fun _ -> ()) ();
           heap_a;
           heap_b;
         })
    in
    Lazy.force t

  let run t =
    let rec step guard =
      if guard = 0 then failwith "no quiescence";
      let ft = List.fold_left (fun acc (at, _, _, _) -> min acc at) max_int t.in_flight in
      let tt =
        List.fold_left
          (fun acc d -> match d with Some d -> min acc d | None -> acc)
          max_int
          [ Tcp.Stack.next_timer t.a; Tcp.Stack.next_timer t.b ]
      in
      let at = min ft tt in
      if at < max_int then begin
        t.clock <- max t.clock at;
        let due, rest = List.partition (fun (x, _, _, _) -> x <= t.clock) t.in_flight in
        t.in_flight <- rest;
        List.iter
          (fun (_, _, d, f) ->
            match d with `A -> Tcp.Stack.input t.a f | `B -> Tcp.Stack.input t.b f)
          (List.sort (fun (a1, s1, _, _) (a2, s2, _, _) -> compare (a1, s1) (a2, s2)) due);
        Tcp.Stack.on_timer t.a;
        Tcp.Stack.on_timer t.b;
        step (guard - 1)
      end
    in
    step 100_000
end

let connect p =
  let listener = Tcp.Stack.tcp_listen p.Pair.b ~port:9 in
  let ca = Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9) in
  Pair.run p;
  match Tcp.Stack.tcp_accept listener with
  | Some cb -> (ca, cb)
  | None -> Alcotest.fail "no accept"

let test_mss_negotiation () =
  (* Peer advertises a smaller MSS; our segments must respect it. *)
  let config_small = { Tcp.Stack.default_config with Tcp.Stack.mss = 500 } in
  let heap_a = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let heap_b = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
  let clockr = ref 0 in
  let in_flight = ref [] in
  let seqr = ref 0 in
  let max_seg = ref 0 in
  let send dest frame =
    (* Track the largest TCP payload crossing the wire. *)
    (let b = Bytes.unsafe_of_string frame in
     match Net.Eth.read b 0 with
     | exception Net.Wire.Malformed _ -> ()
     | eth, off ->
         if eth.Net.Eth.ethertype = Net.Eth.ethertype_ipv4 then
           match Net.Ipv4.read b off with
           | exception Net.Wire.Malformed _ -> ()
           | ip, toff ->
               if ip.Net.Ipv4.protocol = Net.Ipv4.protocol_tcp then
                 match
                   Net.Tcp_wire.read b toff
                     ~seg_len:(ip.Net.Ipv4.total_length - Net.Ipv4.size)
                     ~src_ip:ip.Net.Ipv4.src ~dst_ip:ip.Net.Ipv4.dst
                 with
                 | exception Net.Wire.Malformed _ -> ()
                 | _, poff ->
                     max_seg :=
                       max !max_seg (ip.Net.Ipv4.total_length - Net.Ipv4.size - (poff - toff)));
    incr seqr;
    in_flight := (!clockr + 1_000, !seqr, dest, frame) :: !in_flight
  in
  let iface i dest =
    Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index i) ~ip:(Net.Addr.Ip.of_index i)
      ~clock:(fun () -> !clockr)
      ~tx_frame:(fun f -> send dest f)
      ()
  in
  let sa =
    Tcp.Stack.create ~iface:(iface 1 `B) ~heap:heap_a ~prng:(Engine.Prng.create 5L)
      ~events:(fun _ -> ()) ()
  in
  let sb =
    Tcp.Stack.create ~config:config_small ~iface:(iface 2 `A) ~heap:heap_b
      ~prng:(Engine.Prng.create 6L) ~events:(fun _ -> ()) ()
  in
  ignore (Tcp.Stack.tcp_listen sb ~port:9);
  let ca = Tcp.Stack.tcp_connect sa ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9) in
  let rec pump guard =
    if guard > 0 then begin
      let ft = List.fold_left (fun acc (at, _, _, _) -> min acc at) max_int !in_flight in
      let tt =
        List.fold_left
          (fun acc d -> match d with Some d -> min acc d | None -> acc)
          max_int
          [ Tcp.Stack.next_timer sa; Tcp.Stack.next_timer sb ]
      in
      let at = min ft tt in
      if at < max_int then begin
        clockr := max !clockr at;
        let due, rest = List.partition (fun (x, _, _, _) -> x <= !clockr) !in_flight in
        in_flight := rest;
        List.iter
          (fun (_, _, d, f) ->
            match d with `A -> Tcp.Stack.input sa f | `B -> Tcp.Stack.input sb f)
          (List.sort compare due);
        Tcp.Stack.on_timer sa;
        Tcp.Stack.on_timer sb;
        (if Tcp.Stack.conn_state ca = Tcp.Stack.Established_st && !max_seg = 0 then
           let buf = Memory.Heap.alloc_of_string heap_a (String.make 3000 'm') in
           Tcp.Stack.tcp_send ca [ buf ]);
        pump (guard - 1)
      end
    end
  in
  pump 10_000;
  check_bool (Printf.sprintf "segments capped at peer MSS (max seen %d)" !max_seg) true
    (!max_seg > 0 && !max_seg <= 500)

let test_simultaneous_close () =
  let p = Pair.make () in
  let ca, cb = connect p in
  (* Both sides close at the same instant. *)
  Tcp.Stack.tcp_close ca;
  Tcp.Stack.tcp_close cb;
  Pair.run p;
  check_bool "a closed" true (Tcp.Stack.conn_state ca = Tcp.Stack.Closed_st);
  check_bool "b closed" true (Tcp.Stack.conn_state cb = Tcp.Stack.Closed_st);
  check_int "no leaked conns a" 0 (Tcp.Stack.live_connections p.Pair.a);
  check_int "no leaked conns b" 0 (Tcp.Stack.live_connections p.Pair.b)

let test_many_connections () =
  let p = Pair.make () in
  let listener = Tcp.Stack.tcp_listen p.Pair.b ~port:9 in
  let conns =
    List.init 20 (fun _ ->
        Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9))
  in
  Pair.run p;
  check_int "all accepted" 20 (Tcp.Stack.accept_pending listener);
  List.iter
    (fun c -> check_bool "established" true (Tcp.Stack.conn_state c = Tcp.Stack.Established_st))
    conns;
  (* Distinct ephemeral ports. *)
  let ports = List.map (fun c -> (Tcp.Stack.conn_local c).Net.Addr.port) conns in
  check_int "distinct ports" 20 (List.length (List.sort_uniq compare ports))

let test_window_scale_large_windows () =
  (* A >64 kB advertised window requires the scale option end to end. *)
  let config =
    { Tcp.Stack.default_config with Tcp.Stack.rwnd_capacity = 1 lsl 20; window_scale = 7 }
  in
  let p = Pair.make ~config () in
  let ca, cb = connect p in
  let data = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  let buf = Memory.Heap.alloc_of_string p.Pair.heap_a data in
  Tcp.Stack.tcp_send ca [ buf ];
  let got = Buffer.create 300_000 in
  let rec pump guard =
    if guard = 0 then Alcotest.fail "stalled";
    Pair.run p;
    let rec drain () =
      match Tcp.Stack.tcp_recv cb with
      | `Data b ->
          Buffer.add_string got (Memory.Heap.to_string b);
          Memory.Heap.free b;
          drain ()
      | `Eof | `Nothing -> ()
    in
    drain ();
    if Buffer.length got < 300_000 then pump (guard - 1)
  in
  pump 100;
  check_bool "300kB through scaled windows intact" true
    (String.equal (Buffer.contents got) data);
  Memory.Heap.free buf

(* --- Catmint flow control --- *)

let catmint_world ~window =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let mk index =
    let host =
      Demikernel.Host.create sim
        ~name:(Printf.sprintf "cm-%d" index)
        ~cost:bare ~heap_mode:Memory.Heap.Register_on_demand
    in
    let rt = Demikernel.Runtime.create host in
    let rnic =
      Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index index)
        ~ip:(Net.Addr.Ip.of_index index) ()
    in
    let api = Demikernel.Catmint.api rt ~rnic ~window () in
    (rt, api, rnic)
  in
  (sim, mk 1, mk 2)

let test_catmint_flow_control_blocks_sender () =
  (* Window of 4 messages; the receiver pops slowly. The sender's pushes
     beyond the credit window must queue (not RNR-drop) and complete as
     one-sided credit grants arrive. *)
  let sim, (rt_s, api_s, rnic_s), (rt_c, api_c, rnic_c) = catmint_world ~window:4 in
  let received = ref [] in
  Demikernel.Runtime.spawn_app rt_s
    (fun api ->
      let lqd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      api.Demikernel.Pdpix.bind lqd (Net.Addr.endpoint 0 7);
      api.Demikernel.Pdpix.listen lqd ~backlog:1;
      match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.accept lqd) with
      | Demikernel.Pdpix.Accepted qd ->
          for _ = 1 to 20 do
            (* Slow consumer: credits are the only thing pacing the
               sender. *)
            api.Demikernel.Pdpix.spin 20_000;
            match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop qd) with
            | Demikernel.Pdpix.Popped sga ->
                received := Demikernel.Pdpix.sga_to_string sga :: !received;
                List.iter api.Demikernel.Pdpix.free sga
            | _ -> failwith "pop failed"
          done
      | _ -> failwith "accept failed")
    api_s;
  let pushed = ref 0 in
  Demikernel.Runtime.spawn_app rt_c
    (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      (match
         api.Demikernel.Pdpix.wait
           (api.Demikernel.Pdpix.connect qd (Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7))
       with
      | Demikernel.Pdpix.Connected -> ()
      | _ -> failwith "connect failed");
      (* Fire all 20 pushes at once — far beyond the 4-message window. *)
      let tokens =
        List.init 20 (fun i ->
            let buf = api.Demikernel.Pdpix.alloc_str (Printf.sprintf "m%02d" i) in
            let qt = api.Demikernel.Pdpix.push qd [ buf ] in
            api.Demikernel.Pdpix.free buf;
            qt)
      in
      List.iter
        (fun qt ->
          match api.Demikernel.Pdpix.wait qt with
          | Demikernel.Pdpix.Pushed -> incr pushed
          | _ -> failwith "push failed")
        tokens)
    api_c;
  Demikernel.Runtime.start rt_s;
  Demikernel.Runtime.start rt_c;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_int "all pushes completed" 20 !pushed;
  check_int "all messages delivered" 20 (List.length !received);
  Alcotest.(check (list string)) "in order"
    (List.init 20 (Printf.sprintf "m%02d"))
    (List.rev !received);
  (* Flow control means the device never hit receiver-not-ready. *)
  check_int "no rnr drops at server" 0 (Net.Rdma_sim.rnr_drops rnic_s);
  check_int "no rnr drops at client" 0 (Net.Rdma_sim.rnr_drops rnic_c)

let test_catmint_rejects_oversized_message () =
  let sim, (rt_s, api_s, _), (rt_c, api_c, _) = catmint_world ~window:8 in
  Demikernel.Runtime.spawn_app rt_s
    (fun api ->
      let lqd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      api.Demikernel.Pdpix.bind lqd (Net.Addr.endpoint 0 7);
      api.Demikernel.Pdpix.listen lqd ~backlog:1;
      ignore (api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.accept lqd)))
    api_s;
  let raised = ref false in
  Demikernel.Runtime.spawn_app rt_c
    (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      (match
         api.Demikernel.Pdpix.wait
           (api.Demikernel.Pdpix.connect qd (Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 7))
       with
      | Demikernel.Pdpix.Connected -> ()
      | _ -> failwith "connect failed");
      let big = api.Demikernel.Pdpix.alloc ((1 lsl 20) - 64) in
      let big2 = api.Demikernel.Pdpix.alloc ((1 lsl 20) - 64) in
      (* Two ~1MB buffers in one sga exceed the device message limit. *)
      (try ignore (api.Demikernel.Pdpix.push qd [ big; big2 ])
       with Invalid_argument _ -> raised := true);
      api.Demikernel.Pdpix.free big;
      api.Demikernel.Pdpix.free big2)
    api_c;
  Demikernel.Runtime.start rt_s;
  Demikernel.Runtime.start rt_c;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "oversized message rejected" true !raised

(* --- listen backlog --- *)

let test_backlog_cap () =
  (* 12 simultaneous connects against a backlog of 5, with no accept()
     draining: exactly 5 handshakes complete; the excess SYNs are
     dropped until the clients give up. *)
  let p = Pair.make () in
  let listener = Tcp.Stack.tcp_listen ~backlog:5 p.Pair.b ~port:9 in
  let conns =
    List.init 12 (fun _ ->
        Tcp.Stack.tcp_connect p.Pair.a ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 2) 9))
  in
  Pair.run p;
  check_int "backlog bounds unaccepted connections" 5
    (Tcp.Stack.accept_pending listener);
  let established, dead =
    List.partition (fun c -> Tcp.Stack.conn_state c = Tcp.Stack.Established_st) conns
  in
  check_int "five clients won" 5 (List.length established);
  check_int "the rest gave up" 7 (List.length dead)

(* --- corruption: checksums turn bit rot into loss, TCP repairs it --- *)

let test_corruption_survived () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~corrupt:0.05 () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let finished = ref false in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.run_app client
    (Apps.Echo.client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~msg_size:256 ~count:100
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 60) sim;
  check_bool "100 echos intact despite 5% frame corruption" true !finished

(* --- wait_all --- *)

let test_wait_all () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let done_ = ref false in
  Demikernel.Boot.run_app node (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      let bufs = List.init 3 (fun i -> api.Demikernel.Pdpix.alloc_str (string_of_int i)) in
      let pushes = List.map (fun b -> api.Demikernel.Pdpix.push q [ b ]) bufs in
      let results = api.Demikernel.Pdpix.wait_all (Array.of_list pushes) in
      assert (Array.for_all (fun c -> c = Demikernel.Pdpix.Pushed) results);
      (* And the three pops complete with the pushed payloads. *)
      let pops = Array.init 3 (fun _ -> api.Demikernel.Pdpix.pop q) in
      let popped = api.Demikernel.Pdpix.wait_all pops in
      let texts =
        Array.to_list popped
        |> List.map (function
             | Demikernel.Pdpix.Popped sga -> Demikernel.Pdpix.sga_to_string sga
             | _ -> failwith "bad completion")
      in
      assert (texts = [ "0"; "1"; "2" ]);
      done_ := true);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_bool "wait_all completed" true !done_

(* --- relay: multiple sessions --- *)

let test_relay_multiple_sessions () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let relay = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app relay (Apps.Relay.server ~port:3478);
  Demikernel.Boot.start relay;
  let finished = ref 0 in
  List.iteri
    (fun i session ->
      let gen = Demikernel.Boot.make sim fabric ~index:(2 + i) Demikernel.Boot.Catnip_os in
      Demikernel.Boot.run_app gen
        (Apps.Relay.generator
           ~dst:(Demikernel.Boot.endpoint relay 3478)
           ~src_port:4000 ~session ~msg_size:100 ~count:20
           ~on_done:(fun () -> incr finished));
      Demikernel.Boot.start gen)
    [ 11; 22; 33 ];
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_int "all three sessions relayed independently" 3 !finished

(* --- incast and congestion fairness --- *)

let test_fabric_incast_queueing () =
  (* Two senders blast one receiver simultaneously: the receiver's link
     serializes, so arrivals are spaced by at least one serialization
     time. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let mk i rx = Net.Fabric.attach fabric ~mac:(Net.Addr.Mac.of_index i) ~rx in
  let arrivals = ref [] in
  let _sink = mk 3 (fun _ -> arrivals := Engine.Sim.now sim :: !arrivals) in
  let frame src =
    let b = Bytes.create (Net.Eth.size + 1400) in
    let _ =
      Net.Eth.write b 0
        { Net.Eth.dst = Net.Addr.Mac.of_index 3; src; ethertype = 0x88B5 }
    in
    Bytes.unsafe_to_string b
  in
  let p1 = mk 1 (fun _ -> ()) in
  let p2 = mk 2 (fun _ -> ()) in
  Net.Fabric.send fabric p1 (frame (Net.Addr.Mac.of_index 1));
  Net.Fabric.send fabric p2 (frame (Net.Addr.Mac.of_index 2));
  Engine.Sim.run sim;
  match List.sort compare !arrivals with
  | [ a; b ] ->
      let ser = Net.Cost.serialization_ns bare (Net.Eth.size + 1400) in
      check_bool
        (Printf.sprintf "second arrival %d >= first %d + serialization %d" b a ser)
        true
        (b - a >= ser)
  | _ -> Alcotest.fail "expected two arrivals"

let test_two_flow_fairness () =
  (* Two Catnip clients stream bulk data into one server through its
     shared downlink; congestion control must let both finish in the
     same ballpark. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  Demikernel.Boot.start server;
  let finish = Array.make 2 0 in
  List.iteri
    (fun i index ->
      let client = Demikernel.Boot.make sim fabric ~index Demikernel.Boot.Catnip_os in
      Demikernel.Boot.run_app client
        (Apps.Echo.stream_client
           ~dst:(Demikernel.Boot.endpoint server 7)
           ~msg_size:16_384 ~count:32 ~window:4
           ~on_done:(fun () -> finish.(i) <- Engine.Sim.now sim));
      Demikernel.Boot.start client)
    [ 2; 3 ];
  Engine.Sim.run ~until:(Engine.Clock.s 30) sim;
  check_bool "both flows finished" true (finish.(0) > 0 && finish.(1) > 0);
  let slow = max finish.(0) finish.(1) and fast = min finish.(0) finish.(1) in
  check_bool
    (Printf.sprintf "rough fairness (finish %d vs %d)" fast slow)
    true
    (slow < 3 * fast)

(* --- IP fragmentation --- *)

let test_udp_fragmentation_end_to_end () =
  (* A 20kB datagram crosses a 1500-byte MTU: ~14 fragments out, one
     datagram in. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7);
  let got = ref 0 in
  Demikernel.Boot.run_app client
    (Apps.Echo.udp_client
       ~dst:(Demikernel.Boot.endpoint server 7)
       ~src_port:5001 ~msg_size:20_000 ~count:5
       ~record:(fun _ -> incr got));
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_int "five jumbo datagrams echoed" 5 !got;
  (* The wire actually carried MTU-sized frames. *)
  let frames = (Net.Fabric.stats fabric).Net.Fabric.frames_delivered in
  check_bool (Printf.sprintf "fragmented on the wire (%d frames)" frames) true (frames > 100)

let udp_fragmentation_sizes =
  QCheck.Test.make ~name:"udp datagrams of any size reassemble" ~count:30
    QCheck.(int_range 1 60_000)
    (fun size ->
      let sim = Engine.Sim.create () in
      let fabric = Net.Fabric.create sim ~cost:bare () in
      let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
      let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
      Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7);
      let ok = ref false in
      Demikernel.Boot.run_app client (fun api ->
          let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
          api.Demikernel.Pdpix.bind qd (Net.Addr.endpoint 0 5001);
          let payload = String.init size (fun i -> Char.chr ((i * 13) land 0xff)) in
          let buf = api.Demikernel.Pdpix.alloc_str payload in
          (match api.Demikernel.Pdpix.wait
                   (api.Demikernel.Pdpix.pushto qd (Demikernel.Boot.endpoint server 7) [ buf ])
           with
          | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
          | _ -> failwith "push failed");
          match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop qd) with
          | Demikernel.Pdpix.Popped_from (_, sga) ->
              ok := String.equal (Demikernel.Pdpix.sga_to_string sga) payload;
              List.iter api.Demikernel.Pdpix.free sga
          | _ -> ());
      Demikernel.Boot.start server;
      Demikernel.Boot.start client;
      Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
      !ok)

let test_fragment_loss_drops_whole_datagram () =
  (* Losing one fragment must lose the datagram (no partial delivery),
     and must not wedge the reassembler. *)
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare ~loss:0.2 () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7);
  let got = ref 0 in
  Demikernel.Boot.run_app client (fun api ->
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Udp in
      api.Demikernel.Pdpix.bind qd (Net.Addr.endpoint 0 5001);
      for _ = 1 to 20 do
        let buf = api.Demikernel.Pdpix.alloc_str (String.make 8_000 'f') in
        (match api.Demikernel.Pdpix.wait
                 (api.Demikernel.Pdpix.pushto qd (Demikernel.Boot.endpoint server 7) [ buf ])
         with
        | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
        | _ -> failwith "push failed");
        (* Wait briefly for an echo; most datagrams die to loss. *)
        match api.Demikernel.Pdpix.wait_any_t
                [| api.Demikernel.Pdpix.pop qd |] ~timeout_ns:2_000_000
        with
        | Some (_, Demikernel.Pdpix.Popped_from (_, sga)) ->
            if Demikernel.Pdpix.sga_length sga = 8_000 then incr got;
            List.iter api.Demikernel.Pdpix.free sga
        | Some _ | None -> ()
      done);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  (* 6 fragments each way, 20% loss: most must die; any that arrive are
     complete. *)
  check_bool (Printf.sprintf "no partial datagrams (%d complete)" !got) true
    (!got >= 0 && !got < 20)

(* --- robustness: hostile input never crashes the stack --- *)

let stack_input_fuzz =
  QCheck.Test.make ~name:"Stack.input never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk ->
      let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
      let iface =
        Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1)
          ~clock:(fun () -> 0)
          ~tx_frame:(fun _ -> ())
          ()
      in
      let stack =
        Tcp.Stack.create ~iface ~heap ~prng:(Engine.Prng.create 1L) ~events:(fun _ -> ()) ()
      in
      ignore (Tcp.Stack.tcp_listen stack ~port:7);
      ignore (Tcp.Stack.udp_bind stack ~port:7);
      match Tcp.Stack.input stack junk with () -> true | exception _ -> false)

let stack_input_mutation_fuzz =
  (* Mutate bytes of an otherwise-valid TCP SYN frame: parse guards and
     checksums must contain the damage. *)
  let valid_syn =
    let h =
      {
        Net.Tcp_wire.src_port = 5000;
        dst_port = 7;
        seq = 42;
        ack = 0;
        syn = true;
        ack_flag = false;
        fin = false;
        rst = false;
        psh = false;
        window = 0xffff;
        options =
          {
            Net.Tcp_wire.no_options with
            Net.Tcp_wire.mss = Some 1460;
            window_scale = Some 7;
            timestamp = Some (1, 0);
            sack_permitted = true;
          };
      }
    in
    let hsize = Net.Tcp_wire.header_size h in
    let b = Bytes.create (Net.Eth.size + Net.Ipv4.size + hsize) in
    let off =
      Net.Eth.write b 0
        {
          Net.Eth.dst = Net.Addr.Mac.of_index 1;
          src = Net.Addr.Mac.of_index 2;
          ethertype = Net.Eth.ethertype_ipv4;
        }
    in
    let off =
      Net.Ipv4.write b off
        (Net.Ipv4.whole ~total_length:(Net.Ipv4.size + hsize) ~identification:1 ~protocol:Net.Ipv4.protocol_tcp ~src:(Net.Addr.Ip.of_index 2) ~dst:(Net.Addr.Ip.of_index 1))
    in
    ignore
      (Net.Tcp_wire.write b off h ~payload_len:0 ~src_ip:(Net.Addr.Ip.of_index 2)
         ~dst_ip:(Net.Addr.Ip.of_index 1));
    Bytes.unsafe_to_string b
  in
  QCheck.Test.make ~name:"Stack.input survives mutated valid frames" ~count:500
    QCheck.(pair (int_bound 200) (int_bound 255))
    (fun (pos, value) ->
      let heap = Memory.Heap.create ~mode:Memory.Heap.Pool_backed () in
      let b = Bytes.of_string valid_syn in
      Bytes.set b (pos mod Bytes.length b) (Char.chr value);
      let iface =
        Tcp.Iface.create ~mac:(Net.Addr.Mac.of_index 1) ~ip:(Net.Addr.Ip.of_index 1)
          ~clock:(fun () -> 0)
          ~tx_frame:(fun _ -> ())
          ()
      in
      let receiver =
        Tcp.Stack.create ~iface ~heap ~prng:(Engine.Prng.create 3L) ~events:(fun _ -> ()) ()
      in
      ignore (Tcp.Stack.tcp_listen receiver ~port:7);
      match Tcp.Stack.input receiver (Bytes.unsafe_to_string b) with
      | () -> true
      | exception _ -> false)

(* --- close fails outstanding waiters --- *)

let test_close_fails_pending_pops () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Echo.server ~port:7);
  let outcome = ref None in
  let handoff = ref None in
  Demikernel.Boot.run_app client ~name:"waiter" (fun api ->
      let q = api.Demikernel.Pdpix.queue () in
      handoff := Some q;
      let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
      (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.connect qd (Demikernel.Boot.endpoint server 7)) with
      | Demikernel.Pdpix.Connected ->
          let msg = api.Demikernel.Pdpix.alloc_str (string_of_int qd) in
          ignore (api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push q [ msg ]))
      | _ -> failwith "connect failed");
      match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop qd) with
      | Demikernel.Pdpix.Failed _ -> outcome := Some `Failed
      | _ -> outcome := Some `Other);
  Demikernel.Boot.run_app client ~name:"closer" (fun api ->
      let q = match !handoff with Some q -> q | None -> failwith "no handoff" in
      match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop q) with
      | Demikernel.Pdpix.Popped sga ->
          let qd = int_of_string (Demikernel.Pdpix.sga_to_string sga) in
          List.iter api.Demikernel.Pdpix.free sga;
          (* Give the waiter time to block in pop, then close under it. *)
          api.Demikernel.Pdpix.spin 50_000;
          api.Demikernel.Pdpix.close qd
      | _ -> failwith "handoff failed");
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "blocked pop failed on close" true (!outcome = Some `Failed)

(* --- determinism across full experiments --- *)

let test_experiment_determinism () =
  let run () =
    let hist =
      Harness.Common.demi_echo_rtt ~count:100 ~proto:Harness.Common.Echo_tcp
        Demikernel.Boot.Catnip_os
    in
    (Metrics.Hdr.p50 hist, Metrics.Hdr.p99 hist,
     int_of_float (Metrics.Hdr.mean hist))
  in
  let a = run () in
  let b = run () in
  check_bool "bit-identical experiment reruns" true (a = b)

let suite =
  [
    Alcotest.test_case "wait_many: any signal wakes" `Quick test_wait_many_any_signal;
    Alcotest.test_case "wait_many: timeout" `Quick test_wait_many_timeout;
    Alcotest.test_case "wait_many: empty list" `Quick test_wait_many_empty_list_timeout;
    Alcotest.test_case "sched stop" `Quick test_sched_stop;
    Alcotest.test_case "sched fast-path FIFO rotation" `Quick test_sched_fastpath_round_robin;
    QCheck_alcotest.to_alcotest heap_model;
    Alcotest.test_case "mss negotiation honored" `Quick test_mss_negotiation;
    Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
    Alcotest.test_case "20 concurrent connections" `Quick test_many_connections;
    Alcotest.test_case "window scaling: 300kB windows" `Quick test_window_scale_large_windows;
    Alcotest.test_case "catmint credit flow control" `Quick test_catmint_flow_control_blocks_sender;
    Alcotest.test_case "catmint rejects oversized sga" `Quick test_catmint_rejects_oversized_message;
    Alcotest.test_case "listen backlog cap" `Quick test_backlog_cap;
    Alcotest.test_case "checksums defeat corruption" `Quick test_corruption_survived;
    Alcotest.test_case "wait_all" `Quick test_wait_all;
    Alcotest.test_case "relay: independent sessions" `Quick test_relay_multiple_sessions;
    Alcotest.test_case "udp fragmentation end-to-end" `Quick test_udp_fragmentation_end_to_end;
    QCheck_alcotest.to_alcotest udp_fragmentation_sizes;
    Alcotest.test_case "fragment loss drops whole datagram" `Quick
      test_fragment_loss_drops_whole_datagram;
    QCheck_alcotest.to_alcotest stack_input_fuzz;
    QCheck_alcotest.to_alcotest stack_input_mutation_fuzz;
    Alcotest.test_case "close fails pending pops" `Quick test_close_fails_pending_pops;
    Alcotest.test_case "fabric incast queueing" `Quick test_fabric_incast_queueing;
    Alcotest.test_case "two-flow congestion fairness" `Quick test_two_flow_fairness;
    Alcotest.test_case "experiment-level determinism" `Quick test_experiment_determinism;
  ]
