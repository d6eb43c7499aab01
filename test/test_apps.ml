(* Tests for the µs-scale applications: framing, UDP relay, the KV
   store, workload generators, TxnStore. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

(* --- framing --- *)

let test_framing_roundtrip () =
  let a = Apps.Framing.create () in
  Apps.Framing.feed a (Apps.Framing.encode "hello");
  Apps.Framing.feed a (Apps.Framing.encode "world");
  Alcotest.(check (option string)) "first" (Some "hello") (Apps.Framing.next a);
  Alcotest.(check (option string)) "second" (Some "world") (Apps.Framing.next a);
  Alcotest.(check (option string)) "empty" None (Apps.Framing.next a)

let test_framing_fragmented () =
  let a = Apps.Framing.create () in
  let encoded = Apps.Framing.encode "fragmented message" in
  String.iter (fun ch -> Apps.Framing.feed a (String.make 1 ch)) encoded;
  Alcotest.(check (option string)) "reassembled" (Some "fragmented message")
    (Apps.Framing.next a)

let framing_random =
  QCheck.Test.make ~name:"framing reassembles arbitrary splits" ~count:200
    QCheck.(pair (list (string_of_size (Gen.int_range 0 50))) (int_range 1 17))
    (fun (messages, chunk) ->
      let a = Apps.Framing.create () in
      let wire = String.concat "" (List.map Apps.Framing.encode messages) in
      let n = String.length wire in
      let rec feed off =
        if off < n then begin
          let len = min chunk (n - off) in
          Apps.Framing.feed a (String.sub wire off len);
          feed (off + len)
        end
      in
      feed 0;
      let rec drain acc =
        match Apps.Framing.next a with Some m -> drain (m :: acc) | None -> List.rev acc
      in
      drain [] = messages)

(* --- workload generators --- *)

let test_zipf_skew () =
  let prng = Engine.Prng.create 7L in
  let next = Apps.Workload.zipfian prng ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let k = next () in
    counts.(k) <- counts.(k) + 1
  done;
  (* Hot key dominates; the tail is hit but rarely. *)
  check_bool "key 0 is hot" true (counts.(0) > 2_000);
  let tail_hits = Array.fold_left ( + ) 0 (Array.sub counts 500 500) in
  check_bool "tail is cold" true (tail_hits < 4_000)

let zipf_in_range =
  QCheck.Test.make ~name:"zipfian stays in range" ~count:50
    QCheck.(pair int64 (int_range 2 10_000))
    (fun (seed, n) ->
      let prng = Engine.Prng.create seed in
      let next = Apps.Workload.zipfian prng ~n ~theta:0.99 in
      List.for_all
        (fun _ ->
          let k = next () in
          k >= 0 && k < n)
        (List.init 100 Fun.id))

let test_poisson_positive () =
  let prng = Engine.Prng.create 3L in
  let next = Apps.Workload.poisson_interarrival prng ~rate_per_sec:100_000. in
  let total = List.fold_left (fun acc _ -> acc + next ()) 0 (List.init 1000 Fun.id) in
  (* Mean gap 10us; 1000 draws ~ 10ms +- a lot. *)
  check_bool "mean in the right decade" true (total > 2_000_000 && total < 50_000_000)

(* --- UDP relay --- *)

let test_relay () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let relay = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let gen = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  let rtts = Metrics.Hdr.create () in
  let finished = ref false in
  Demikernel.Boot.run_app relay (Apps.Relay.server ~port:3478);
  Demikernel.Boot.run_app gen
    (Apps.Relay.generator
       ~dst:(Demikernel.Boot.endpoint relay 3478)
       ~src_port:4000 ~session:99 ~msg_size:200 ~count:40
       ~record:(Metrics.Hdr.add rtts)
       ~on_done:(fun () -> finished := true));
  Demikernel.Boot.start relay;
  Demikernel.Boot.start gen;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_bool "finished" true !finished;
  check_int "all packets relayed" 40 (Metrics.Hdr.count rtts)

(* --- dkv --- *)

let dkv_world ?(flavor = Demikernel.Boot.Catnip_os) ?(persist = false) () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:persist flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  Demikernel.Boot.run_app server (Apps.Dkv.server ~port:6379 ~persist);
  (sim, server, client)

let test_dkv_get_set_del () =
  let sim, server, client = dkv_world () in
  let results = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server 6379) in
      results := [ `Set (Apps.Dkv.set c "alpha" "one") ];
      results := `Get (Apps.Dkv.get c "alpha") :: !results;
      results := `Set (Apps.Dkv.set c "alpha" "two") :: !results;
      results := `Get (Apps.Dkv.get c "alpha") :: !results;
      results := `Del (Apps.Dkv.del c "alpha") :: !results;
      results := `Get (Apps.Dkv.get c "alpha") :: !results;
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  match List.rev !results with
  | [ `Set s1; `Get g1; `Set s2; `Get g2; `Del d1; `Get g3 ] ->
      check_bool "set ok" true (s1 = Apps.Dkv.Ok);
      check_bool "get one" true (g1 = (Apps.Dkv.Ok, "one"));
      check_bool "overwrite ok" true (s2 = Apps.Dkv.Ok);
      check_bool "get two" true (g2 = (Apps.Dkv.Ok, "two"));
      check_bool "del ok" true (d1 = Apps.Dkv.Ok);
      check_bool "get miss" true (fst g3 = Apps.Dkv.Not_found)
  | _ -> Alcotest.fail "wrong result shape"

let test_dkv_large_values () =
  (* Values above the MSS force fragmentation through the framing
     fallback path. *)
  let sim, server, client = dkv_world () in
  let ok = ref false in
  let big = String.init 8000 (fun i -> Char.chr (i land 0xff)) in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server 6379) in
      assert (Apps.Dkv.set c "big" big = Apps.Dkv.Ok);
      (match Apps.Dkv.get c "big" with
      | Apps.Dkv.Ok, v when String.equal v big -> ok := true
      | _ -> ());
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_bool "large value roundtrip" true !ok

let test_dkv_persistence () =
  let sim, server, client = dkv_world ~persist:true () in
  let finished = ref false in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server 6379) in
      for i = 1 to 10 do
        assert (Apps.Dkv.set c (Printf.sprintf "k%d" i) "value" = Apps.Dkv.Ok)
      done;
      Apps.Dkv.client_close c;
      finished := true);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 5) sim;
  check_bool "finished" true !finished;
  match server.Demikernel.Boot.ssd with
  | Some ssd -> check_bool "AOF hit the device" true (Net.Ssd_sim.bytes_written ssd > 0)
  | None -> Alcotest.fail "no ssd"

let test_dkv_bench_runs_everywhere () =
  List.iter
    (fun flavor ->
      let sim, server, client = dkv_world ~flavor () in
      let finished = ref false in
      Demikernel.Boot.run_app client
        (Apps.Dkv.bench_client
           ~dst:(Demikernel.Boot.endpoint server 6379)
           ~keys:50 ~value_size:64 ~ops:100 ~kind:`Get ~seed:1
           ~on_done:(fun () -> finished := true));
      Demikernel.Boot.start server;
      Demikernel.Boot.start client;
      Engine.Sim.run ~until:(Engine.Clock.s 30) sim;
      check_bool "bench finished" true !finished)
    [ Demikernel.Boot.Catnip_os; Demikernel.Boot.Catmint_os; Demikernel.Boot.Catnap_os ]

(* --- txnstore --- *)

let txn_world flavor =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let replicas =
    List.map
      (fun i ->
        let node = Demikernel.Boot.make sim fabric ~index:i flavor in
        Demikernel.Boot.run_app node (Apps.Txnstore.server ~port:7447);
        node)
      [ 1; 2; 3 ]
  in
  let client = Demikernel.Boot.make sim fabric ~index:4 flavor in
  (sim, replicas, client)

let test_txnstore_rmw () =
  let sim, replicas, client = txn_world Demikernel.Boot.Catnip_os in
  let endpoints = List.map (fun r -> Demikernel.Boot.endpoint r 7447) replicas in
  let observed = ref None in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Txnstore.connect api ~replicas:endpoints ~seed:5 in
      Apps.Txnstore.put c "counter" ~version:1 "0";
      (* Three RMW increments must be serial through versioning. *)
      for _ = 1 to 3 do
        Apps.Txnstore.rmw c "counter" (fun v -> string_of_int (int_of_string v + 1))
      done;
      observed := Apps.Txnstore.get c "counter";
      Apps.Txnstore.close c);
  List.iter Demikernel.Boot.start replicas;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  match !observed with
  | Some (version, value) ->
      check_int "version advanced" 4 version;
      Alcotest.(check string) "value incremented three times" "3" value
  | None -> Alcotest.fail "no final value"

let test_txnstore_replicates () =
  (* After a put, a fresh client reading via round-robin hits different
     replicas; all must return the value. *)
  let sim, replicas, client = txn_world Demikernel.Boot.Catnip_os in
  let endpoints = List.map (fun r -> Demikernel.Boot.endpoint r 7447) replicas in
  let reads = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Txnstore.connect api ~replicas:endpoints ~seed:6 in
      Apps.Txnstore.put c "replicated" ~version:1 "everywhere";
      for _ = 1 to 3 do
        reads := Apps.Txnstore.get c "replicated" :: !reads
      done;
      Apps.Txnstore.close c);
  List.iter Demikernel.Boot.start replicas;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_int "three reads" 3 (List.length !reads);
  List.iter
    (fun r -> check_bool "every replica has it" true (r = Some (1, "everywhere")))
    !reads

let test_txnstore_ycsb_f () =
  let sim, replicas, client = txn_world Demikernel.Boot.Catnip_os in
  let endpoints = List.map (fun r -> Demikernel.Boot.endpoint r 7447) replicas in
  let lat = Metrics.Hdr.create () in
  let finished = ref false in
  Demikernel.Boot.run_app client
    (Apps.Txnstore.ycsb_f ~dst_replicas:endpoints ~keys:20 ~value_size:128 ~txns:50
       ~theta:0.99 ~seed:9
       ~record:(Metrics.Hdr.add lat)
       ~on_done:(fun () -> finished := true));
  List.iter Demikernel.Boot.start replicas;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 30) sim;
  check_bool "finished" true !finished;
  check_int "txns measured" 50 (Metrics.Hdr.count lat);
  (* An RMW is at least two network round trips. *)
  check_bool "txn latency exceeds 2 RTT" true (Metrics.Hdr.p50 lat > 8_000)

let suite =
  [
    Alcotest.test_case "framing roundtrip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing byte-by-byte" `Quick test_framing_fragmented;
    QCheck_alcotest.to_alcotest framing_random;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    QCheck_alcotest.to_alcotest zipf_in_range;
    Alcotest.test_case "poisson interarrivals" `Quick test_poisson_positive;
    Alcotest.test_case "udp relay" `Quick test_relay;
    Alcotest.test_case "dkv get/set/del" `Quick test_dkv_get_set_del;
    Alcotest.test_case "dkv large values" `Quick test_dkv_large_values;
    Alcotest.test_case "dkv persistence (AOF)" `Quick test_dkv_persistence;
    Alcotest.test_case "dkv bench on all libOSes" `Quick test_dkv_bench_runs_everywhere;
    Alcotest.test_case "txnstore rmw serializes" `Quick test_txnstore_rmw;
    Alcotest.test_case "txnstore replicates to all" `Quick test_txnstore_replicates;
    Alcotest.test_case "txnstore ycsb-f" `Quick test_txnstore_ycsb_f;
  ]
