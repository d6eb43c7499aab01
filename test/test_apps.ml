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

(* Random frames split at random points, fed alternately as strings and
   as heap buffers, with [next] drained after every feed: the messages
   come back in order and [buffered] is always the bytes fed minus the
   frames extracted. *)
let framing_split_points =
  QCheck.Test.make ~name:"framing: random splits, feed and feed_buf, buffered tracks" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 20) (string_of_size (Gen.int_range 0 3000)))
              (int_bound 1_000_000))
    (fun (messages, salt) ->
      let heap = Memory.Heap.create ~mode:Memory.Heap.Not_dma () in
      let g = Engine.Prng.create (Int64.of_int salt) in
      let a = Apps.Framing.create () in
      let wire = String.concat "" (List.map Apps.Framing.encode messages) in
      let n = String.length wire in
      let fed = ref 0 and taken = ref 0 and got = ref [] and ok = ref true in
      let rec drain () =
        match Apps.Framing.next a with
        | Some m ->
            taken := !taken + Apps.Framing.hdr_size + String.length m;
            got := m :: !got;
            drain ()
        | None -> ()
      in
      let rec feed off i =
        if off < n then begin
          let len = min (n - off) (1 + Engine.Prng.int g 2000) in
          let chunk = String.sub wire off len in
          if i land 1 = 0 then Apps.Framing.feed a chunk
          else begin
            let buf = Memory.Heap.alloc_of_string heap chunk in
            Apps.Framing.feed_buf a buf;
            Memory.Heap.free buf
          end;
          fed := !fed + len;
          drain ();
          if Apps.Framing.buffered a <> !fed - !taken then ok := false;
          feed (off + len) (i + 1)
        end
      in
      feed 0 0;
      !ok && List.rev !got = messages && Apps.Framing.buffered a = 0)

let ctx_tuple a =
  let c = Apps.Framing.last a in
  Apps.Framing.(c.c_req, c.c_msg, c.c_parent, c.c_hop)

let view_string a =
  Bytes.sub_string (Apps.Framing.view_data a) (Apps.Framing.view_off a)
    (Apps.Framing.view_len a)

(* Random messages with random contexts, cut into random feed chunks
   (half the streams in chunks of at most 9 bytes, so length prefixes
   arrive split across feeds), go into two accumulators: one drained
   with [next], one with [take]. Each view is read only when the drain
   that took it has ended, after every later [take] of that drain. The
   views must hold the messages and contexts [next] returns, and those
   must be the ones sent. *)
let framing_view_matches_next =
  QCheck.Test.make ~name:"framing: take/view yields what next yields" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30)
           (pair (string_of_size (Gen.int_range 0 300)) (int_bound 0xFFFF)))
        (int_bound 1_000_000))
    (fun (messages, salt) ->
      let g = Engine.Prng.create (Int64.of_int salt) in
      let ctx_of i hop = (i + 1, (2 * i) + 1, i, hop) in
      let wire =
        String.concat ""
          (List.mapi
             (fun i (m, hop) ->
               let req, msg, parent, hop = ctx_of i hop in
               Apps.Framing.encode_ctx ~req ~msg ~parent ~hop m)
             messages)
      in
      let expected = List.mapi (fun i (m, hop) -> (m, ctx_of i hop)) messages in
      let by_next = Apps.Framing.create () and by_take = Apps.Framing.create () in
      let got_next = ref [] and got_take = ref [] in
      let max_chunk = if Engine.Prng.int g 2 = 0 then 9 else 700 in
      let n = String.length wire in
      let rec drain_next () =
        match Apps.Framing.next by_next with
        | Some m ->
            got_next := (m, ctx_tuple by_next) :: !got_next;
            drain_next ()
        | None -> ()
      in
      let rec drain_take views =
        if Apps.Framing.take by_take then
          drain_take
            (( Apps.Framing.view_data by_take,
               Apps.Framing.view_off by_take,
               Apps.Framing.view_len by_take,
               ctx_tuple by_take )
            :: views)
        else views
      in
      let rec feed off =
        if off < n then begin
          let len = min (n - off) (1 + Engine.Prng.int g max_chunk) in
          let chunk = String.sub wire off len in
          Apps.Framing.feed by_next chunk;
          Apps.Framing.feed by_take chunk;
          drain_next ();
          List.iter
            (fun (b, off, len, c) -> got_take := (Bytes.sub_string b off len, c) :: !got_take)
            (List.rev (drain_take []));
          feed (off + len)
        end
      in
      feed 0;
      let got_next = List.rev !got_next and got_take = List.rev !got_take in
      got_take = got_next && got_next = expected && Apps.Framing.buffered by_take = 0)

(* A length prefix split across feeds takes nothing until its frame is
   whole; a view taken earlier in a drain still reads its own message
   after a later [take]. *)
let test_framing_split_prefix () =
  let a = Apps.Framing.create () in
  let body = String.make 1000 'p' in
  let frame = Apps.Framing.encode_ctx ~req:1 ~msg:2 ~parent:3 ~hop:4 body in
  Apps.Framing.feed a (String.sub frame 0 2);
  check_bool "half a length prefix: nothing" false (Apps.Framing.take a);
  Apps.Framing.feed a (String.sub frame 2 3);
  check_bool "a prefix and no body: nothing" false (Apps.Framing.take a);
  Apps.Framing.feed a
    (String.sub frame 5 (String.length frame - 5) ^ Apps.Framing.encode "next");
  check_bool "the whole frame: taken" true (Apps.Framing.take a);
  Alcotest.(check (pair int (pair int (pair int int))))
    "its context" (1, (2, (3, 4)))
    (let r, m, p, h = ctx_tuple a in
     (r, (m, (p, h))));
  let b = Apps.Framing.view_data a and off = Apps.Framing.view_off a in
  let len = Apps.Framing.view_len a in
  check_bool "the next frame: taken" true (Apps.Framing.take a);
  Alcotest.(check string) "the later view" "next" (view_string a);
  Alcotest.(check string) "the earlier view, read after" body (Bytes.sub_string b off len);
  check_bool "drained" false (Apps.Framing.take a);
  check_int "nothing buffered" 0 (Apps.Framing.buffered a)

(* Accumulating one 64 KiB frame from MSS-sized chunks, calling [next]
   after each, allocates a bounded multiple of the frame — not a
   re-copy of the whole accumulator per call. *)
let test_framing_linear () =
  let frame = Apps.Framing.encode (String.make 65536 'v') in
  let n = String.length frame in
  let chunks =
    List.init ((n + 1447) / 1448) (fun i ->
        let off = i * 1448 in
        String.sub frame off (min 1448 (n - off)))
  in
  let a = Apps.Framing.create () in
  let got = ref None in
  (* Direct major-heap allocations reach the counters only at a major
     slice, so settle them on both sides of the window: otherwise bytes
     an earlier test allocated can be counted here. *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  List.iter
    (fun c ->
      Apps.Framing.feed a c;
      match Apps.Framing.next a with Some m -> got := Some m | None -> ())
    chunks;
  Gc.full_major ();
  let allocated = Gc.allocated_bytes () -. before in
  check_int "the frame came out whole" 65536
    (match !got with Some m -> String.length m | None -> 0);
  check_int "nothing left over" 0 (Apps.Framing.buffered a);
  if allocated >= 4. *. float_of_int n then
    Alcotest.failf "%.0f bytes allocated for a %d-byte frame (bound 4x)" allocated n

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

(* --- worlds: sanitized, and held to the ownership protocol ---

   Every world below boots with the heap sanitizer armed, which arms
   each node's ownership oracle too; the test ends by asserting that no
   app broke the PDPIX protocol (a buffer freed or written while its
   push was in flight, a token never waited). *)

let sanitized = Test_demikernel.sanitized

let no_findings nodes =
  List.iter
    (fun (node : Demikernel.Boot.node) ->
      Alcotest.(check (list string))
        ("ownership protocol clean on " ^ node.host.Demikernel.Host.name)
        []
        (List.map
           (fun (v : Demikernel.Pdpix.ownership_violation) -> v.kind ^ ": " ^ v.detail)
           (Demikernel.Boot.ownership_findings node)))
    nodes

(* --- UDP relay --- *)

let test_relay () =
  sanitized @@ fun () ->
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
  check_int "all packets relayed" 40 (Metrics.Hdr.count rtts);
  no_findings [ relay; gen ]

(* --- dkv --- *)

let dkv_world ?(flavor = Demikernel.Boot.Catnip_os) ?(persist = false) () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  let server = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:persist flavor in
  let client = Demikernel.Boot.make sim fabric ~index:2 flavor in
  Demikernel.Boot.run_app server (Apps.Dkv.server ~port:6379 ~persist);
  (sim, server, client)

let test_dkv_get_set_del () =
  sanitized @@ fun () ->
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
  no_findings [ server; client ];
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
  sanitized @@ fun () ->
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
  no_findings [ server; client ];
  check_bool "large value roundtrip" true !ok

let test_dkv_persistence () =
  sanitized @@ fun () ->
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
  no_findings [ server; client ];
  match server.Demikernel.Boot.ssd with
  | Some ssd -> check_bool "AOF hit the device" true (Net.Ssd_sim.bytes_written ssd > 0)
  | None -> Alcotest.fail "no ssd"

let test_dkv_bench_runs_everywhere () =
  sanitized @@ fun () ->
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
      check_bool "bench finished" true !finished;
      no_findings [ server; client ])
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
  sanitized @@ fun () ->
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
  no_findings (client :: replicas);
  match !observed with
  | Some (version, value) ->
      check_int "version advanced" 4 version;
      Alcotest.(check string) "value incremented three times" "3" value
  | None -> Alcotest.fail "no final value"

let test_txnstore_replicates () =
  (* After a put, a fresh client reading via round-robin hits different
     replicas; all must return the value. *)
  sanitized @@ fun () ->
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
  no_findings (client :: replicas);
  check_int "three reads" 3 (List.length !reads);
  List.iter
    (fun r -> check_bool "every replica has it" true (r = Some (1, "everywhere")))
    !reads

let test_txnstore_ycsb_f () =
  sanitized @@ fun () ->
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
  no_findings (client :: replicas);
  check_int "txns measured" 50 (Metrics.Hdr.count lat);
  (* An RMW is at least two network round trips. *)
  check_bool "txn latency exceeds 2 RTT" true (Metrics.Hdr.p50 lat > 8_000)

let test_txnstore_short_frames () =
  (* Frames shorter than the key length they declare, or PUTs cut
     before their version, get the failure byte and leave the store
     alone; they used to raise out of the server coroutine. *)
  let store = Hashtbl.create 4 in
  (* Each request sits inside bytes that continue past it: the server
     reads only its own window. *)
  let handle s =
    Apps.Txnstore.handle_request ~store
      (Bytes.of_string ("pre" ^ s ^ "\x00\x00\x00\x00\x00\x00\x00\x00"))
      3 (String.length s)
  in
  let get = Apps.Txnstore.encode_get "key" in
  let put = Apps.Txnstore.encode_put "key" ~version:7 "value" in
  let cut s n = String.sub s 0 n in
  Alcotest.(check string) "truncated GET" "\x00" (handle (cut get (String.length get - 1)));
  Alcotest.(check string) "truncated PUT key" "\x00" (handle (cut put 4));
  Alcotest.(check string) "PUT with no version" "\x00" (handle (cut put 6));
  Alcotest.(check string) "PUT with half a version" "\x00" (handle (cut put 8));
  check_int "short frames stored nothing" 0 (Hashtbl.length store);
  Alcotest.(check string) "whole PUT acked" "\x01" (handle put);
  Alcotest.(check (option (pair int string)))
    "whole GET hits" (Some (7, "value"))
    (Apps.Txnstore.parse_get_response (handle get));
  (* The same truncated frame over the wire: the replica answers it and
     keeps serving the connection. *)
  sanitized @@ fun () ->
  let sim, replicas, client = txn_world Demikernel.Boot.Catnip_os in
  let replica = List.hd replicas in
  let replies = ref [] in
  Demikernel.Boot.run_app client (fun api ->
      let ch = Apps.Framing.connect api (Demikernel.Boot.endpoint replica 7447) in
      List.iter
        (fun msg ->
          Apps.Framing.send ch msg;
          replies := Apps.Framing.recv ch :: !replies)
        [ cut put 6; put; get ];
      Apps.Framing.close ch);
  List.iter Demikernel.Boot.start replicas;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  no_findings (client :: replicas);
  Alcotest.(check (list (option string)))
    "short PUT refused, then the connection still serves"

    [ Some "\x00"; Some "\x01"; Some (handle get) ]
    (List.rev !replies)

let suite =
  [
    Alcotest.test_case "framing roundtrip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing byte-by-byte" `Quick test_framing_fragmented;
    QCheck_alcotest.to_alcotest framing_random;
    QCheck_alcotest.to_alcotest framing_split_points;
    QCheck_alcotest.to_alcotest framing_view_matches_next;
    Alcotest.test_case "framing: a length prefix split across feeds" `Quick
      test_framing_split_prefix;
    Alcotest.test_case "framing is linear in the bytes fed" `Quick test_framing_linear;
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
    Alcotest.test_case "txnstore refuses short frames" `Quick test_txnstore_short_frames;
  ]
