(* Tests for the storage-stack extensions: log cursors (seek/truncate,
   §6.4) and crash recovery — a rebooted node re-opens its Cattree logs
   and finds every acked record. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

let world () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  (sim, fabric)

let push_record api log record =
  let buf = api.Demikernel.Pdpix.alloc_str record in
  match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push log [ buf ]) with
  | Demikernel.Pdpix.Pushed -> api.Demikernel.Pdpix.free buf
  | _ -> failwith "push failed"

let pop_record api log =
  match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop log) with
  | Demikernel.Pdpix.Popped sga ->
      let s = Demikernel.Pdpix.sga_to_string sga in
      List.iter api.Demikernel.Pdpix.free sga;
      Some s
  | Demikernel.Pdpix.Failed _ -> None
  | _ -> failwith "pop failed"

let test_seek_rewinds () =
  let sim, fabric = world () in
  let node = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let reads = ref [] in
  Demikernel.Boot.run_app node (fun api ->
      let log = api.Demikernel.Pdpix.open_log "cursor.log" in
      List.iter (push_record api log) [ "one"; "two"; "three" ];
      ignore (pop_record api log);
      ignore (pop_record api log);
      (* Rewind to the start and read everything again. *)
      api.Demikernel.Pdpix.seek log 0;
      let rec all () =
        match pop_record api log with
        | Some r ->
            reads := r :: !reads;
            all ()
        | None -> ()
      in
      all ());
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  Alcotest.(check (list string)) "seek rewound to the start" [ "one"; "two"; "three" ]
    (List.rev !reads)

let test_truncate_garbage_collects () =
  let sim, fabric = world () in
  let node = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let reads = ref [] in
  Demikernel.Boot.run_app node (fun api ->
      let log = api.Demikernel.Pdpix.open_log "gc.log" in
      List.iter (push_record api log) [ "old-a"; "old-b"; "kept" ];
      (* Records are framed as [u32 len][payload]: the first two occupy
         (4+5)*2 = 18 bytes. *)
      api.Demikernel.Pdpix.truncate log 18;
      api.Demikernel.Pdpix.seek log 0;
      let rec all () =
        match pop_record api log with
        | Some r ->
            reads := r :: !reads;
            all ()
        | None -> ()
      in
      all ());
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  Alcotest.(check (list string)) "truncated records unreadable" [ "kept" ] (List.rev !reads)

let test_cattree_recovery_after_reboot () =
  let sim, fabric = world () in
  let node1 = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let wrote = ref false in
  Demikernel.Boot.run_app node1 (fun api ->
      let log = api.Demikernel.Pdpix.open_log "wal" in
      List.iter (push_record api log) [ "first"; "second"; "third" ];
      wrote := true);
  Demikernel.Boot.start node1;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "writer finished" true !wrote;
  (* Fail-stop, then "reboot": a fresh node over the same device. *)
  Demikernel.Boot.crash node1;
  let ssd = match node1.Demikernel.Boot.ssd with Some s -> s | None -> assert false in
  let node2 = Demikernel.Boot.make sim fabric ~index:5 ~ssd Demikernel.Boot.Catnip_os in
  let recovered = ref [] in
  Demikernel.Boot.run_app node2 (fun api ->
      let log = api.Demikernel.Pdpix.open_log "wal" in
      let rec all () =
        match pop_record api log with
        | Some r ->
            recovered := r :: !recovered;
            all ()
        | None -> ()
      in
      all ();
      (* The recovered log must also accept new appends after the old
         tail. *)
      push_record api log "fourth";
      match pop_record api log with Some r -> recovered := r :: !recovered | None -> ());
  Demikernel.Boot.start node2;
  Engine.Sim.run ~until:(Engine.Clock.s 4) sim;
  Alcotest.(check (list string)) "all records recovered in order"
    [ "first"; "second"; "third"; "fourth" ]
    (List.rev !recovered)

let test_dkv_crash_recovery () =
  (* End to end: a KV server persists SETs; a replacement server booted
     on the crashed server's device serves the same data. *)
  let sim, fabric = world () in
  let server1 = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let client1 = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server1 (Apps.Dkv.server ~port:6379 ~persist:true);
  let acked = ref false in
  Demikernel.Boot.run_app client1 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server1 6379) in
      assert (Apps.Dkv.set c "account" "42" = Apps.Dkv.Ok);
      assert (Apps.Dkv.set c "city" "redmond" = Apps.Dkv.Ok);
      assert (Apps.Dkv.set c "account" "43" = Apps.Dkv.Ok) (* overwrite *);
      Apps.Dkv.client_close c;
      acked := true);
  Demikernel.Boot.start server1;
  Demikernel.Boot.start client1;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "sets acked" true !acked;
  (* Crash; replacement server on the same device at a new address. *)
  Demikernel.Boot.crash server1;
  let ssd = match server1.Demikernel.Boot.ssd with Some s -> s | None -> assert false in
  let server2 = Demikernel.Boot.make sim fabric ~index:6 ~ssd Demikernel.Boot.Catnip_os in
  let client2 = Demikernel.Boot.make sim fabric ~index:7 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server2 (Apps.Dkv.server ~port:6379 ~persist:true);
  let results = ref [] in
  Demikernel.Boot.run_app client2 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server2 6379) in
      results := [ Apps.Dkv.get c "account"; Apps.Dkv.get c "city" ];
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server2;
  Demikernel.Boot.start client2;
  Engine.Sim.run ~until:(Engine.Clock.s 6) sim;
  match !results with
  | [ account; city ] ->
      check_bool "latest account value survived" true (account = (Apps.Dkv.Ok, "43"));
      check_bool "city survived" true (city = (Apps.Dkv.Ok, "redmond"))
  | _ -> Alcotest.fail "client did not run"

let test_aof_compaction_and_recovery () =
  (* Hammer a handful of keys so the AOF grows far beyond the live data:
     the server must compact (persisting the truncation floor), and a
     rebooted replacement must recover the latest values from the
     snapshot. *)
  let sim, fabric = world () in
  let server1 = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let client1 = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server1 (Apps.Dkv.server ~port:6379 ~persist:true);
  let rounds = 300 in
  Demikernel.Boot.run_app client1 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server1 6379) in
      for i = 1 to rounds do
        assert (Apps.Dkv.set c (Printf.sprintf "k%d" (i mod 4)) (String.make 1000 'v') = Apps.Dkv.Ok)
      done;
      assert (Apps.Dkv.set c "final" "sentinel" = Apps.Dkv.Ok);
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server1;
  Demikernel.Boot.start client1;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  let ssd = match server1.Demikernel.Boot.ssd with Some s -> s | None -> assert false in
  (* The persisted superblock floor moved: compaction really truncated. *)
  let sb = Net.Ssd_sim.contents ssd ~off:0 ~len:8 in
  let start = Net.Wire.get_u32 (Bytes.unsafe_of_string sb) 4 in
  check_bool (Printf.sprintf "truncation floor persisted (start=%d)" start) true (start > 8);
  Demikernel.Boot.crash server1;
  let server2 = Demikernel.Boot.make sim fabric ~index:6 ~ssd Demikernel.Boot.Catnip_os in
  let client2 = Demikernel.Boot.make sim fabric ~index:7 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server2 (Apps.Dkv.server ~port:6379 ~persist:true);
  let ok = ref 0 in
  Demikernel.Boot.run_app client2 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server2 6379) in
      for i = 0 to 3 do
        match Apps.Dkv.get c (Printf.sprintf "k%d" i) with
        | Apps.Dkv.Ok, v when String.length v = 1000 -> incr ok
        | _ -> ()
      done;
      (match Apps.Dkv.get c "final" with
      | Apps.Dkv.Ok, "sentinel" -> incr ok
      | _ -> ());
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server2;
  Demikernel.Boot.start client2;
  Engine.Sim.run ~until:(Engine.Clock.s 20) sim;
  check_int "all keys recovered through the snapshot" 5 !ok

(* A Dkv server persisting to its own SSD: 640 SETs of 1,000 B over 64
   keys, enough to compact the log. Returns the disk. *)
let compaction_world () =
  let keys = 64 in
  let sim, fabric = world () in
  let ssd = Net.Ssd_sim.create sim ~cost:bare ~capacity:(1 lsl 26) in
  let server = Demikernel.Boot.make sim fabric ~index:1 ~ssd Demikernel.Boot.Catnip_os in
  let client = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnip_os in
  Demikernel.Boot.run_app server (Apps.Dkv.server ~port:6379 ~persist:true);
  Demikernel.Boot.run_app client (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server 6379) in
      for i = 1 to 10 * keys do
        assert (Apps.Dkv.set c (Printf.sprintf "k%d" (i mod keys)) (String.make 1000 'v') = Apps.Dkv.Ok)
      done;
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  ssd

(* The compacting world twice from one seed in one process: the disk
   must hold the same bytes. `dune runtest` runs with OCAMLRUNPARAM=R,
   so each run's Hashtbls hash with a fresh seed; a snapshot written in
   hash order lays its 64 keys out differently and fails this. *)
let test_compaction_same_bytes () =
  let run () =
    let ssd = compaction_world () in
    Net.Ssd_sim.contents ssd ~off:0 ~len:(Net.Ssd_sim.bytes_written ssd)
  in
  let first = run () in
  let start = Net.Wire.get_u32 (Bytes.unsafe_of_string first) 4 in
  check_bool (Printf.sprintf "compacted (start=%d)" start) true (start > 8);
  check_bool "same bytes on disk" true (String.equal first (run ()))

let test_catnap_dkv_crash_recovery () =
  (* The same crash-recovery story on the kernel path: Catnap's log is
     an ext4-style file read back with pread. *)
  let sim, fabric = world () in
  let server1 = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnap_os in
  let client1 = Demikernel.Boot.make sim fabric ~index:2 Demikernel.Boot.Catnap_os in
  Demikernel.Boot.run_app server1 (Apps.Dkv.server ~port:6379 ~persist:true);
  let acked = ref false in
  Demikernel.Boot.run_app client1 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server1 6379) in
      assert (Apps.Dkv.set c "durable" "yes" = Apps.Dkv.Ok);
      Apps.Dkv.client_close c;
      acked := true);
  Demikernel.Boot.start server1;
  Demikernel.Boot.start client1;
  Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
  check_bool "acked" true !acked;
  Demikernel.Boot.crash server1;
  let ssd = match server1.Demikernel.Boot.ssd with Some s -> s | None -> assert false in
  let server2 = Demikernel.Boot.make sim fabric ~index:6 ~ssd Demikernel.Boot.Catnap_os in
  let client2 = Demikernel.Boot.make sim fabric ~index:7 Demikernel.Boot.Catnap_os in
  Demikernel.Boot.run_app server2 (Apps.Dkv.server ~port:6379 ~persist:true);
  let got = ref None in
  Demikernel.Boot.run_app client2 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server2 6379) in
      got := Some (Apps.Dkv.get c "durable");
      (* Appends after a reboot must land past the recovered tail, not
         clobber it. *)
      assert (Apps.Dkv.set c "post-reboot" "also" = Apps.Dkv.Ok);
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server2;
  Demikernel.Boot.start client2;
  Engine.Sim.run ~until:(Engine.Clock.s 6) sim;
  check_bool "recovered on the kernel path" true (!got = Some (Apps.Dkv.Ok, "yes"));
  (* Third boot sees both records. *)
  Demikernel.Boot.crash server2;
  let server3 = Demikernel.Boot.make sim fabric ~index:8 ~ssd Demikernel.Boot.Catnap_os in
  let client3 = Demikernel.Boot.make sim fabric ~index:9 Demikernel.Boot.Catnap_os in
  Demikernel.Boot.run_app server3 (Apps.Dkv.server ~port:6379 ~persist:true);
  let got3 = ref [] in
  Demikernel.Boot.run_app client3 (fun api ->
      let c = Apps.Dkv.client_connect api (Demikernel.Boot.endpoint server3 6379) in
      got3 := [ Apps.Dkv.get c "durable"; Apps.Dkv.get c "post-reboot" ];
      Apps.Dkv.client_close c);
  Demikernel.Boot.start server3;
  Demikernel.Boot.start client3;
  Engine.Sim.run ~until:(Engine.Clock.s 10) sim;
  check_bool "both generations survive" true
    (!got3 = [ (Apps.Dkv.Ok, "yes"); (Apps.Dkv.Ok, "also") ])

let test_seek_bounds_checked () =
  let sim, fabric = world () in
  let node = Demikernel.Boot.make sim fabric ~index:1 ~with_disk:true Demikernel.Boot.Catnip_os in
  let raised = ref false in
  Demikernel.Boot.run_app node (fun api ->
      let log = api.Demikernel.Pdpix.open_log "bounds.log" in
      match api.Demikernel.Pdpix.seek log (-1) with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_bool "negative seek rejected" true !raised

let test_net_libos_rejects_log_calls () =
  let sim, fabric = world () in
  let node = Demikernel.Boot.make sim fabric ~index:1 Demikernel.Boot.Catnip_os in
  let raised = ref 0 in
  Demikernel.Boot.run_app node (fun api ->
      (try ignore (api.Demikernel.Pdpix.open_log "nope") with Demikernel.Pdpix.Unsupported _ -> incr raised);
      (try api.Demikernel.Pdpix.seek 1 0 with Demikernel.Pdpix.Unsupported _ -> incr raised);
      try api.Demikernel.Pdpix.truncate 1 0 with Demikernel.Pdpix.Unsupported _ -> incr raised);
  Demikernel.Boot.start node;
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_int "all three unsupported" 3 !raised

let suite =
  [
    Alcotest.test_case "seek rewinds the read cursor" `Quick test_seek_rewinds;
    Alcotest.test_case "truncate garbage-collects" `Quick test_truncate_garbage_collects;
    Alcotest.test_case "cattree recovers after reboot" `Quick test_cattree_recovery_after_reboot;
    Alcotest.test_case "dkv crash recovery end-to-end" `Quick test_dkv_crash_recovery;
    Alcotest.test_case "AOF compaction + recovery" `Quick test_aof_compaction_and_recovery;
    Alcotest.test_case "catnap dkv crash recovery" `Quick test_catnap_dkv_crash_recovery;
    Alcotest.test_case "seek bounds checked" `Quick test_seek_bounds_checked;
    Alcotest.test_case "network libOS rejects log calls" `Quick test_net_libos_rejects_log_calls;
    Alcotest.test_case "dkv compaction: same seed, same bytes on disk" `Quick
      test_compaction_same_bytes;
  ]

