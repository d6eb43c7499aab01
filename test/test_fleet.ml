(* Demifleet tests: causal-context framing round-trips, quorum and
   relay DAG stitching (including the sub-quorum straggler and per-edge
   wire evidence), critical-path exactness, the fleet profile's
   sum-to-end-to-end invariant, observer-effect freedom of the always-on
   context, and the Chrome request-lane export. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- framing: the 16-byte context round-trips ---------- *)

let test_ctx_roundtrip () =
  let frame = Apps.Framing.encode_ctx ~req:7 ~msg:9 ~parent:3 ~hop:2 "payload!" in
  let a = Apps.Framing.create () in
  (match Apps.Framing.next a with Some _ -> Alcotest.fail "empty accum" | None -> ());
  Apps.Framing.feed a frame;
  (match Apps.Framing.next a with
  | Some p -> check_string "payload" "payload!" p
  | None -> Alcotest.fail "no frame");
  let c = Apps.Framing.last a in
  check_int "req" 7 c.Apps.Framing.c_req;
  check_int "msg" 9 c.Apps.Framing.c_msg;
  check_int "parent" 3 c.Apps.Framing.c_parent;
  check_int "hop" 2 c.Apps.Framing.c_hop;
  (* A zero-context frame (recorder off) is the same length: the wire
     format does not depend on whether anyone is watching. *)
  check_int "frame length independent of ctx"
    (String.length frame)
    (String.length (Apps.Framing.encode "payload!"))

(* ---------- txnstore quorum under spans + flight ---------- *)

let recorders = { Harness.Observe.traced with causal = true; spans = true; flight = Some 4096 }

let quorum_run () =
  Harness.Observe.run recorders
    {
      (Harness.Observe.txnstore Demikernel.Boot.Catnip_os) with
      app = Harness.Observe.Txnstore { replicas = 3; quorum = Some 2 };
      count = 6;
    }

let test_quorum_dag () =
  let r = quorum_run () in
  check_int "all puts measured" 6 (List.length r.latencies);
  let causal = Option.get r.causal in
  let spans = Option.get r.spans in
  (* Leak-free teardown: every op span closed, except the servers'
     standing accepts (they wait for connections that never come). *)
  check_int "no op spans left open (beyond standing accepts)" 0
    (List.length
       (List.filter
          (fun (o : Engine.Span.op) -> o.op_kind <> "accept")
          (Engine.Span.open_ops spans)));
  let reqs = Harness.Fleet.dag ~spans causal in
  check_int "one DAG per put" 6 (List.length reqs);
  List.iter
    (fun (q : Harness.Fleet.request) ->
      check_bool "critical path sums exactly" true (Harness.Fleet.critical_exact q);
      (* Every replica appears as a destination — including replica3,
         the straggler outside the quorum of 2. *)
      List.iter
        (fun rep ->
          check_bool (rep ^ " stitched into DAG") true
            (List.exists (fun (e : Harness.Fleet.edge) -> String.equal e.e_dst rep) q.r_edges))
        [ "replica1"; "replica2"; "replica3" ];
      (* Per-hop wire evidence: each edge is witnessed by at least one
         frame journey on the wire. *)
      List.iter
        (fun (e : Harness.Fleet.edge) ->
          check_bool
            (Printf.sprintf "edge %s->%s has wire evidence" e.e_src e.e_dst)
            true
            (e.e_evidence <> []))
        q.r_edges)
    reqs;
  (* The straggler's ack drains lazily: some request's events include a
     Received that lands after that request's End. *)
  check_bool "straggler ack lands after End" true
    (List.exists
       (fun (q : Harness.Fleet.request) ->
         List.exists
           (fun (e : Engine.Causal.event) ->
             e.ev_kind = Engine.Causal.Received && e.ev_time > q.r_end)
           q.r_events)
       reqs)

let test_quorum_profile_exact () =
  let r = quorum_run () in
  let reqs = Harness.Fleet.dag ?spans:r.spans (Option.get r.causal) in
  let p = Harness.Fleet.profile ~app:"txnstore" reqs in
  check_int "profile counts every request" 6 p.Harness.Fleet.p_requests;
  check_bool "row totals sum to end-to-end total" true (Harness.Fleet.profile_exact p);
  check_int "e2e total matches DAG spans" p.Harness.Fleet.p_e2e_total
    (List.fold_left (fun n q -> n + (q.Harness.Fleet.r_end - q.Harness.Fleet.r_begin)) 0 reqs)

(* ---------- relay fan-out ---------- *)

let test_relay_dag () =
  let r =
    Harness.Observe.run recorders
      { (Harness.Observe.relay Demikernel.Boot.Catnip_os) with count = 5 }
  in
  check_int "all messages measured" 5 (List.length r.latencies);
  let spans = Option.get r.spans in
  (* Leak-free teardown: the only op left open is the relay server's
     standing pop, waiting for traffic that never comes. *)
  (match Engine.Span.open_ops spans with
  | [ o ] when o.Engine.Span.op_kind = "pop" && o.Engine.Span.op_owner = "relay" -> ()
  | l -> Alcotest.failf "unexpected open ops at teardown: %d" (List.length l));
  let reqs = Harness.Fleet.dag ~spans (Option.get r.causal) in
  check_int "one DAG per message" 5 (List.length reqs);
  List.iter
    (fun (q : Harness.Fleet.request) ->
      check_bool "critical path sums exactly" true (Harness.Fleet.critical_exact q);
      (* Zero-copy fan-out: the same msg id crosses two hops. *)
      check_int "two edges per request" 2 (List.length q.r_edges);
      match q.r_edges with
      | [ a; b ] ->
          check_int "same message id across hops" a.Harness.Fleet.e_msg b.Harness.Fleet.e_msg;
          check_string "hop 1 enters the relay" "relay" a.Harness.Fleet.e_dst;
          check_string "hop 2 leaves the relay" "relay" b.Harness.Fleet.e_src;
          check_int "hop counter increments" (a.Harness.Fleet.e_hop + 1) b.Harness.Fleet.e_hop;
          List.iter
            (fun (e : Harness.Fleet.edge) ->
              check_bool "edge has wire evidence" true (e.e_evidence <> []))
            q.r_edges
      | _ -> Alcotest.fail "expected exactly two edges")
    reqs

(* ---------- observer-effect freedom ---------- *)

let test_observer_effect_free () =
  ignore
    (Test_observe.gate
       { Harness.Observe.off with causal = true; spans = true }
       (fun flavor -> { (Harness.Observe.txnstore flavor) with count = 4 }))

(* ---------- chrome export ---------- *)

let test_chrome_export_valid () =
  let r = quorum_run () in
  let reqs = Harness.Fleet.dag ?spans:r.spans (Option.get r.causal) in
  let json = Harness.Fleet.chrome_export ~app:"txnstore" reqs in
  match Harness.Chrome_trace.validate json with
  | Ok n -> check_bool "events present" true (n > 0)
  | Error e -> Alcotest.fail ("fleet chrome export invalid: " ^ e)

(* ---------- determinism ---------- *)

let test_fleet_deterministic () =
  let fingerprint () =
    let r = quorum_run () in
    let reqs =
      Harness.Fleet.dag ?spans:r.spans (Option.get r.causal)
    in
    ( Harness.Observe.digest r,
      r.latencies,
      List.map
        (fun (q : Harness.Fleet.request) ->
          ( q.r_id, q.r_begin, q.r_end,
            List.map
              (fun (s : Harness.Fleet.seg) -> (s.s_host, s.s_comp, s.s_hop, s.s_t0, s.s_t1))
              q.r_critical ))
        reqs )
  in
  check_bool "two runs produce identical DAGs" true (fingerprint () = fingerprint ())

let suite =
  [
    Alcotest.test_case "causal ctx framing round-trip" `Quick test_ctx_roundtrip;
    Alcotest.test_case "quorum DAG stitches every replica" `Quick test_quorum_dag;
    Alcotest.test_case "fleet profile sums exactly" `Quick test_quorum_profile_exact;
    Alcotest.test_case "relay fan-out DAG" `Quick test_relay_dag;
    Alcotest.test_case "causal tracing is observer-effect-free" `Quick test_observer_effect_free;
    Alcotest.test_case "fleet chrome export validates" `Quick test_chrome_export_valid;
    Alcotest.test_case "fleet DAGs deterministic" `Quick test_fleet_deterministic;
  ]
