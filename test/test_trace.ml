(* Demitrace: span recorder unit tests, op-span lifecycle over real
   libOS runs, the critical-path breakdown, the Chrome exporter and its
   validator, and the observer-effect-free contract (digest and RTT
   byte-identical with spans on or off). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- recorder units --- *)

let test_span_totals_and_capacity () =
  let s = Engine.Span.create ~capacity:2 () in
  Engine.Span.note s ~comp:Engine.Span.Libos ~owner:"h" ~label:"" ~t0:0 ~t1:10;
  Engine.Span.note s ~comp:Engine.Span.Wire ~owner:"f" ~label:"" ~t0:5 ~t1:25;
  Engine.Span.note s ~comp:Engine.Span.Libos ~owner:"h" ~label:"" ~t0:30 ~t1:31;
  check_int "kept intervals bounded by capacity" 2
    (List.length (Engine.Span.intervals s));
  check_int "dropped counted" 1 (Engine.Span.dropped s);
  check_int "totals accumulate past capacity" 11 (Engine.Span.total s Engine.Span.Libos);
  check_int "wire total" 20 (Engine.Span.total s Engine.Span.Wire);
  check_int "totals list covers all components" (List.length Engine.Span.components)
    (List.length (Engine.Span.totals s))

(* A delivered frame is stored once and read back both as a wire event
   and as the fabric's Wire interval; a dropped frame is no interval. *)
let test_span_wire_frames () =
  let s = Engine.Span.create ~capacity:3 () in
  Engine.Span.note_wire_drop s ~flow:9 ~src:"a" ~label:"frame" ~reason:"loss" ~at:0;
  Engine.Span.note s ~comp:Engine.Span.Libos ~owner:"h" ~label:"poll" ~t0:0 ~t1:4;
  Engine.Span.note_wire s ~flow:9 ~src:"a" ~dst:"b" ~label:"frame" ~t0:5 ~t1:25;
  check_int "wire total from the delivered frame" 20 (Engine.Span.total s Engine.Span.Wire);
  check_int "both frames are wire events" 2 (List.length (Engine.Span.wire_events s));
  let wire = List.filter (fun i -> i.Engine.Span.comp = Engine.Span.Wire) (Engine.Span.intervals s) in
  Alcotest.(check (list (pair string (pair int int))))
    "the delivered frame is the fabric's Wire interval" [ ("fabric", (5, 25)) ]
    (List.map (fun i -> Engine.Span.(i.owner, (i.t0, i.t1))) wire);
  Engine.Span.note_wire_drop s ~flow:9 ~src:"a" ~label:"frame" ~reason:"loss" ~at:31;
  check_int "an overwritten drop is no dropped interval" 0 (Engine.Span.dropped s);
  Engine.Span.note_wire_drop s ~flow:9 ~src:"a" ~label:"frame" ~reason:"loss" ~at:32;
  check_int "overwritten intervals counted" 1 (Engine.Span.dropped s)

let test_op_lifecycle_units () =
  let s = Engine.Span.create () in
  Engine.Span.open_op s ~key:7 ~kind:"op" ~owner:"a" ~now:100;
  Engine.Span.open_op s ~key:7 ~kind:"op" ~owner:"b" ~now:100;
  Engine.Span.label_op s ~key:7 ~owner:"a" "push";
  Engine.Span.label_op s ~key:99 ~owner:"a" "ghost" (* unknown: ignored *);
  Engine.Span.close_op s ~key:7 ~owner:"a" ~now:150 ~ok:true;
  Engine.Span.close_op s ~key:7 ~owner:"a" ~now:999 ~ok:false (* idempotent *);
  Engine.Span.close_op s ~key:42 ~owner:"a" ~now:1 ~ok:true (* unknown: ignored *);
  check_int "two ops opened (same qtoken, distinct owners)" 2 (Engine.Span.op_count s);
  check_int "owner b's span still open" 1 (List.length (Engine.Span.open_ops s));
  let a = List.find (fun op -> op.Engine.Span.op_owner = "a") (Engine.Span.ops s) in
  Alcotest.(check string) "labelled post-hoc" "push" a.Engine.Span.op_kind;
  Alcotest.(check (option int)) "first close wins" (Some 150) a.Engine.Span.closed_at;
  check_bool "ok flag from first close" true a.Engine.Span.op_ok;
  Engine.Span.close_op s ~key:7 ~owner:"b" ~now:200 ~ok:false;
  let b = List.find (fun op -> op.Engine.Span.op_owner = "b") (Engine.Span.ops s) in
  check_bool "failed completion recorded" false b.Engine.Span.op_ok;
  check_int "no open spans left" 0 (List.length (Engine.Span.open_ops s))

(* --- critical-path sweep --- *)

let test_attribute_priorities () =
  let s = Engine.Span.create () in
  (* Wire covers the whole window (async); CPU intervals carve it up,
     the most recently started CPU interval winning. *)
  Engine.Span.note s ~comp:Engine.Span.Wire ~owner:"f" ~label:"" ~t0:0 ~t1:100;
  Engine.Span.note s ~comp:Engine.Span.Libos ~owner:"h" ~label:"" ~t0:10 ~t1:30;
  Engine.Span.note s ~comp:Engine.Span.Proto ~owner:"h" ~label:"" ~t0:20 ~t1:25;
  let b = Harness.Fig_breakdown.attribute s ~w0:0 ~w1:100 in
  let get comp =
    match List.assoc_opt comp b.Harness.Fig_breakdown.components with Some n -> n | None -> 0
  in
  check_int "libos = [10,20) + [25,30)" 15 (get Engine.Span.Libos);
  check_int "proto = [20,25) (later t0 wins)" 5 (get Engine.Span.Proto);
  check_int "wire gets the async remainder" 80 (get Engine.Span.Wire);
  check_int "nothing unattributed" 0 b.Harness.Fig_breakdown.other;
  check_int "total is the window" 100 b.Harness.Fig_breakdown.total

let test_attribute_gaps_are_other () =
  let s = Engine.Span.create () in
  Engine.Span.note s ~comp:Engine.Span.Device ~owner:"nic" ~label:"" ~t0:10 ~t1:20;
  let b = Harness.Fig_breakdown.attribute s ~w0:0 ~w1:50 in
  check_int "covered segment attributed" 10
    (match List.assoc_opt Engine.Span.Device b.Harness.Fig_breakdown.components with
    | Some n -> n
    | None -> 0);
  check_int "uncovered time is other/idle" 40 b.Harness.Fig_breakdown.other;
  check_int "window clipping" 50 b.Harness.Fig_breakdown.total

(* --- lifecycle over real libOS runs --- *)

let flavors = Test_observe.flavors
let spans_arm = { Harness.Observe.off with spans = true }

(* One spans-armed echo of [count] requests. *)
let traced ~count flavor = Harness.Observe.run spans_arm (Test_observe.echo ~count flavor)

let test_echo_leaves_only_the_accept_open () =
  List.iter
    (fun flavor ->
      let spans = Option.get (traced ~count:4 flavor).spans in
      let opens = Engine.Span.open_ops spans in
      let name = Demikernel.Boot.flavor_name flavor in
      check_int (name ^ ": one op still open at teardown") 1 (List.length opens);
      Alcotest.(check string)
        (name ^ ": it is the server's standing accept")
        "accept" (List.hd opens).Engine.Span.op_kind;
      check_bool
        (name ^ ": ops were recorded")
        true
        (Engine.Span.op_count spans > 8))
    flavors

(* Catnip host [index] in a builder's world. *)
let catnip (w : Harness.Observe.world) index =
  Demikernel.Boot.make w.sim w.fabric ~index Demikernel.Boot.Catnip_os

let test_wait_any_timeout_leaves_pop_open () =
  (* A pop whose data never arrives: wait_any_t times out, the token
     stays unredeemed, and teardown reports exactly that span open (the
     server accepts exactly once, so its accept span completes). *)
  let timed_out = ref false in
  let r =
    Harness.Observe.build spans_arm
      (Harness.Observe.cell "unanswered pop" (fun w ->
           let server = catnip w 1 in
           let client = catnip w 2 in
           Demikernel.Boot.run_app server (fun api ->
               let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
               api.Demikernel.Pdpix.bind qd (Demikernel.Boot.endpoint server 7);
               api.Demikernel.Pdpix.listen qd ~backlog:8;
               match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.accept qd) with
               | Demikernel.Pdpix.Accepted _ -> () (* never push anything back *)
               | _ -> Alcotest.fail "accept failed");
           Demikernel.Boot.run_app client (fun api ->
               let qd = api.Demikernel.Pdpix.socket Demikernel.Pdpix.Tcp in
               (match
                  api.Demikernel.Pdpix.wait
                    (api.Demikernel.Pdpix.connect qd (Demikernel.Boot.endpoint server 7))
                with
               | Demikernel.Pdpix.Connected -> ()
               | _ -> Alcotest.fail "connect failed");
               let qt = api.Demikernel.Pdpix.pop qd in
               match api.Demikernel.Pdpix.wait_any_t [| qt |] ~timeout_ns:1_000_000 with
               | None -> timed_out := true
               | Some _ -> Alcotest.fail "pop completed without a sender");
           Demikernel.Boot.start server;
           Demikernel.Boot.start client;
           [ ("server", server); ("client", client) ]))
  in
  check_bool "wait_any_t timed out" true !timed_out;
  let kinds =
    List.sort String.compare
      (List.map (fun op -> op.Engine.Span.op_kind) (Engine.Span.open_ops (Option.get r.spans)))
  in
  Alcotest.(check (list string)) "timed-out pop (and nothing else) left open" [ "pop" ] kinds

let test_clean_shutdown_leaves_no_open_spans () =
  (* Both sides complete every op they submit: zero leaks. *)
  let r =
    Harness.Observe.build spans_arm
      (Harness.Observe.cell "push and pop on a queue()" (fun w ->
           let node = catnip w 1 in
           Demikernel.Boot.run_app node (fun api ->
               let q = api.Demikernel.Pdpix.queue () in
               let buf = api.Demikernel.Pdpix.alloc_str "ping" in
               (match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.push q [ buf ]) with
               | Demikernel.Pdpix.Pushed -> ()
               | _ -> Alcotest.fail "push failed");
               match api.Demikernel.Pdpix.wait (api.Demikernel.Pdpix.pop q) with
               | Demikernel.Pdpix.Popped sga -> List.iter api.Demikernel.Pdpix.free sga
               | _ -> Alcotest.fail "pop failed");
           Demikernel.Boot.start node;
           [ ("node", node) ]))
  in
  let spans = Option.get r.spans in
  check_int "every op span closed" 0 (List.length (Engine.Span.open_ops spans));
  check_int "push and pop were spanned" 2 (Engine.Span.op_count spans)

(* --- observer-effect-free contract --- *)

let test_spans_do_not_perturb_the_simulation () =
  ignore (Test_observe.gate spans_arm Test_observe.echo)

let test_breakdown_sums_to_rtt_exactly () =
  List.iter
    (fun flavor ->
      let r = traced ~count:4 flavor in
      let rtt = List.nth r.latencies 3 in
      let b = Harness.Fig_breakdown.last_rtt r in
      let sum =
        List.fold_left
          (fun acc (_, ns) -> acc + ns)
          b.Harness.Fig_breakdown.other b.Harness.Fig_breakdown.components
      in
      let name = Demikernel.Boot.flavor_name flavor in
      check_int (name ^ ": components + other = RTT") rtt sum;
      check_int (name ^ ": total field agrees") rtt b.Harness.Fig_breakdown.total;
      List.iter
        (fun (_, ns) -> check_bool (name ^ ": nonnegative share") true (ns >= 0))
        b.Harness.Fig_breakdown.components)
    flavors

(* --- Chrome export --- *)

let test_chrome_export_validates () =
  let r = traced ~count:4 Demikernel.Boot.Catnip_os in
  let json =
    Harness.Chrome_trace.export
      ~extra:[ ("demitrace", Harness.Fig_breakdown.breakdown_json (Harness.Fig_breakdown.last_rtt r)) ]
      (Option.get r.spans)
  in
  match Harness.Chrome_trace.validate json with
  | Ok n -> check_bool "a real trace has many events" true (n > 100)
  | Error why -> Alcotest.fail ("exported trace failed validation: " ^ why)

let replace_first ~needle ~by s =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n))

let test_validator_rejects_tampering () =
  let r = traced ~count:2 Demikernel.Boot.Catnip_os in
  let json = Harness.Chrome_trace.export (Option.get r.spans) in
  check_bool "truncated file rejected" true
    (match Harness.Chrome_trace.validate (String.sub json 0 (String.length json / 2)) with
    | Error _ -> true
    | Ok _ -> false);
  (match replace_first ~needle:"\"ph\":\"E\"" ~by:"\"ph\":\"B\"" json with
  | Some tampered ->
      check_bool "unbalanced B/E rejected" true
        (match Harness.Chrome_trace.validate tampered with Error _ -> true | Ok _ -> false)
  | None -> Alcotest.fail "no E event to tamper with");
  (match replace_first ~needle:"\"ph\":\"B\"" ~by:"\"ph\":\"Q\"" json with
  | Some tampered ->
      check_bool "unknown phase rejected" true
        (match Harness.Chrome_trace.validate tampered with Error _ -> true | Ok _ -> false)
  | None -> Alcotest.fail "no B event to tamper with");
  check_bool "non-JSON rejected" true
    (match Harness.Chrome_trace.validate "not json at all" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "missing traceEvents rejected" true
    (match Harness.Chrome_trace.validate "{\"events\":[]}" with
    | Error _ -> true
    | Ok _ -> false)

(* --- stats registry over a run --- *)

let test_stats_registry_populated () =
  let reg = Harness.Stats.collect (traced ~count:8 Demikernel.Boot.Catnip_os) in
  Alcotest.(check (option int))
    "lossless run drops nothing" (Some 0)
    (Metrics.Registry.value reg "fabric/frames_dropped");
  check_bool "frames were carried" true
    (match Metrics.Registry.value reg "fabric/frames_delivered" with
    | Some n -> n > 0
    | None -> false);
  check_bool "op spans counted" true
    (match Metrics.Registry.value reg "span/ops" with Some n -> n > 16 | None -> false);
  check_bool "per-host scheduler counter present" true
    (match Metrics.Registry.value reg "catnip-2/sched/context_switches" with
    | Some n -> n > 0
    | None -> false);
  check_bool "wire time attributed" true
    (match Metrics.Registry.value reg "span/wire_ns" with Some n -> n > 0 | None -> false);
  check_bool "conn census exported" true
    (match Metrics.Registry.value reg "catnip-1/tcp/conns_opened" with
    | Some n -> n > 0
    | None -> false);
  check_bool "conn peak covers the echo conn" true
    (match Metrics.Registry.value reg "catnip-1/tcp/conns_peak" with
    | Some n -> n >= 1
    | None -> false);
  let names = Metrics.Registry.sorted_names reg in
  check_bool "iteration is name-sorted" true (names = List.sort String.compare names);
  check_int "client RTT histogram has every echo" 8
    (Metrics.Hdr.count (Metrics.Registry.histogram reg "catnip-2/echo/rtt_ns"))

let suite =
  [
    Alcotest.test_case "span totals and ring capacity" `Quick test_span_totals_and_capacity;
    Alcotest.test_case "span wire frames are wire intervals" `Quick test_span_wire_frames;
    Alcotest.test_case "op span lifecycle units" `Quick test_op_lifecycle_units;
    Alcotest.test_case "sweep: CPU beats async, latest t0 wins" `Quick
      test_attribute_priorities;
    Alcotest.test_case "sweep: gaps become other/idle" `Quick test_attribute_gaps_are_other;
    Alcotest.test_case "echo leaves only the standing accept open" `Quick
      test_echo_leaves_only_the_accept_open;
    Alcotest.test_case "wait_any_t timeout leaves the pop span open" `Quick
      test_wait_any_timeout_leaves_pop_open;
    Alcotest.test_case "clean shutdown leaves no open spans" `Quick
      test_clean_shutdown_leaves_no_open_spans;
    Alcotest.test_case "spans do not perturb digest or RTT" `Quick
      test_spans_do_not_perturb_the_simulation;
    Alcotest.test_case "breakdown sums to the RTT exactly" `Quick
      test_breakdown_sums_to_rtt_exactly;
    Alcotest.test_case "chrome export validates" `Quick test_chrome_export_validates;
    Alcotest.test_case "validator rejects tampering" `Quick test_validator_rejects_tampering;
    Alcotest.test_case "stats registry populated" `Quick test_stats_registry_populated;
  ]
