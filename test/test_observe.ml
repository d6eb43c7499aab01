(* The observer-effect gate: Harness.Observe.check over every flavor and
   scenario, and proof that it can fail. The per-recorder rows of the
   matrix live with each recorder's tests and call [gate] below. *)

let check_bool = Alcotest.(check bool)

let flavors =
  [ Demikernel.Boot.Catnap_os; Demikernel.Boot.Catnip_os; Demikernel.Boot.Catmint_os ]

(* Observe.check must pass for [arm] on [scenario flavor], every flavor;
   returns the armed runs for recorder-specific assertions. *)
let gate ?(flavors = flavors) arm scenario =
  List.map
    (fun flavor ->
      match Harness.Observe.check arm (Harness.Observe.of_scenario (scenario flavor)) with
      | Ok r -> r
      | Error why -> Alcotest.fail why)
    flavors

let udp_flavors = [ Demikernel.Boot.Catnap_os; Demikernel.Boot.Catnip_os ]
let echo ?(count = 8) flavor = { (Harness.Observe.echo flavor) with count }

let everything =
  {
    Harness.Observe.off with
    slo_ns = Some 20_000;
    flight = Some 1024;
    causal = true;
    capture = true;
    timeline = Some 10_000;
    oracle = true;
  }

let test_every_recorder_at_once () =
  List.iter
    (fun (flavors, scenario) ->
      List.iter
        (fun (r : Harness.Observe.run) ->
          check_bool "every recorder present" true
            (r.spans <> None && r.flight <> None && r.causal <> None && r.capture <> None
           && r.timeline <> None);
          Alcotest.(check (option int)) "ownership protocol clean" (Some 0) r.violations)
        (gate ~flavors everything scenario))
    [
      (flavors, fun f -> echo f);
      (flavors, fun f -> { (Harness.Observe.txnstore f) with count = 4 });
      (* Datagram scenarios: Catmint's RDMA transport is message-based. *)
      ( udp_flavors,
        fun f -> { (echo f) with app = Harness.Observe.Echo Harness.Observe.Echo_udp } );
      (udp_flavors, fun f -> { (Harness.Observe.relay f) with count = 4 });
    ]

(* Every stream at a capacity the run overflows: the rings wrap in the
   same run, and the gate still holds — streams never share storage, so
   one ring overwriting cannot change another's contents. Echo sends no
   causal contexts, so the causal ring is checked on the txnstore run. *)
let test_every_stream_wraps () =
  let spans = ref None and causal = ref None in
  let probe sim =
    spans := Some (Engine.Sim.enable_spans ~capacity:8 sim);
    causal := Some (Engine.Sim.enable_causal ~capacity:8 sim)
  in
  let arm = { Harness.Observe.off with trace_capacity = Some 64; flight = Some 4; probe = Some probe } in
  let wrapped name log = check_bool (name ^ " ring wrapped") true (Engine.Log.dropped log > 0) in
  List.iter
    (fun (contexts, scenario) ->
      List.iter
        (fun (r : Harness.Observe.run) ->
          wrapped "trace" (Option.get r.trace);
          wrapped "flight" (Option.get r.flight);
          wrapped "span" (Engine.Span.log (Option.get !spans));
          if contexts then wrapped "causal" (Engine.Causal.log (Option.get !causal)))
        (gate arm scenario))
    [ (false, fun f -> echo f); (true, fun f -> { (Harness.Observe.txnstore f) with count = 4 }) ]

(* Figure cells go through the same gate: one fig 9 cell (Catnip TCP,
   open loop) and one fig 11 cell (Catnip x Cattree fsync-per-SET
   server, kernel benchmark clients). Figures publish from untraced
   builds, so each cell is also built with {!Harness.Observe.off}: the
   trace ring must not move it either. *)
let test_figure_cells_observable () =
  let arm = { Harness.Observe.off with spans = true; flight = Some 4096; causal = true } in
  List.iter
    (fun cell ->
      match Harness.Observe.check arm cell with
      | Ok r ->
          check_bool "recorders present" true (r.spans <> None && r.flight <> None && r.causal <> None);
          let published = Harness.Observe.build Harness.Observe.off cell in
          check_bool "untraced build records no trace" true (published.trace = None);
          Alcotest.(check int) "untraced build: same event count" r.events published.events;
          Alcotest.(check (list int)) "untraced build: same latencies" r.latencies published.latencies
      | Error why -> Alcotest.fail why)
    [
      Harness.Fig_throughput.open_loop_cell ~flavor:Demikernel.Boot.Catnip_os
        ~proto:Harness.Observe.Echo_tcp ~msg_size:64 ~rate_per_sec:200_000.
        ~duration_ns:1_000_000 ();
      Harness.Fig_apps.kv_cell (Harness.Fig_apps.Demi_server Demikernel.Boot.Catnip_os) ~op:`Set
        ~persist:true ~clients:4 ~ops_per_client:20 ~on_start:ignore ~on_done:ignore;
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Each probe below really perturbs the run, and the gate must say how. *)
let test_gate_catches_perturbation () =
  let verdict probe flavor =
    Harness.Observe.check
      { Harness.Observe.off with probe = Some probe }
      (Harness.Observe.of_scenario (echo flavor))
  in
  let caught name ~names probe flavor =
    match verdict probe flavor with
    | Ok _ -> Alcotest.failf "%s: %s passed the gate" (Demikernel.Boot.flavor_name flavor) name
    | Error why ->
        check_bool (name ^ " is reported as a " ^ names ^ " difference") true (contains why names)
  in
  List.iter
    (fun flavor ->
      (* One extra no-op event: nothing traced or measured changes, only
         the event count. *)
      caught "a scheduled no-op" ~names:"event count"
        (fun sim -> Engine.Sim.schedule sim ~delay:1_000 ignore 0)
        flavor;
      caught "one extra trace record" ~names:"trace digest"
        (fun sim ->
          Engine.Sim.schedule sim ~delay:1_000
            (fun _ -> Engine.Sim.trace_event sim ~category:Engine.Log.App "probe" 0 0)
            0)
        flavor;
      caught "stopping the run early" ~names:"latencies"
        (fun sim -> Engine.Sim.schedule sim ~delay:20_000 (fun _ -> Engine.Sim.stop sim) 0)
        flavor)
    flavors;
  match verdict (fun sim -> ignore (Engine.Sim.now sim)) Demikernel.Boot.Catnip_os with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "a read-only probe failed the gate: %s" why

let test_selfcheck_two_runs_identical () =
  let r = Harness.Selfcheck.run ~seed:7L ~count:8 () in
  check_bool "digests and metrics identical across same-seed runs" true
    r.Harness.Selfcheck.ok;
  check_bool "digest non-trivial" true
    (String.length r.Harness.Selfcheck.first.Harness.Selfcheck.digest > 16)

let suite =
  [
    Alcotest.test_case "check passes with every recorder armed" `Quick
      test_every_recorder_at_once;
    Alcotest.test_case "check fails on a perturbing probe" `Quick test_gate_catches_perturbation;
    Alcotest.test_case "check passes with every stream wrapping" `Quick test_every_stream_wraps;
    Alcotest.test_case "selfcheck: same seed, same fingerprint" `Quick
      test_selfcheck_two_runs_identical;
    Alcotest.test_case "check passes on figure cells" `Quick test_figure_cells_observable;
  ]
