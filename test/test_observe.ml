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
      match Harness.Observe.check arm (scenario flavor) with
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
        fun f -> { (echo f) with app = Harness.Observe.Echo Harness.Common.Echo_udp } );
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
  let arm = { Harness.Observe.off with trace_capacity = 64; flight = Some 4; probe = Some probe } in
  let wrapped name log = check_bool (name ^ " ring wrapped") true (Engine.Log.dropped log > 0) in
  List.iter
    (fun (contexts, scenario) ->
      List.iter
        (fun (r : Harness.Observe.run) ->
          wrapped "trace" r.trace;
          wrapped "flight" (Option.get r.flight);
          wrapped "span" (Engine.Span.log (Option.get !spans));
          if contexts then wrapped "causal" (Engine.Causal.log (Option.get !causal)))
        (gate arm scenario))
    [ (false, fun f -> echo f); (true, fun f -> { (Harness.Observe.txnstore f) with count = 4 }) ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Each probe below really perturbs the run, and the gate must say how. *)
let test_gate_catches_perturbation () =
  let verdict probe flavor =
    Harness.Observe.check { Harness.Observe.off with probe = Some probe } (echo flavor)
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
        (fun sim -> Engine.Sim.schedule sim ~delay:1_000 (fun () -> ()))
        flavor;
      caught "one extra trace record" ~names:"trace digest"
        (fun sim ->
          Engine.Sim.schedule sim ~delay:1_000 (fun () ->
              Engine.Sim.trace_event sim ~category:Engine.Log.App "probe" 0 0))
        flavor;
      caught "stopping the run early" ~names:"latencies"
        (fun sim -> Engine.Sim.schedule sim ~delay:20_000 (fun () -> Engine.Sim.stop sim))
        flavor)
    flavors;
  match verdict (fun sim -> ignore (Engine.Sim.now sim)) Demikernel.Boot.Catnip_os with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "a read-only probe failed the gate: %s" why

let suite =
  [
    Alcotest.test_case "check passes with every recorder armed" `Quick
      test_every_recorder_at_once;
    Alcotest.test_case "check fails on a perturbing probe" `Quick test_gate_catches_perturbation;
    Alcotest.test_case "check passes with every stream wrapping" `Quick test_every_stream_wraps;
  ]
