(* Unit and property tests for the discrete-event engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_clock_pp () =
  let s v = Format.asprintf "%a" Engine.Clock.pp v in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.50ms" (s (Engine.Clock.us 2_500));
  Alcotest.(check string) "s" "1.000s" (s (Engine.Clock.s 1))

let test_clock_units () =
  check_int "us" 1_000 (Engine.Clock.us 1);
  check_int "ms" 1_000_000 (Engine.Clock.ms 1);
  check_int "s" 1_000_000_000 (Engine.Clock.s 1)

let test_eventq_order () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  Engine.Eventq.add q ~time:30 (record "c");
  Engine.Eventq.add q ~time:10 (record "a");
  Engine.Eventq.add q ~time:20 (record "b");
  let rec drain () =
    match Engine.Eventq.pop q with
    | None -> ()
    | Some (_, fn) ->
        fn ();
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_eventq_ties_fifo () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  for i = 0 to 99 do
    Engine.Eventq.add q ~time:5 (fun () -> order := i :: !order)
  done;
  let rec drain () =
    match Engine.Eventq.pop q with
    | None -> ()
    | Some (_, fn) ->
        fn ();
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo ties" (List.init 100 Fun.id) (List.rev !order)

let test_eventq_heap_property =
  QCheck.Test.make ~name:"eventq pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Engine.Eventq.create () in
      List.iter (fun time -> Engine.Eventq.add q ~time (fun () -> ())) times;
      let rec drain acc =
        match Engine.Eventq.pop q with
        | None -> List.rev acc
        | Some (time, _) -> drain (time :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let test_sim_schedule () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  Engine.Sim.schedule sim ~delay:100 (fun () -> fired := `B :: !fired);
  Engine.Sim.schedule sim ~delay:50 (fun () -> fired := `A :: !fired);
  Engine.Sim.run sim;
  check_int "clock at end" 100 (Engine.Sim.now sim);
  Alcotest.(check bool) "order" true (List.rev !fired = [ `A; `B ])

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  Engine.Sim.schedule sim ~delay:10 (fun () -> incr fired);
  Engine.Sim.schedule sim ~delay:1000 (fun () -> incr fired);
  Engine.Sim.run ~until:500 sim;
  check_int "only first fired" 1 !fired;
  check_int "clock clamped" 500 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  check_int "second fires on resume" 2 !fired

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  Engine.Sim.schedule sim ~delay:1 (fun () ->
      incr fired;
      Engine.Sim.stop sim);
  Engine.Sim.schedule sim ~delay:2 (fun () -> incr fired);
  Engine.Sim.run sim;
  check_int "stopped after first" 1 !fired

let test_fiber_sleep () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  Engine.Fiber.spawn sim (fun () ->
      log := ("start", Engine.Sim.now sim) :: !log;
      Engine.Fiber.sleep sim 250;
      log := ("awake", Engine.Sim.now sim) :: !log);
  Engine.Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "sleep advances time"
    [ ("start", 0); ("awake", 250) ]
    (List.rev !log)

let test_fiber_interleave () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let worker tag delay =
    Engine.Fiber.spawn sim (fun () ->
        Engine.Fiber.sleep sim delay;
        log := tag :: !log;
        Engine.Fiber.sleep sim delay;
        log := tag :: !log)
  in
  worker "slow" 100;
  worker "fast" 30;
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "interleaving" [ "fast"; "fast"; "slow"; "slow" ] (List.rev !log)

let test_fiber_exception () =
  let sim = Engine.Sim.create () in
  Engine.Fiber.spawn sim ~name:"boomer" (fun () -> failwith "boom");
  match Engine.Sim.run sim with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions fiber" true
        (String.length msg > 0 && String.sub msg 0 5 = "fiber")

let test_condvar_broadcast () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let woken = ref [] in
  for i = 1 to 3 do
    Engine.Fiber.spawn sim (fun () ->
        Engine.Condvar.wait cv;
        woken := i :: !woken)
  done;
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 500;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "fifo wake order" [ 1; 2; 3 ] (List.rev !woken);
  check_int "time of wake" 500 (Engine.Sim.now sim)

let test_condvar_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_timeout cv 100));
  Engine.Sim.run sim;
  Alcotest.(check bool) "timed out" true (!outcome = Some `Timeout);
  check_int "timeout time" 100 (Engine.Sim.now sim)

let test_condvar_signal_beats_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_timeout cv 1_000));
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 10;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  Alcotest.(check bool) "signaled" true (!outcome = Some `Signaled)

let test_prng_deterministic () =
  let a = Engine.Prng.create 42L in
  let b = Engine.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Engine.Prng.int64 a) (Engine.Prng.int64 b)
  done

let test_prng_split_independent () =
  let a = Engine.Prng.create 42L in
  let c = Engine.Prng.split a in
  let first_c = Engine.Prng.int64 c in
  let first_a = Engine.Prng.int64 a in
  Alcotest.(check bool) "streams differ" true (first_a <> first_c)

let test_prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Engine.Prng.create seed in
      let v = Engine.Prng.int g bound in
      v >= 0 && v < bound)

let test_prng_float_unit =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.int64 (fun seed ->
      let g = Engine.Prng.create seed in
      let v = Engine.Prng.float g in
      v >= 0. && v < 1.)

(* A caller-built trace line, as the tests below record them. *)
let trace_text tr ~now ~category msg =
  Engine.Log.event tr ~now ~category ~label:msg ~owner:"" ~aux:"" 0 0

let test_trace_ring () =
  let tr = Engine.Log.create ~capacity:4 () in
  for i = 1 to 6 do
    trace_text tr ~now:(i * 10) ~category:(Engine.Log.Custom "t") (string_of_int i)
  done;
  let evs = Engine.Log.rows tr in
  check_int "capacity bounds events" 4 (List.length evs);
  check_int "two dropped" 2 (Engine.Log.dropped tr);
  Alcotest.(check (list string)) "oldest dropped first" [ "3"; "4"; "5"; "6" ]
    (List.map (fun r -> snd (Engine.Log.text r)) evs)

(* Trace events carry a static template and operands; the message is
   only built when the stream is read. *)
let test_trace_thunk_lazy () =
  let sim = Engine.Sim.create () in
  Engine.Sim.trace_event sim ~category:(Engine.Log.Custom "x") "never" 0 0;
  let tr = Engine.Sim.enable_trace sim in
  Engine.Sim.trace_event sim ~category:Engine.Log.Tcp "conn %d: retransmit seq=%d" 3 42;
  Engine.Sim.trace_names sim ~category:Engine.Log.Sched "%s: dispatch %s" "client" "app";
  Engine.Sim.trace_event sim ~category:Engine.Log.Fabric "deliver %dB -> %m" 64 0x0200_0000_0002;
  Engine.Sim.trace_event sim ~category:Engine.Log.Storage "completion id=%d ok=%b" 7 1;
  check_int "the call made while tracing was off left no record" 4 (Engine.Log.total tr);
  Alcotest.(check (list (pair string string)))
    "messages formatted when read"
    [
      ("tcp", "conn 3: retransmit seq=42");
      ("sched", "client: dispatch app");
      ("fabric", "deliver 64B -> 02:00:00:00:00:02");
      ("storage", "completion id=7 ok=true");
    ]
    (List.map Engine.Log.text (Engine.Log.rows tr))

let test_trace_digest () =
  let mk () =
    let tr = Engine.Log.create ~capacity:16 () in
    trace_text tr ~now:5 ~category:(Engine.Log.Custom "net") "tx frame";
    trace_text tr ~now:9 ~category:Engine.Log.App "pop done";
    tr
  in
  Alcotest.(check string) "identical streams digest equally"
    (Engine.Log.digest (mk ()))
    (Engine.Log.digest (mk ()));
  let extended = mk () in
  trace_text extended ~now:10 ~category:Engine.Log.App "one more";
  check_bool "an extra event changes the digest" true
    (Engine.Log.digest extended <> Engine.Log.digest (mk ()));
  let reordered = Engine.Log.create ~capacity:16 () in
  trace_text reordered ~now:9 ~category:Engine.Log.App "pop done";
  trace_text reordered ~now:5 ~category:(Engine.Log.Custom "net") "tx frame";
  check_bool "event order is part of the digest" true
    (Engine.Log.digest reordered <> Engine.Log.digest (mk ()))

let test_det_sorted_iteration () =
  let tbl = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace tbl k (k * 10)) [ 5; 1; 9; 3 ];
  Alcotest.(check (list int)) "keys sorted" [ 1; 3; 5; 9 ]
    (Engine.Det.hashtbl_sorted_keys ~compare:Int.compare tbl);
  let visited = ref [] in
  Engine.Det.hashtbl_iter_sorted ~compare:Int.compare tbl (fun k _ ->
      visited := k :: !visited);
  Alcotest.(check (list int)) "iter visits in key order" [ 9; 5; 3; 1 ] !visited;
  let sum =
    Engine.Det.hashtbl_fold_sorted ~compare:Int.compare tbl (fun _ v acc -> acc + v) 0
  in
  check_int "fold sees every binding" 180 sum;
  (* Mutation during iteration must not crash or revisit. *)
  let seen = ref [] in
  Engine.Det.hashtbl_iter_sorted ~compare:Int.compare tbl (fun k _ ->
      if k = 1 then Hashtbl.remove tbl 9;
      seen := k :: !seen);
  Alcotest.(check (list int)) "removed binding skipped" [ 5; 3; 1 ] !seen

let test_sim_teardown_hooks () =
  let sim = Engine.Sim.create () in
  let order = ref [] in
  Engine.Sim.at_teardown sim (fun () -> order := "first" :: !order);
  Engine.Sim.at_teardown sim (fun () -> order := "second" :: !order);
  Engine.Sim.teardown sim;
  Alcotest.(check (list string)) "hooks run in registration order" [ "second"; "first" ]
    !order;
  Engine.Sim.teardown sim;
  Alcotest.(check (list string)) "second teardown is a no-op" [ "second"; "first" ] !order

(* --- Eventq / Timerwheel property tests (PR 3) ---

   The determinism contract both structures share: entries come out in
   (time, insertion-sequence) order, no matter how adds, pops and
   cancels interleave. The wheel is additionally checked against a
   naive sorted-scan oracle — the exact algorithm the TCP stack used
   before the wheel replaced it. *)

let test_eventq_interleaved =
  (* None = pop, Some dt = add at (current virtual time + dt). Times are
     monotone like the simulator's: each pop advances "now". *)
  QCheck.Test.make ~name:"eventq interleaved add/pop in (time, seq) order" ~count:300
    QCheck.(list (option (int_bound 1_000)))
    (fun ops ->
      let q = Engine.Eventq.create () in
      let model = ref [] in
      (* (time, id), insertion order *)
      let now = ref 0 in
      let next_id = ref 0 in
      let popped = ref [] in
      let ok = ref true in
      let pop_one () =
        match Engine.Eventq.pop q with
        | None -> ok := !ok && !model = []
        | Some (time, fn) ->
            fn ();
            now := max !now time;
            let best =
              List.fold_left
                (fun acc (t, i) ->
                  match acc with
                  | Some (bt, bi) when bt < t || (bt = t && bi < i) -> acc
                  | _ -> Some (t, i))
                None !model
            in
            (match (best, !popped) with
            | Some (bt, bi), id :: _ ->
                ok := !ok && time = bt && id = bi;
                model := List.filter (fun (t, i) -> (t, i) <> (bt, bi)) !model
            | _, _ -> ok := false)
      in
      List.iter
        (function
          | Some dt ->
              let id = !next_id in
              incr next_id;
              Engine.Eventq.add q ~time:(!now + dt) (fun () -> popped := id :: !popped);
              model := (!now + dt, id) :: !model
          | None -> pop_one ())
        ops;
      while !model <> [] && !ok do
        pop_one ()
      done;
      !ok)

(* Shared driver: applies (kind, arg) ops to a wheel and to a naive
   sorted-scan oracle; returns the firing log [(now, id); ...] and
   whether every intermediate check held. *)
let wheel_vs_oracle ops =
  let w = Engine.Timerwheel.create () in
  let handles = ref [] in
  (* (id, handle), newest first — fired/cancelled ones included *)
  let oracle = ref [] in
  (* (deadline, id, alive ref) *)
  let now = ref 0 in
  let next_id = ref 0 in
  let log = ref [] in
  let ok = ref true in
  let oracle_min () =
    List.fold_left
      (fun acc (d, _, alive) ->
        if !alive then match acc with Some m when m <= d -> acc | _ -> Some d else acc)
      None !oracle
  in
  let advance dt =
    now := !now + dt;
    let fired_w = ref [] in
    Engine.Timerwheel.expire w ~now:!now (fun id -> fired_w := id :: !fired_w);
    let due = List.filter (fun (d, _, alive) -> !alive && d <= !now) !oracle in
    let due = List.sort (fun (d1, i1, _) (d2, i2, _) -> compare (d1, i1) (d2, i2)) due in
    let fired_o = List.map (fun (_, i, alive) -> alive := false; i) due in
    ok := !ok && List.rev !fired_w = fired_o;
    List.iter (fun i -> log := (!now, i) :: !log) fired_o
  in
  List.iter
    (fun (kind, arg) ->
      (match kind with
      | 0 ->
          let d = !now + arg in
          let id = !next_id in
          incr next_id;
          handles := (id, Engine.Timerwheel.add w ~deadline:d id) :: !handles;
          oracle := (d, id, ref true) :: !oracle
      | 1 -> (
          match !handles with
          | [] -> ()
          | hs ->
              let id, h = List.nth hs (arg mod List.length hs) in
              Engine.Timerwheel.cancel w h;
              List.iter (fun (_, i, alive) -> if i = id then alive := false) !oracle)
      | _ -> advance arg);
      (* The peek must be the exact live minimum after every op. *)
      ok := !ok && Engine.Timerwheel.next_deadline w = oracle_min ())
    ops;
  advance 5_000_000;
  (* drain everything left *)
  ok := !ok && Engine.Timerwheel.size w = 0 && Engine.Timerwheel.next_deadline w = None;
  (List.rev !log, !ok)

let wheel_ops_gen =
  (* kind: 0 = add (arg: delay), 1 = cancel (arg: which handle),
     2 = advance+expire (arg: dt). Delays exercise several wheel levels
     (0..200k ns spans levels 0-3). *)
  QCheck.(list (pair (int_bound 2) (int_bound 200_000)))

let test_wheel_matches_oracle =
  QCheck.Test.make ~name:"timerwheel expiry matches sorted-scan oracle" ~count:300
    wheel_ops_gen
    (fun ops ->
      let _, ok = wheel_vs_oracle ops in
      ok)

let test_wheel_digest_stable =
  (* Same schedule, two independent runs: the firing log — folded into a
     trace ring — must digest identically (the property `demi --selfcheck`
     leans on once the TCP stack runs its timers off the wheel). *)
  QCheck.Test.make ~name:"timerwheel same-seed trace digests equal" ~count:100
    wheel_ops_gen
    (fun ops ->
      let digest_of () =
        let tr = Engine.Log.create ~capacity:65_536 () in
        let log, ok = wheel_vs_oracle ops in
        List.iter
          (fun (at, id) ->
            trace_text tr ~now:at ~category:(Engine.Log.Custom "wheel") (string_of_int id))
          log;
        (Engine.Log.digest tr, ok)
      in
      let d1, ok1 = digest_of () in
      let d2, ok2 = digest_of () in
      ok1 && ok2 && String.equal d1 d2)

let test_wheel_cancel_no_fire () =
  let w = Engine.Timerwheel.create () in
  let h1 = Engine.Timerwheel.add w ~deadline:100 "a" in
  let h2 = Engine.Timerwheel.add w ~deadline:100 "b" in
  let _h3 = Engine.Timerwheel.add w ~deadline:200 "c" in
  Engine.Timerwheel.cancel w h1;
  Engine.Timerwheel.cancel w h1;
  (* idempotent *)
  check_int "two live" 2 (Engine.Timerwheel.size w);
  check_bool "h2 live" true (Engine.Timerwheel.handle_live h2);
  check_bool "h1 dead" false (Engine.Timerwheel.handle_live h1);
  (match Engine.Timerwheel.next_deadline w with
  | Some d -> check_int "min survives cancel of tied entry" 100 d
  | None -> Alcotest.fail "expected a deadline");
  let fired = ref [] in
  Engine.Timerwheel.expire w ~now:500 (fun p -> fired := p :: !fired);
  Alcotest.(check (list string)) "only live entries fire, in order" [ "b"; "c" ]
    (List.rev !fired);
  check_int "empty after drain" 0 (Engine.Timerwheel.size w)

let test_wheel_readd_during_expire () =
  (* A callback re-arming itself (the RTO backoff pattern) must not fire
     again within the same expire call, even if the new deadline is
     already due. *)
  let w = Engine.Timerwheel.create () in
  let fires = ref 0 in
  let rec payload () =
    incr fires;
    if !fires = 1 then ignore (Engine.Timerwheel.add w ~deadline:150 payload)
  in
  ignore (Engine.Timerwheel.add w ~deadline:100 payload);
  Engine.Timerwheel.expire w ~now:200 (fun f -> f ());
  check_int "re-armed entry deferred" 1 !fires;
  Engine.Timerwheel.expire w ~now:200 (fun f -> f ());
  check_int "fires on the next expire" 2 !fires

let suite =
  [
    Alcotest.test_case "clock pretty-printing" `Quick test_clock_pp;
    Alcotest.test_case "clock unit conversions" `Quick test_clock_units;
    Alcotest.test_case "eventq time order" `Quick test_eventq_order;
    Alcotest.test_case "eventq fifo on ties" `Quick test_eventq_ties_fifo;
    QCheck_alcotest.to_alcotest test_eventq_heap_property;
    Alcotest.test_case "sim schedule and run" `Quick test_sim_schedule;
    Alcotest.test_case "sim run ~until" `Quick test_sim_until;
    Alcotest.test_case "sim stop" `Quick test_sim_stop;
    Alcotest.test_case "fiber sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber interleaving" `Quick test_fiber_interleave;
    Alcotest.test_case "fiber exception propagation" `Quick test_fiber_exception;
    Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "condvar timeout" `Quick test_condvar_timeout;
    Alcotest.test_case "condvar signal beats timeout" `Quick test_condvar_signal_beats_timeout;
    Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
    Alcotest.test_case "trace digest stability" `Quick test_trace_digest;
    Alcotest.test_case "det sorted hashtbl iteration" `Quick test_det_sorted_iteration;
    Alcotest.test_case "sim teardown hooks" `Quick test_sim_teardown_hooks;
    Alcotest.test_case "trace thunks are lazy" `Quick test_trace_thunk_lazy;
    QCheck_alcotest.to_alcotest test_prng_bounds;
    QCheck_alcotest.to_alcotest test_prng_float_unit;
    QCheck_alcotest.to_alcotest test_eventq_interleaved;
    QCheck_alcotest.to_alcotest test_wheel_matches_oracle;
    QCheck_alcotest.to_alcotest test_wheel_digest_stable;
    Alcotest.test_case "timerwheel cancel is exact" `Quick test_wheel_cancel_no_fire;
    Alcotest.test_case "timerwheel re-add during expire" `Quick test_wheel_readd_during_expire;
  ]
