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

(* The simulator's use: callbacks, sequence numbers unused. *)
let add q ~time fn = ignore (Engine.Eventq.add q ~time fn : int)

let test_eventq_order () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  add q ~time:30 (record "c");
  add q ~time:10 (record "a");
  add q ~time:20 (record "b");
  let rec drain () =
    if Engine.Eventq.top_time q < max_int then begin
      Engine.Eventq.pop q ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_eventq_ties_fifo () =
  let q = Engine.Eventq.create () in
  let order = ref [] in
  for i = 0 to 99 do
    add q ~time:5 (fun () -> order := i :: !order)
  done;
  let rec drain () =
    if Engine.Eventq.top_time q < max_int then begin
      Engine.Eventq.pop q ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fifo ties" (List.init 100 Fun.id) (List.rev !order)

let test_eventq_heap_property =
  QCheck.Test.make ~name:"eventq pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Engine.Eventq.create () in
      List.iter (fun time -> add q ~time (fun () -> ())) times;
      let rec drain acc =
        match Engine.Eventq.top_time q with
        | time when time = max_int -> List.rev acc
        | time ->
            ignore (Engine.Eventq.pop q : unit -> unit);
            drain (time :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let test_eventq_empty_sentinel () =
  let q = Engine.Eventq.create () in
  check_int "empty" max_int (Engine.Eventq.top_time q);
  add q ~time:7 (fun () -> ());
  check_int "earliest" 7 (Engine.Eventq.top_time q);
  Engine.Eventq.pop q ();
  check_int "drained" max_int (Engine.Eventq.top_time q)

let test_sim_until_drains_early () =
  let sim = Engine.Sim.create () in
  Engine.Sim.schedule sim ~delay:40 (fun () -> ());
  Engine.Sim.run ~until:1_000 sim;
  check_int "clock at the last event, not the horizon" 40 (Engine.Sim.now sim)

let test_sim_empty_run () =
  let sim = Engine.Sim.create () in
  Engine.Sim.schedule sim ~delay:25 (fun () -> ());
  Engine.Sim.run sim;
  Engine.Sim.run ~until:5_000 sim;
  Engine.Sim.run sim;
  check_int "empty queue leaves the clock unchanged" 25 (Engine.Sim.now sim)

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
        ignore (Engine.Condvar.wait_many sim [ cv ] ~timeout:None);
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
      outcome := Some (Engine.Condvar.wait_many sim [ cv ] ~timeout:(Some 100)));
  Engine.Sim.run sim;
  Alcotest.(check bool) "timed out" true (!outcome = Some `Timeout);
  check_int "timeout time" 100 (Engine.Sim.now sim)

let test_condvar_signal_beats_timeout () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcome = ref None in
  Engine.Fiber.spawn sim (fun () ->
      outcome := Some (Engine.Condvar.wait_many sim [ cv ] ~timeout:(Some 1_000)));
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 10;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  Alcotest.(check bool) "signaled" true (!outcome = Some `Signaled)

(* --- substrate semantics: what the constant-effect fibers and the
   generation-checked condvar must keep from a closure-per-wait design --- *)

(* A timeout and a broadcast that land on the same ns: the signal event
   is scheduled by the broadcast, after the wait scheduled its timeout,
   so the timeout runs first and wins; the signal finds the wait over. *)
let test_condvar_same_ns_earlier_event_wins () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let outcomes = ref [] in
  Engine.Fiber.spawn sim (fun () ->
      let o = Engine.Condvar.wait_many sim [ cv ] ~timeout:(Some 100) in
      outcomes := (o, Engine.Sim.now sim) :: !outcomes);
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 100;
      Engine.Condvar.broadcast cv);
  Engine.Sim.run sim;
  check_bool "timeout scheduled first wins" true (!outcomes = [ (`Timeout, 100) ])

(* Leftover events of an ended wait — its timeout, or a broadcast on a
   condvar it no longer waits on — never end a later wait. *)
let test_condvar_stale_events_never_wake () =
  let sim = Engine.Sim.create () in
  let a = Engine.Condvar.create sim and b = Engine.Condvar.create sim in
  let c = Engine.Condvar.create sim in
  let log = ref [] in
  let note o = log := (o, Engine.Sim.now sim) :: !log in
  Engine.Fiber.spawn sim (fun () ->
      (* ends at 10 by a signal; its timeout (at 100) is left pending *)
      note (Engine.Condvar.wait_many sim [ a; b ] ~timeout:(Some 100));
      (* b broadcasts at 20 and the stale timeout fires at 100: neither
         may end this wait, which times out at 10 + 1000 *)
      note (Engine.Condvar.wait_many sim [ c ] ~timeout:(Some 1_000)));
  Engine.Fiber.spawn sim (fun () ->
      Engine.Fiber.sleep sim 10;
      Engine.Condvar.broadcast a;
      Engine.Fiber.sleep sim 10;
      Engine.Condvar.broadcast b);
  Engine.Sim.run sim;
  check_bool "only each wait's own events end it" true
    (List.rev !log = [ (`Signaled, 10); (`Timeout, 1_010) ])

(* A waiter on two condvars that both broadcast at once is resumed
   once; the second signal is a no-op event. *)
let test_condvar_two_signals_resume_once () =
  let sim = Engine.Sim.create () in
  let a = Engine.Condvar.create sim and b = Engine.Condvar.create sim in
  let resumed = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      ignore (Engine.Condvar.wait_many sim [ a; b ] ~timeout:None);
      incr resumed);
  Engine.Sim.schedule sim ~delay:50 (fun () ->
      Engine.Condvar.broadcast a;
      Engine.Condvar.broadcast b);
  Engine.Sim.run sim;
  check_int "resumed once" 1 !resumed

(* Waiters whose wait ended are swept from a condvar that never
   broadcasts, yet its next broadcast still runs one (no-op) event per
   waiter ever pushed: the event count does not depend on the sweep. *)
let test_condvar_swept_waiters_keep_their_events () =
  let sim = Engine.Sim.create () in
  let a = Engine.Condvar.create sim and b = Engine.Condvar.create sim in
  let rounds = 100 in
  let wakes = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      for _ = 1 to rounds do
        ignore (Engine.Condvar.wait_many sim [ a; b ] ~timeout:None);
        incr wakes
      done);
  Engine.Fiber.spawn sim (fun () ->
      for _ = 1 to rounds do
        Engine.Fiber.sleep sim 1;
        Engine.Condvar.broadcast a
      done);
  Engine.Sim.run sim;
  check_int "every round woke" rounds !wakes;
  let before = Engine.Sim.events_processed sim in
  Engine.Condvar.broadcast b;
  Engine.Sim.run sim;
  check_int "one event per waiter b ever held" rounds (Engine.Sim.events_processed sim - before)

let test_fiber_exception_names_fiber_after_suspensions () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  Engine.Fiber.spawn sim ~name:"boomer" (fun () ->
      Engine.Fiber.sleep sim 5;
      ignore (Engine.Condvar.wait_many sim [ cv ] ~timeout:(Some 5));
      failwith "boom");
  match Engine.Sim.run sim with
  | () -> Alcotest.fail "expected exception"
  | exception Failure msg ->
      Alcotest.(check string) "wrapped with the name" {|fiber "boomer" raised: Failure("boom")|} msg

(* Regression: a wait pushes a waiter onto every condvar it names, and
   only the condvar that broadcasts used to drop its list. 100k parks on
   [a; b] with only [a] broadcasting left 100k dead closures on [b]. *)
let test_condvar_waiters_do_not_leak () =
  let sim = Engine.Sim.create () in
  let a = Engine.Condvar.create sim and b = Engine.Condvar.create sim in
  let rounds = 100_000 in
  Engine.Fiber.spawn sim (fun () ->
      for _ = 1 to rounds do
        ignore (Engine.Condvar.wait_many sim [ a; b ] ~timeout:None)
      done);
  Engine.Fiber.spawn sim (fun () ->
      for _ = 1 to rounds do
        Engine.Fiber.sleep sim 1;
        Engine.Condvar.broadcast a
      done);
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  Engine.Sim.run sim;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  ignore (Sys.opaque_identity (a, b));
  if grown >= 10_000 then
    Alcotest.failf "%d live words retained after %d parks on a silent condvar (bound 10,000)"
      grown rounds

(* --- word budgets per substrate primitive, steady state, 10k ops --- *)

let budget_ops = 10_000
let minor_words () = int_of_float (Gc.minor_words ())

(* Minor words of [budget_ops] calls of [op] after as many warmup calls;
   called inside a fiber or coroutine, the event loop is included. *)
let steady_words op =
  for _ = 1 to budget_ops do
    op ()
  done;
  let before = minor_words () in
  for _ = 1 to budget_ops do
    op ()
  done;
  minor_words () - before

let check_budget name ~bound words ~per =
  let per_op = float_of_int words /. float_of_int per in
  if per_op > float_of_int bound then
    Alcotest.failf "%s: %.2f minor words per op (budget %d)" name per_op bound

let test_eventq_add_pop_words () =
  let q = Engine.Eventq.create () in
  let fn () = () in
  for i = 1 to 64 do
    add q ~time:i fn
  done;
  let clock = ref 64 in
  let words =
    steady_words (fun () ->
        incr clock;
        add q ~time:!clock fn;
        ignore (Engine.Eventq.pop q : unit -> unit))
  in
  check_int "add+pop with 64 pending allocates nothing" 0 words

let test_fiber_sleep_words () =
  let sim = Engine.Sim.create () in
  let words = ref 0 in
  Engine.Fiber.spawn sim (fun () -> words := steady_words (fun () -> Engine.Fiber.sleep sim 1));
  Engine.Sim.run sim;
  check_budget "Fiber.sleep" ~bound:2 !words ~per:budget_ops

(* One cycle: a fiber parks on a condvar, another broadcasts it and
   sleeps one ns (so the waiter re-parks before the next broadcast). *)
let test_condvar_cycle_words () =
  let sim = Engine.Sim.create () in
  let cv = Engine.Condvar.create sim in
  let words = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      words :=
        steady_words (fun () -> ignore (Engine.Condvar.wait_many sim [ cv ] ~timeout:None)));
  Engine.Fiber.spawn sim (fun () ->
      for _ = 1 to 2 * budget_ops do
        Engine.Fiber.sleep sim 1;
        Engine.Condvar.broadcast cv
      done);
  Engine.Sim.run sim;
  check_budget "wait_many+broadcast cycle" ~bound:12 !words ~per:budget_ops

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

(* --- Eventq property tests ---

   The determinism contract of the one deadline heap: entries come out
   in (time, insertion-sequence) order, no matter how adds, pops and
   cancels interleave. Its timer use (the TCP stack's RTO and
   TIME_WAIT) is additionally checked against a naive sorted-scan
   oracle, the algorithm the stack used before any timer structure,
   with cancellation by the stale-entry rule: the owner keeps each
   entry's sequence number and forgets it to cancel. *)

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
        match Engine.Eventq.top_time q with
        | time when time = max_int -> ok := !ok && !model = []
        | time ->
            Engine.Eventq.pop q ();
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
              add q ~time:(!now + dt) (fun () -> popped := id :: !popped);
              model := (!now + dt, id) :: !model
          | None -> pop_one ())
        ops;
      while !model <> [] && !ok do
        pop_one ()
      done;
      !ok)

(* Shared driver: applies (kind, arg) ops to a timer heap and to a
   naive sorted-scan oracle; returns the firing log [(now, id); ...] and
   whether every intermediate check held. *)
let timers_vs_oracle ops =
  let q = Engine.Eventq.create () in
  (* The owner's half of the stale rule: id -> sequence number of its
     live entry, -1 once fired or cancelled. *)
  let live_seq = Hashtbl.create 64 in
  let live id seq = Hashtbl.find live_seq id = seq in
  let ids = ref [] in
  (* newest first, fired/cancelled ones included *)
  let oracle = ref [] in
  (* (deadline, id, alive ref) *)
  let now = ref 0 in
  let next_id = ref 0 in
  let log = ref [] in
  let ok = ref true in
  let oracle_min () =
    List.fold_left (fun acc (d, _, alive) -> if !alive then min acc d else acc) max_int !oracle
  in
  let advance dt =
    now := !now + dt;
    let fired_q = ref [] in
    Engine.Eventq.expire q ~now:!now ~live (fun id _ ->
        Hashtbl.replace live_seq id (-1);
        fired_q := id :: !fired_q);
    let due = List.filter (fun (d, _, alive) -> !alive && d <= !now) !oracle in
    let due = List.sort (fun (d1, i1, _) (d2, i2, _) -> compare (d1, i1) (d2, i2)) due in
    let fired_o = List.map (fun (_, i, alive) -> alive := false; i) due in
    ok := !ok && List.rev !fired_q = fired_o;
    List.iter (fun i -> log := (!now, i) :: !log) fired_o
  in
  List.iter
    (fun (kind, arg) ->
      (match kind with
      | 0 ->
          let d = !now + arg in
          let id = !next_id in
          incr next_id;
          Hashtbl.replace live_seq id (Engine.Eventq.add q ~time:d id);
          ids := id :: !ids;
          oracle := (d, id, ref true) :: !oracle
      | 1 -> (
          match !ids with
          | [] -> ()
          | all ->
              let id = List.nth all (arg mod List.length all) in
              Hashtbl.replace live_seq id (-1);
              List.iter (fun (_, i, alive) -> if i = id then alive := false) !oracle)
      | _ -> advance arg);
      (* The peek must be the exact live minimum after every op. *)
      ok := !ok && Engine.Eventq.next_live q ~live = oracle_min ())
    ops;
  advance 5_000_000;
  (* drain everything left: stale entries included, the heap is empty *)
  ok := !ok && Engine.Eventq.top_time q = max_int && Engine.Eventq.next_live q ~live = max_int;
  (List.rev !log, !ok)

let timer_ops_gen =
  (* kind: 0 = add (arg: delay), 1 = cancel (arg: which entry),
     2 = advance+expire (arg: dt). *)
  QCheck.(list (pair (int_bound 2) (int_bound 200_000)))

let test_timers_match_oracle =
  QCheck.Test.make ~name:"eventq timer expiry matches sorted-scan oracle" ~count:300
    timer_ops_gen
    (fun ops ->
      let _, ok = timers_vs_oracle ops in
      ok)

let test_timers_digest_stable =
  (* Same schedule, two independent runs: the firing log — folded into a
     trace ring — must digest identically (the property `demi --selfcheck`
     leans on, since the TCP stack runs its timers on the heap). *)
  QCheck.Test.make ~name:"eventq timer same-seed trace digests equal" ~count:100
    timer_ops_gen
    (fun ops ->
      let digest_of () =
        let tr = Engine.Log.create ~capacity:65_536 () in
        let log, ok = timers_vs_oracle ops in
        List.iter
          (fun (at, id) ->
            trace_text tr ~now:at ~category:(Engine.Log.Custom "timers") (string_of_int id))
          log;
        (Engine.Log.digest tr, ok)
      in
      let d1, ok1 = digest_of () in
      let d2, ok2 = digest_of () in
      ok1 && ok2 && String.equal d1 d2)

let test_timers_cancel_no_fire () =
  let q = Engine.Eventq.create () in
  let live_seq = Hashtbl.create 4 in
  let live p seq = Hashtbl.find live_seq p = seq in
  let arm p time = Hashtbl.replace live_seq p (Engine.Eventq.add q ~time p) in
  let cancel p = Hashtbl.replace live_seq p (-1) in
  arm "a" 100;
  arm "b" 100;
  arm "c" 200;
  arm "d" 300;
  cancel "a";
  cancel "a";
  (* idempotent *)
  cancel "d";
  (* below the top: only the expiry's own live test skips it *)
  check_int "min survives cancel of tied entry" 100 (Engine.Eventq.next_live q ~live);
  let fired = ref [] in
  Engine.Eventq.expire q ~now:500 ~live (fun p _ -> fired := p :: !fired);
  Alcotest.(check (list string)) "only live entries fire, in order" [ "b"; "c" ]
    (List.rev !fired);
  check_int "empty after drain" max_int (Engine.Eventq.top_time q)

let test_timers_readd_during_expire () =
  (* A callback re-arming itself (the RTO backoff pattern) must not fire
     again within the same expire call, even if the new deadline is
     already due. *)
  let q = Engine.Eventq.create () in
  let fires = ref 0 in
  let armed = ref (-1) in
  let live _ seq = seq = !armed in
  let rec payload () =
    incr fires;
    if !fires = 1 then armed := Engine.Eventq.add q ~time:150 payload
  in
  armed := Engine.Eventq.add q ~time:100 payload;
  Engine.Eventq.expire q ~now:200 ~live (fun f _ -> f ());
  check_int "re-armed entry deferred" 1 !fires;
  Engine.Eventq.expire q ~now:200 ~live (fun f _ -> f ());
  check_int "fires on the next expire" 2 !fires

let suite =
  [
    Alcotest.test_case "clock pretty-printing" `Quick test_clock_pp;
    Alcotest.test_case "clock unit conversions" `Quick test_clock_units;
    Alcotest.test_case "eventq time order" `Quick test_eventq_order;
    Alcotest.test_case "eventq fifo on ties" `Quick test_eventq_ties_fifo;
    QCheck_alcotest.to_alcotest test_eventq_heap_property;
    Alcotest.test_case "eventq top_time is max_int when empty" `Quick test_eventq_empty_sentinel;
    Alcotest.test_case "sim schedule and run" `Quick test_sim_schedule;
    Alcotest.test_case "sim run ~until" `Quick test_sim_until;
    Alcotest.test_case "sim run ~until drained early keeps the last event time" `Quick
      test_sim_until_drains_early;
    Alcotest.test_case "sim run on an empty queue leaves the clock" `Quick test_sim_empty_run;
    Alcotest.test_case "sim stop" `Quick test_sim_stop;
    Alcotest.test_case "fiber sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "fiber interleaving" `Quick test_fiber_interleave;
    Alcotest.test_case "fiber exception propagation" `Quick test_fiber_exception;
    Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "condvar timeout" `Quick test_condvar_timeout;
    Alcotest.test_case "condvar signal beats timeout" `Quick test_condvar_signal_beats_timeout;
    Alcotest.test_case "condvar same-ns timeout and broadcast: earlier event wins" `Quick
      test_condvar_same_ns_earlier_event_wins;
    Alcotest.test_case "condvar stale signal or timeout never wakes a later wait" `Quick
      test_condvar_stale_events_never_wake;
    Alcotest.test_case "condvar two broadcasts resume a waiter once" `Quick
      test_condvar_two_signals_resume_once;
    Alcotest.test_case "condvar swept waiters keep their events" `Quick
      test_condvar_swept_waiters_keep_their_events;
    Alcotest.test_case "condvar waiters do not leak on a silent condvar" `Quick
      test_condvar_waiters_do_not_leak;
    Alcotest.test_case "fiber exception names the fiber after suspensions" `Quick
      test_fiber_exception_names_fiber_after_suspensions;
    Alcotest.test_case "words: eventq add+pop" `Quick test_eventq_add_pop_words;
    Alcotest.test_case "words: fiber sleep" `Quick test_fiber_sleep_words;
    Alcotest.test_case "words: condvar wait+broadcast cycle" `Quick test_condvar_cycle_words;
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
    QCheck_alcotest.to_alcotest test_timers_match_oracle;
    QCheck_alcotest.to_alcotest test_timers_digest_stable;
    Alcotest.test_case "eventq timer cancel is exact" `Quick test_timers_cancel_no_fire;
    Alcotest.test_case "eventq timer re-add during expire" `Quick test_timers_readd_during_expire;
  ]
