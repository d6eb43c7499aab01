(* Demiflight tests: the Hdr histogram's error/merge contracts, the
   flight ring's wraparound and its row of the observer-effect gate, the reservoir's
   determinism, the SLO watchdog, and tail attribution exactness. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- Metrics.Hdr ---------- *)

(* The exact rank statistic Hdr.quantile approximates: the sample at
   rank ceil(q * n) of the sorted list (1-based, clamped to [1, n]). *)
let oracle_quantile samples q =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let target = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.nth sorted (target - 1)

let test_hdr_quantile_error_bound =
  QCheck.Test.make ~name:"hdr quantile within 1/128 of the sorted-array oracle" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 300) (int_range 0 1_000_000_000))
        (float_range 0.0 1.0))
    (fun (samples, q) ->
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.add h) samples;
      let est = Metrics.Hdr.quantile h q in
      let exact = oracle_quantile samples q in
      if exact < 128 then est = exact
      else
        (* est lies in the same 1/128-wide bucket as the exact rank
           statistic, so the relative error is at most the bucket
           width over its lower bound. *)
        abs (est - exact) <= (exact / 128) + 1)

let test_hdr_merge_commutative =
  QCheck.Test.make ~name:"hdr merge commutative" ~count:200
    QCheck.(pair (list (int_range 0 10_000_000)) (list (int_range 0 10_000_000)))
    (fun (xs, ys) ->
      let mk l =
        let h = Metrics.Hdr.create () in
        List.iter (Metrics.Hdr.add h) l;
        h
      in
      let ab = mk xs and ba = mk ys in
      Metrics.Hdr.merge ab (mk ys);
      Metrics.Hdr.merge ba (mk xs);
      Metrics.Hdr.to_buckets ab = Metrics.Hdr.to_buckets ba
      && Metrics.Hdr.count ab = Metrics.Hdr.count ba
      && Metrics.Hdr.sum ab = Metrics.Hdr.sum ba
      && Metrics.Hdr.min ab = Metrics.Hdr.min ba
      && Metrics.Hdr.max ab = Metrics.Hdr.max ba)

let test_hdr_merge_associative =
  QCheck.Test.make ~name:"hdr merge associative and exact" ~count:200
    QCheck.(
      triple
        (list (int_range 0 10_000_000))
        (list (int_range 0 10_000_000))
        (list (int_range 0 10_000_000)))
    (fun (xs, ys, zs) ->
      let mk l =
        let h = Metrics.Hdr.create () in
        List.iter (Metrics.Hdr.add h) l;
        h
      in
      (* (a <- b) <- c  vs  a <- (b <- c) *)
      let left = mk xs in
      Metrics.Hdr.merge left (mk ys);
      Metrics.Hdr.merge left (mk zs);
      let bc = mk ys in
      Metrics.Hdr.merge bc (mk zs);
      let right = mk xs in
      Metrics.Hdr.merge right bc;
      (* And both equal the histogram of the concatenation: merging is
         exact, not approximate. *)
      let all = mk (xs @ ys @ zs) in
      Metrics.Hdr.to_buckets left = Metrics.Hdr.to_buckets right
      && Metrics.Hdr.to_buckets left = Metrics.Hdr.to_buckets all
      && Metrics.Hdr.sum left = Metrics.Hdr.sum all
      && Metrics.Hdr.count left = Metrics.Hdr.count all)

let test_hdr_bucket_edges () =
  let h = Metrics.Hdr.create () in
  (* 0, the exact/log-linear boundary (127/128), powers of two and
     their neighbours, and max_int — every edge the index math has. *)
  let edges =
    [ 0; 1; 127; 128; 129; 255; 256; 1023; 1024; 1025; (1 lsl 40) - 1; 1 lsl 40; max_int ]
  in
  List.iter (Metrics.Hdr.add h) edges;
  check_int "count" (List.length edges) (Metrics.Hdr.count h);
  check_int "min" 0 (Metrics.Hdr.min h);
  check_int "max is max_int" max_int (Metrics.Hdr.max h);
  check_int "q=1.0 reports max_int" max_int (Metrics.Hdr.quantile h 1.0);
  check_int "q=0.0 reports the smallest sample" 0 (Metrics.Hdr.quantile h 0.0);
  (* Small values are exact. *)
  let h2 = Metrics.Hdr.create () in
  List.iter (Metrics.Hdr.add h2) [ 0; 1; 2; 127 ];
  check_int "exact below 128: p50" 1 (Metrics.Hdr.quantile h2 0.5);
  check_int "exact below 128: p100" 127 (Metrics.Hdr.quantile h2 1.0);
  (* Negative samples clamp to zero. *)
  let h3 = Metrics.Hdr.create () in
  Metrics.Hdr.add h3 (-42);
  check_int "negative clamped" 0 (Metrics.Hdr.min h3);
  check_int "clamped sample sums as zero" 0 (Metrics.Hdr.sum h3)

let test_hdr_to_buckets_sums =
  QCheck.Test.make ~name:"hdr to_buckets counts sum to count, bounds ascending" ~count:200
    QCheck.(list (int_range 0 100_000_000))
    (fun samples ->
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.add h) samples;
      let buckets = Metrics.Hdr.to_buckets h in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      let ascending =
        let rec go = function
          | (a, _) :: ((b, _) :: _ as rest) -> a < b && go rest
          | _ -> true
        in
        go buckets
      in
      total = Metrics.Hdr.count h && ascending)

let test_hdr_resolves_the_pr8_collapse () =
  (* The regression that motivated Hdr: BENCH_pr8.json's 100k point
     reported p50 = p99 = 2015ns because >= 99% of the mass sat inside
     one 1/32-wide bucket ([1984..2015]). The same shape must produce
     distinct p50, p99 and p99.9. *)
  let fine = Metrics.Hdr.create () in
  for i = 0 to 999 do
    (* Body at 2000..2009ns, a 1% tail at 2800ns: all inside the old
       [1984..2015] bucket except the tail. *)
    Metrics.Hdr.add fine (if i >= 990 then 2800 else 2000 + (i mod 10))
  done;
  check_bool "hdr resolves the body" true
    (Metrics.Hdr.p50 fine < Metrics.Hdr.quantile fine 0.98);
  check_bool "hdr separates p50 from p99" true (Metrics.Hdr.p50 fine < Metrics.Hdr.p99 fine);
  check_bool "hdr separates p99 from p99.9" true
    (Metrics.Hdr.p99 fine < Metrics.Hdr.p999 fine)

(* ---------- Metrics.Reservoir ---------- *)

let test_reservoir_deterministic () =
  let run () =
    let r = Metrics.Reservoir.create ~capacity:16 ~prng:(Engine.Prng.create 99L) in
    for i = 1 to 1000 do
      Metrics.Reservoir.offer r i
    done;
    Metrics.Reservoir.to_list r
  in
  check_bool "same seed, same sample" true (run () = run ());
  let r = Metrics.Reservoir.create ~capacity:16 ~prng:(Engine.Prng.create 99L) in
  for i = 1 to 10 do
    Metrics.Reservoir.offer r i
  done;
  check_int "under capacity keeps everything" 10 (Metrics.Reservoir.kept r);
  check_int "seen counts every offer" 10 (Metrics.Reservoir.seen r)

let test_reservoir_bounds =
  QCheck.Test.make ~name:"reservoir kept = min(seen, capacity), members were offered"
    ~count:100
    QCheck.(pair (int_range 1 32) (int_range 0 500))
    (fun (capacity, n) ->
      let r = Metrics.Reservoir.create ~capacity ~prng:(Engine.Prng.create 7L) in
      for i = 1 to n do
        Metrics.Reservoir.offer r i
      done;
      Metrics.Reservoir.kept r = min n capacity
      && Metrics.Reservoir.seen r = n
      && List.for_all (fun v -> v >= 1 && v <= n) (Metrics.Reservoir.to_list r))

(* ---------- the flight stream (an Engine.Log ring) ---------- *)

let flight_ring capacity = Engine.Log.create ~render:Engine.Log.operands ~capacity ()

let flight_record f ~now ~cat ~label a b =
  Engine.Log.event f ~now ~category:cat ~label ~owner:"" ~aux:"" a b

let test_flight_wraparound_ordering () =
  let f = flight_ring 4 in
  for i = 1 to 10 do
    flight_record f ~now:(i * 100) ~cat:Engine.Log.App ~label:"tick" i (i * 2)
  done;
  check_int "total counts every record" 10 (Engine.Log.total f);
  check_int "kept is the capacity" 4 (Engine.Log.kept f);
  check_int "dropped = total - kept" 6 (Engine.Log.dropped f);
  let evs = Engine.Log.rows f in
  check_int "events returns the retained window" 4 (List.length evs);
  Alcotest.(check (list int))
    "oldest-first, the last capacity records" [ 7; 8; 9; 10 ]
    (List.map (fun (e : Engine.Log.row) -> e.a) evs);
  check_bool "timestamps ascend" true
    (let rec go = function
       | (a : Engine.Log.row) :: (b :: _ as rest) -> a.ts <= b.ts && go rest
       | _ -> true
     in
     go evs)

let test_flight_dump_completeness () =
  let f = flight_ring 3 in
  List.iteri
    (fun i label -> flight_record f ~now:i ~cat:Engine.Log.Libos ~label i 0)
    [ "alpha"; "beta"; "gamma"; "delta" ];
  let out = Format.asprintf "%a" (fun fmt () -> Engine.Log.dump fmt f) () in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec at i = i + m <= n && (String.sub out i m = sub || at (i + 1)) in
    at 0
  in
  check_bool "overwrite header present" true (contains "1 earlier record(s) overwritten");
  check_bool "alpha was overwritten" false (contains "alpha");
  List.iter (fun l -> check_bool (l ^ " retained") true (contains l)) [ "beta"; "gamma"; "delta" ];
  (* The digest covers exactly the retained window + total: replaying
     the same records gives the same digest. *)
  let g = flight_ring 3 in
  List.iteri
    (fun i label -> flight_record g ~now:i ~cat:Engine.Log.Libos ~label i 0)
    [ "alpha"; "beta"; "gamma"; "delta" ];
  check_string "digest deterministic" (Engine.Log.digest f) (Engine.Log.digest g);
  flight_record g ~now:9 ~cat:Engine.Log.Libos ~label:"epsilon" 9 0;
  check_bool "digest moves with new records" true
    (Engine.Log.digest f <> Engine.Log.digest g)

let test_flight_observer_effect_free () =
  List.iter
    (fun (r : Harness.Observe.run) ->
      check_bool "ring recorded" true (Engine.Log.total (Option.get r.flight) > 0))
    (Test_observe.gate { Harness.Observe.off with flight = Some 4096 } Test_observe.echo)

(* Every stream's record path, once its ring has grown to the
   capacity: 10,000 records of each allocate no minor-heap word. The
   capacity holds the measured records without wrapping, so a store
   that allocates per record (a list cell, a tuple, a thunk) cannot
   hide behind a full buffer. *)
let test_log_records_allocate_nothing () =
  let capacity = 32_768 and sized = 16_385 and n = 10_000 in
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.enable_trace ~capacity sim);
  ignore (Engine.Sim.enable_flight ~capacity sim);
  let spans = Engine.Sim.enable_spans ~capacity sim in
  let wires = Engine.Span.create ~capacity () in
  let causal = Engine.Sim.enable_causal ~capacity sim in
  let streams =
    [
      ( "typed trace event",
        fun i -> Engine.Sim.trace_event sim ~category:Engine.Log.Tcp "conn %d: retransmit seq=%d" i i
      );
      ("flight note", fun i -> Engine.Sim.flight_note sim ~cat:Engine.Log.Fabric ~label:"rx" i i);
      ( "span interval",
        fun i ->
          Engine.Sim.span_interval sim ~comp:Engine.Span.Device ~owner:"nic" ~label:"rx" ~t0:i
            ~t1:(i + 1) );
      ( "wire event",
        fun i ->
          Engine.Span.note_wire wires ~flow:i ~src:"client" ~dst:"server" ~label:"frame" ~t0:i
            ~t1:(i + 1) );
      ( "causal note",
        fun i ->
          Engine.Causal.note causal ~kind:Engine.Causal.Sent ~req:i ~msg:i ~parent:0 ~hop:1
            ~host:"client" ~op:i ~now:i );
    ]
  in
  List.iter
    (fun (name, record) ->
      for i = 1 to sized do
        record i
      done;
      let before = int_of_float (Gc.minor_words ()) in
      for i = 1 to n do
        record i
      done;
      let words = int_of_float (Gc.minor_words ()) - before in
      check_int (name ^ ": minor words for 10,000 records") 0 words)
    streams;
  List.iter
    (fun (name, log) -> check_int (name ^ " kept every record") (sized + n) (Engine.Log.kept log))
    [
      ("trace", Option.get (Engine.Sim.trace sim)); ("flight", Option.get (Engine.Sim.flight sim));
      ("spans", Engine.Span.log spans); ("wires", Engine.Span.log wires);
      ("causal", Engine.Causal.log causal);
    ]

let test_log_rejects_empty_capacity () =
  List.iter
    (fun capacity ->
      match Engine.Log.create ~capacity () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* ---------- SLO watchdog ---------- *)

let test_slo_unit () =
  let s = Engine.Span.create () in
  Alcotest.(check (option int)) "disarmed by default" None (Engine.Span.slo_threshold s);
  Engine.Span.set_slo s ~threshold_ns:100;
  Alcotest.(check (option int)) "armed" (Some 100) (Engine.Span.slo_threshold s);
  Engine.Span.open_op s ~key:1 ~kind:"pop" ~owner:"h" ~now:0;
  Engine.Span.close_op s ~key:1 ~owner:"h" ~now:100 ~ok:true;
  check_int "at threshold is not a breach" 0 (Engine.Span.outlier_count s);
  Engine.Span.open_op s ~key:2 ~kind:"pop" ~owner:"h" ~now:0;
  Engine.Span.close_op s ~key:2 ~owner:"h" ~now:101 ~ok:true;
  check_int "past threshold is" 1 (Engine.Span.outlier_count s);
  (match Engine.Span.outliers s with
  | [ op ] -> check_int "the breaching op is retained" 2 op.Engine.Span.op_key
  | _ -> Alcotest.fail "expected exactly one outlier");
  Alcotest.check_raises "threshold must be positive"
    (Invalid_argument "Span.set_slo: threshold must be positive") (fun () ->
      Engine.Span.set_slo s ~threshold_ns:0)

let test_slo_captures_loss_outliers () =
  (* Injected loss forces retransmission timeouts: with a threshold
     well above the loss-free RTT, every captured outlier really did
     breach and the watchdog saw at least one. *)
  let scenario = { (Test_observe.echo ~count:64 Demikernel.Boot.Catnip_os) with loss = 0.05 } in
  (* Arming the watchdog is a pure observation too. *)
  let r =
    match Harness.Observe.check { Harness.Observe.off with slo_ns = Some 100_000 } scenario with
    | Ok r -> r
    | Error why -> Alcotest.fail why
  in
  let spans = Option.get r.spans in
  check_bool "at least one outlier" true (Engine.Span.outlier_count spans > 0);
  List.iter
    (fun op ->
      match op.Engine.Span.closed_at with
      | Some t ->
          check_bool "outlier latency exceeds threshold" true
            (t - op.Engine.Span.opened_at > 100_000)
      | None -> Alcotest.fail "outlier with no close time")
    (Engine.Span.outliers spans)

(* ---------- tail attribution ---------- *)

(* Tail attribution over one spans-armed echo of [count] requests. *)
let tail ~count flavor =
  Harness.Fig_breakdown.tail
    (Harness.Observe.run
       { Harness.Observe.off with spans = true }
       (Test_observe.echo ~count flavor))

let test_tail_bands_sum_exactly () =
  let t = tail ~count:96 Demikernel.Boot.Catnip_os in
  check_int "every RTT measured" 96 t.Harness.Fig_breakdown.tail_ops;
  check_bool "windows retained" true (t.Harness.Fig_breakdown.tail_sampled > 0);
  check_int "default band count" 4 (List.length t.Harness.Fig_breakdown.tail_bands);
  List.iter
    (fun band ->
      let b = band.Harness.Fig_breakdown.band_breakdown in
      let sum =
        List.fold_left
          (fun acc (_, ns) -> acc + ns)
          b.Harness.Fig_breakdown.other b.Harness.Fig_breakdown.components
      in
      check_int
        (band.Harness.Fig_breakdown.band_label ^ " band sums exactly")
        b.Harness.Fig_breakdown.total sum)
    t.Harness.Fig_breakdown.tail_bands;
  (* Cumulative bands shrink (weakly) as the cut rises. *)
  let ops = List.map (fun b -> b.Harness.Fig_breakdown.band_ops) t.Harness.Fig_breakdown.tail_bands in
  check_bool "band membership weakly decreasing" true
    (let rec go = function a :: (b :: _ as rest) -> a >= b && go rest | _ -> true in
     go ops)

let test_tail_deterministic () =
  let run () =
    let t = tail ~count:48 Demikernel.Boot.Catmint_os in
    ( t.Harness.Fig_breakdown.tail_digest,
      t.Harness.Fig_breakdown.tail_sampled,
      List.map
        (fun b ->
          ( b.Harness.Fig_breakdown.band_label,
            b.Harness.Fig_breakdown.band_cut_ns,
            b.Harness.Fig_breakdown.band_ops,
            b.Harness.Fig_breakdown.band_breakdown.Harness.Fig_breakdown.total ))
        t.Harness.Fig_breakdown.tail_bands )
  in
  check_bool "tail runs are bit-identical" true (run () = run ())

let suite =
  [
    QCheck_alcotest.to_alcotest test_hdr_quantile_error_bound;
    QCheck_alcotest.to_alcotest test_hdr_merge_commutative;
    QCheck_alcotest.to_alcotest test_hdr_merge_associative;
    Alcotest.test_case "hdr bucket-boundary edges" `Quick test_hdr_bucket_edges;
    QCheck_alcotest.to_alcotest test_hdr_to_buckets_sums;
    Alcotest.test_case "hdr resolves the pr8 quantile collapse" `Quick
      test_hdr_resolves_the_pr8_collapse;
    Alcotest.test_case "reservoir deterministic" `Quick test_reservoir_deterministic;
    QCheck_alcotest.to_alcotest test_reservoir_bounds;
    Alcotest.test_case "flight ring wraparound ordering" `Quick test_flight_wraparound_ordering;
    Alcotest.test_case "flight dump completeness + digest" `Quick test_flight_dump_completeness;
    Alcotest.test_case "flight recorder is observer-effect-free" `Quick
      test_flight_observer_effect_free;
    Alcotest.test_case "log records allocate nothing" `Quick test_log_records_allocate_nothing;
    Alcotest.test_case "log rejects a non-positive capacity" `Quick
      test_log_rejects_empty_capacity;
    Alcotest.test_case "slo watchdog units" `Quick test_slo_unit;
    Alcotest.test_case "slo captures loss outliers" `Quick test_slo_captures_loss_outliers;
    Alcotest.test_case "tail bands sum exactly" `Quick test_tail_bands_sum_exactly;
    Alcotest.test_case "tail attribution deterministic" `Quick test_tail_deterministic;
  ]
