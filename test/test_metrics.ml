(* Tests for histograms and table rendering helpers. *)

let check_int = Alcotest.(check int)

(* The one latency histogram, Metrics.Hdr, at its edges and through its
   basic error/merge/bucket properties; the tighter 1/128 oracle and
   exact-merge checks live with the other Hdr tests in test_flight.ml. *)

let test_histogram_empty () =
  let h = Metrics.Hdr.create () in
  check_int "count" 0 (Metrics.Hdr.count h);
  check_int "p99" 0 (Metrics.Hdr.p99 h);
  check_int "min" 0 (Metrics.Hdr.min h);
  check_int "max" 0 (Metrics.Hdr.max h);
  check_int "sum" 0 (Metrics.Hdr.sum h);
  check_int "no buckets" 0 (List.length (Metrics.Hdr.to_buckets h));
  Alcotest.(check (float 0.0)) "mean" 0. (Metrics.Hdr.mean h)

let test_histogram_single () =
  let h = Metrics.Hdr.create () in
  Metrics.Hdr.add h 1234;
  check_int "count" 1 (Metrics.Hdr.count h);
  check_int "min" 1234 (Metrics.Hdr.min h);
  check_int "max" 1234 (Metrics.Hdr.max h);
  (* Quantiles clamp to [min, max], so one sample is reported exactly. *)
  check_int "p50 = only sample" 1234 (Metrics.Hdr.p50 h);
  check_int "p999 = only sample" 1234 (Metrics.Hdr.p999 h)

let test_histogram_exact_small () =
  (* Values below 128 are recorded exactly. *)
  let h = Metrics.Hdr.create () in
  List.iter (Metrics.Hdr.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "p50" 5 (Metrics.Hdr.quantile h 0.5);
  check_int "p100" 10 (Metrics.Hdr.quantile h 1.0)

let test_histogram_mean_merge () =
  let a = Metrics.Hdr.create () in
  let b = Metrics.Hdr.create () in
  List.iter (Metrics.Hdr.add a) [ 100; 200 ];
  List.iter (Metrics.Hdr.add b) [ 300; 400 ];
  Metrics.Hdr.merge a b;
  check_int "merged count" 4 (Metrics.Hdr.count a);
  check_int "merged sum is exact" 1000 (Metrics.Hdr.sum a);
  Alcotest.(check (float 0.0)) "merged mean" 250. (Metrics.Hdr.mean a);
  check_int "merged max" 400 (Metrics.Hdr.max a);
  check_int "merged min" 100 (Metrics.Hdr.min a)

let test_histogram_clear () =
  let h = Metrics.Hdr.create () in
  List.iter (Metrics.Hdr.add h) [ 42; 9_000 ];
  Metrics.Hdr.clear h;
  check_int "count after clear" 0 (Metrics.Hdr.count h);
  check_int "sum after clear" 0 (Metrics.Hdr.sum h);
  check_int "max after clear" 0 (Metrics.Hdr.max h);
  Metrics.Hdr.add h 7;
  check_int "usable after clear" 7 (Metrics.Hdr.p50 h);
  check_int "min tracks only new samples" 7 (Metrics.Hdr.min h)

let test_histogram_negative_clamped () =
  let h = Metrics.Hdr.create () in
  Metrics.Hdr.add h (-5);
  check_int "clamped to zero" 0 (Metrics.Hdr.min h);
  check_int "clamped sample sums as zero" 0 (Metrics.Hdr.sum h);
  check_int "clamped quantile" 0 (Metrics.Hdr.p50 h)

let test_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 10_000_000))
    (fun samples ->
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.add h) samples;
      let qs = List.map (Metrics.Hdr.quantile h) [ 0.0; 0.25; 0.5; 0.99; 0.999; 1.0 ] in
      let rec sorted = function a :: (b :: _ as rest) -> a <= b && sorted rest | _ -> true in
      (* q = 1.0 is the last bucket's last rank: exactly the max. *)
      sorted qs && List.nth qs 5 = Metrics.Hdr.max h)

let test_histogram_precision =
  QCheck.Test.make ~name:"histogram quantile within 1/32 relative error" ~count:300
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      (* v is the median of three, so p50 is not clamped to min or max
         and is read back through v's bucket. *)
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.add h) [ 0; v; max_int ];
      let err = abs (Metrics.Hdr.p50 h - v) in
      (* The 1/32 bound every quantile cell was quoted against still
         holds: an Hdr bucket at v is at most v/128 + 1 wide. *)
      err <= (v / 32) + 1)

(* --- to_buckets / merge properties (Demitrace exporters read the
   distribution through to_buckets, so its invariants matter) --- *)

let test_to_buckets_sums_to_count =
  QCheck.Test.make ~name:"to_buckets counts sum to count, bounds ascending" ~count:200
    QCheck.(list (int_range 0 100_000_000))
    (fun samples ->
      let h = Metrics.Hdr.create () in
      List.iter (Metrics.Hdr.add h) samples;
      let buckets = Metrics.Hdr.to_buckets h in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      let bounds = List.map fst buckets in
      total = Metrics.Hdr.count h
      && List.for_all (fun (_, n) -> n > 0) buckets
      && bounds = List.sort_uniq compare bounds)

let test_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:100
    QCheck.(triple (list (int_range 0 1_000_000)) (list (int_range 0 1_000_000))
              (list (int_range 0 1_000_000)))
    (fun (xs, ys, zs) ->
      let fill samples =
        let h = Metrics.Hdr.create () in
        List.iter (Metrics.Hdr.add h) samples;
        h
      in
      (* (x <- y) <- z versus x <- (y <- z), compared through the full
         observable surface: buckets, count, min, max. *)
      let left = fill xs in
      Metrics.Hdr.merge left (fill ys);
      Metrics.Hdr.merge left (fill zs);
      let yz = fill ys in
      Metrics.Hdr.merge yz (fill zs);
      let right = fill xs in
      Metrics.Hdr.merge right yz;
      Metrics.Hdr.to_buckets left = Metrics.Hdr.to_buckets right
      && Metrics.Hdr.count left = Metrics.Hdr.count right
      && Metrics.Hdr.min left = Metrics.Hdr.min right
      && Metrics.Hdr.max left = Metrics.Hdr.max right)

let test_registry_kinds_and_order () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.incr reg "b/ops";
  Metrics.Registry.add reg "b/ops" 2;
  Metrics.Registry.set reg "a/frames" 7;
  Metrics.Registry.observe reg "c/rtt" 640;
  Alcotest.(check (option int)) "counter value" (Some 3) (Metrics.Registry.value reg "b/ops");
  Alcotest.(check (option int)) "histograms have no counter value" None
    (Metrics.Registry.value reg "c/rtt");
  Alcotest.(check (list string))
    "names sorted regardless of registration order"
    [ "a/frames"; "b/ops"; "c/rtt" ]
    (Metrics.Registry.sorted_names reg);
  Alcotest.check_raises "counter/histogram kind mismatch"
    (Invalid_argument "Registry: b/ops is a counter") (fun () ->
      ignore (Metrics.Registry.histogram reg "b/ops"));
  Alcotest.check_raises "histogram/counter kind mismatch"
    (Invalid_argument "Registry: c/rtt is a histogram") (fun () ->
      ignore (Metrics.Registry.counter reg "c/rtt"))

let test_cells () =
  Alcotest.(check string) "ns" "640ns" (Metrics.Table.cell_ns 640);
  Alcotest.(check string) "us" "5.30us" (Metrics.Table.cell_ns 5_300);
  Alcotest.(check string) "int" "12" (Metrics.Table.cell_i 12);
  Alcotest.(check string) "float" "3.14" (Metrics.Table.cell_f 3.14159)

let suite =
  [
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram single sample" `Quick test_histogram_single;
    Alcotest.test_case "histogram exact small values" `Quick test_histogram_exact_small;
    QCheck_alcotest.to_alcotest test_histogram_precision;
    Alcotest.test_case "histogram mean/merge" `Quick test_histogram_mean_merge;
    Alcotest.test_case "histogram clear" `Quick test_histogram_clear;
    Alcotest.test_case "histogram clamps negatives" `Quick test_histogram_negative_clamped;
    QCheck_alcotest.to_alcotest test_histogram_quantile_monotone;
    QCheck_alcotest.to_alcotest test_to_buckets_sums_to_count;
    QCheck_alcotest.to_alcotest test_merge_associative;
    Alcotest.test_case "registry kinds and ordering" `Quick test_registry_kinds_and_order;
    Alcotest.test_case "table cell rendering" `Quick test_cells;
  ]
