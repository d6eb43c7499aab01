(* Tests for the DMA-capable heap: size classes, allocation recycling,
   use-after-free protection, and registration modes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_sizeclass_rounding () =
  check_int "1 byte -> class 0" 0 (Memory.Sizeclass.index_of_size 1);
  check_int "64 -> class 0" 0 (Memory.Sizeclass.index_of_size 64);
  check_int "65 -> class 1" 1 (Memory.Sizeclass.index_of_size 65);
  check_int "1 MB -> last class" (Memory.Sizeclass.class_count - 1)
    (Memory.Sizeclass.index_of_size Memory.Sizeclass.max_class)

let test_sizeclass_bounds () =
  Alcotest.check_raises "zero" (Invalid_argument "Sizeclass.index_of_size: non-positive size")
    (fun () -> ignore (Memory.Sizeclass.index_of_size 0));
  Alcotest.check_raises "too big"
    (Invalid_argument "Sizeclass.index_of_size: size beyond max class") (fun () ->
      ignore (Memory.Sizeclass.index_of_size (Memory.Sizeclass.max_class + 1)))

let test_sizeclass_zero_copy () =
  check_bool "1024 not eligible" false (Memory.Sizeclass.zero_copy_eligible 1024);
  check_bool "1025 eligible" true (Memory.Sizeclass.zero_copy_eligible 1025)

let sizeclass_roundtrip =
  QCheck.Test.make ~name:"size class covers request" ~count:500
    QCheck.(int_range 1 Memory.Sizeclass.max_class)
    (fun size ->
      let i = Memory.Sizeclass.index_of_size size in
      Memory.Sizeclass.size_of_index i >= size
      && (i = 0 || Memory.Sizeclass.size_of_index (i - 1) < size))

let make_heap ?(mode = Memory.Heap.Pool_backed) () = Memory.Heap.create ~mode ()

let test_alloc_roundtrip () =
  let h = make_heap () in
  let b = Memory.Heap.alloc_of_string h "hello world" in
  Alcotest.(check string) "payload" "hello world" (Memory.Heap.to_string b);
  check_int "length" 11 (Memory.Heap.length b);
  check_int "live" 1 (Memory.Heap.live_objects h);
  Memory.Heap.free b;
  check_int "live after free" 0 (Memory.Heap.live_objects h)

let test_alloc_recycles_lifo () =
  let h = make_heap () in
  let a = Memory.Heap.alloc h 100 in
  let a_off = Memory.Heap.offset a in
  Memory.Heap.free a;
  let b = Memory.Heap.alloc h 100 in
  check_int "LIFO reuse of freed slot" a_off (Memory.Heap.offset b)

let test_double_free_raises () =
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  Memory.Heap.free b;
  Alcotest.check_raises "double free" Memory.Heap.Double_free (fun () -> Memory.Heap.free b)

let test_uaf_protection () =
  (* The §5.3 scenario: app frees a buffer while the TCP stack still
     holds it for retransmission. The slot must stay allocated. *)
  let h = make_heap () in
  let b = Memory.Heap.alloc_of_string h "retransmit me" in
  Memory.Heap.os_incref b;
  Memory.Heap.free b;
  check_bool "slot still live" true (Memory.Heap.is_slot_live b);
  Alcotest.(check string) "payload intact" "retransmit me" (Memory.Heap.to_string b);
  (* No new allocation may reuse the slot while the libOS holds it. *)
  let c = Memory.Heap.alloc h 64 in
  check_bool "new alloc got a different slot" true
    (Memory.Heap.offset c <> Memory.Heap.offset b);
  Memory.Heap.os_decref b;
  check_bool "slot released after ack" false (Memory.Heap.is_slot_live b);
  check_int "one deferred free recorded" 1 (Memory.Heap.stats h).uaf_protected

let test_os_ref_overflow () =
  (* The libOS may hold several references at once. *)
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  Memory.Heap.os_incref b;
  Memory.Heap.os_incref b;
  Memory.Heap.os_incref b;
  check_int "three refs" 3 (Memory.Heap.os_refs b);
  Memory.Heap.free b;
  Memory.Heap.os_decref b;
  Memory.Heap.os_decref b;
  check_bool "still live with one os ref" true (Memory.Heap.is_slot_live b);
  Memory.Heap.os_decref b;
  check_bool "released" false (Memory.Heap.is_slot_live b)

(* A 16 KiB push split into twelve segments holds one libOS reference
   per queued segment: taking and dropping them is counter arithmetic
   (no words), and only the last drop returns the slot. *)
let test_os_refs_words () =
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  Memory.Heap.free (Memory.Heap.alloc h 64);
  Memory.Heap.free b;
  let b = Memory.Heap.alloc h 64 in
  let k = 12 in
  let before = Gc.minor_words () in
  for _ = 1 to k do
    Memory.Heap.os_incref b
  done;
  let incref_words = Gc.minor_words () -. before in
  check_int "k refs" k (Memory.Heap.os_refs b);
  Memory.Heap.free b;
  let frees = (Memory.Heap.stats h).frees in
  let decref_words = ref 0. in
  for i = 1 to k do
    let before = Gc.minor_words () in
    Memory.Heap.os_decref b;
    decref_words := !decref_words +. (Gc.minor_words () -. before);
    check_bool (Printf.sprintf "slot live until the last decref (%d of %d)" i k) (i < k)
      (Memory.Heap.is_slot_live b);
    check_int "released exactly once, at the last decref"
      (if i < k then frees else frees + 1)
      (Memory.Heap.stats h).frees
  done;
  Alcotest.(check (float 0.)) "words per incref" 0. incref_words;
  Alcotest.(check (float 0.)) "words per decref" 0. !decref_words

(* An alloc allocates its buffer record (a header and four fields) and
   nothing else: the size-class lookup builds no closure, and neither
   does the sanitizer's canary scan of the recycled slot. *)
let alloc_words ~sanitize () =
  let h = Memory.Heap.create ~sanitize ~mode:Memory.Heap.Pool_backed () in
  Memory.Heap.free (Memory.Heap.alloc h 64);
  let before = Gc.minor_words () in
  let b = Memory.Heap.alloc h 64 in
  let words = Gc.minor_words () -. before in
  Memory.Heap.free b;
  Alcotest.(check (float 0.)) "minor words per alloc" 5. words

let test_os_decref_without_ref () =
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  Alcotest.check_raises "bad refcount" Memory.Heap.Bad_refcount (fun () ->
      Memory.Heap.os_decref b)

let test_superblock_growth () =
  let h = make_heap () in
  let buffers = List.init 200 (fun _ -> Memory.Heap.alloc h 64) in
  let s = Memory.Heap.stats h in
  check_int "200 live" 200 s.live;
  (* 64 objects per superblock -> ceil(200/64) = 4. *)
  check_int "4 superblocks" 4 s.superblocks;
  List.iter Memory.Heap.free buffers;
  check_int "all recycled" 0 (Memory.Heap.live_objects h)

let test_rkey_on_demand () =
  let h = make_heap ~mode:Memory.Heap.Register_on_demand () in
  let b = Memory.Heap.alloc h 2048 in
  check_int "nothing registered yet" 0 (Memory.Heap.stats h).registered_superblocks;
  let k1 = Memory.Heap.rkey b in
  check_int "one registration" 1 (Memory.Heap.stats h).registered_superblocks;
  let k2 = Memory.Heap.rkey b in
  check_int "rkey stable" k1 k2;
  (* A buffer in the same superblock shares the rkey. *)
  let b2 = Memory.Heap.alloc h 2048 in
  check_int "same superblock same rkey" k1 (Memory.Heap.rkey b2);
  check_int "still one registration" 1 (Memory.Heap.stats h).registered_superblocks

let test_rkey_pool_backed () =
  let h = make_heap ~mode:Memory.Heap.Pool_backed () in
  let b = Memory.Heap.alloc h 2048 in
  check_int "registered at creation" 1 (Memory.Heap.stats h).registered_superblocks;
  ignore (Memory.Heap.rkey b)

let test_rkey_not_dma () =
  let h = make_heap ~mode:Memory.Heap.Not_dma () in
  let b = Memory.Heap.alloc h 2048 in
  check_bool "not dma capable" false (Memory.Heap.is_dma_capable b);
  Alcotest.check_raises "rkey fails" (Failure "Heap.rkey: heap is not DMA-capable") (fun () ->
      ignore (Memory.Heap.rkey b))

let test_zero_copy_threshold () =
  let h = make_heap () in
  let small = Memory.Heap.alloc h 512 in
  let big = Memory.Heap.alloc h 4096 in
  check_bool "small buffers copy" false (Memory.Heap.is_dma_capable small);
  check_bool "big buffers are zero-copy" true (Memory.Heap.is_dma_capable big)

let test_headroom () =
  let h = Memory.Heap.create ~headroom:128 ~mode:Memory.Heap.Pool_backed () in
  let b = Memory.Heap.alloc_of_string h "payload" in
  (* A protocol stack prepends a 14-byte header without copying. *)
  let off = Memory.Heap.offset b in
  Memory.Heap.set_bounds b ~offset:(128 - 14) ~length:(7 + 14) ;
  check_int "window grew left" (off - 14) (Memory.Heap.offset b);
  check_int "length includes header" 21 (Memory.Heap.length b)

let test_set_bounds_checked () =
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  Alcotest.check_raises "window outside object"
    (Invalid_argument "Heap.set_bounds: window outside object") (fun () ->
      Memory.Heap.set_bounds b ~offset:0 ~length:(Memory.Heap.capacity b + 1))

let test_copy_accounting () =
  let h = make_heap () in
  Memory.Heap.note_copy h 1500;
  Memory.Heap.note_copy h 500;
  check_int "bytes copied" 2000 (Memory.Heap.stats h).bytes_copied

(* ---------- sanitizer mode ---------- *)

let make_sanitized () = Memory.Heap.create ~mode:Memory.Heap.Pool_backed ~sanitize:true ()

let test_sanitizer_poisons_freed_objects () =
  let h = make_sanitized () in
  let b = Memory.Heap.alloc_of_string ~site:"test.poison" h "sensitive" in
  let data = Memory.Heap.data b and off = Memory.Heap.offset b in
  Memory.Heap.free b;
  check_bool "freed bytes are poisoned" true (Bytes.get data off = '\xde');
  check_bool "all payload bytes poisoned" true
    (String.for_all (fun c -> c = '\xde') (Bytes.sub_string data off 9))

let test_sanitizer_catches_write_after_free () =
  let h = make_sanitized () in
  let b = Memory.Heap.alloc ~site:"test.waf" h 64 in
  let data = Memory.Heap.data b and off = Memory.Heap.offset b in
  Memory.Heap.free b;
  (* A stale write through a pointer the app kept after free. *)
  Bytes.set data off 'X';
  (match Memory.Heap.alloc h 64 with
  | _ -> Alcotest.fail "re-alloc should have tripped the canary"
  | exception Memory.Heap.Canary_violation msg ->
      check_bool "diagnostic names the last owner" true
        (String.length msg > 0
        &&
        let rec has i =
          i + 8 <= String.length msg && (String.sub msg i 8 = "test.waf" || has (i + 1))
        in
        has 0));
  match Memory.Heap.sanitizer_report h with
  | None -> Alcotest.fail "sanitizing heap must produce a report"
  | Some r -> check_int "one canary violation recorded" 1 r.canary_violations

let test_sanitizer_uaf_protected_slot_not_poisoned () =
  (* The §5.3 deferred-free path: while the libOS still holds the
     buffer (e.g. queued for retransmit), the payload must remain
     readable; poison lands only when the slot is truly released. *)
  let h = make_sanitized () in
  let b = Memory.Heap.alloc_of_string ~site:"test.uaf" h "retransmit" in
  Memory.Heap.os_incref b;
  Memory.Heap.free b;
  Alcotest.(check string) "payload intact while libOS holds it" "retransmit"
    (Memory.Heap.to_string b);
  let data = Memory.Heap.data b and off = Memory.Heap.offset b in
  Memory.Heap.os_decref b;
  check_bool "poisoned once fully released" true (Bytes.get data off = '\xde')

let test_sanitizer_deferred_free_lifecycle () =
  (* Deferred free under the sanitizer, end to end: between the app's
     free and the last os_decref the slot stays live and un-poisoned,
     the stats ledger counts it as uaf_protected, and the poison byte
     lands exactly at release. *)
  let h = make_sanitized () in
  let b = Memory.Heap.alloc_of_string ~site:"test.defer" h "in-retransmit-queue" in
  Memory.Heap.os_incref b;
  Memory.Heap.os_incref b;
  Memory.Heap.free b;
  check_bool "app reference dropped" true (not (Memory.Heap.app_live b));
  check_bool "slot still live while deferred" true (Memory.Heap.is_slot_live b);
  check_int "two libOS references" 2 (Memory.Heap.os_refs b);
  check_int "counted as uaf_protected" 1 (Memory.Heap.stats h).uaf_protected;
  check_int "not yet counted as freed slot" 1 (Memory.Heap.live_objects h);
  Alcotest.(check string) "payload intact under sanitizer" "in-retransmit-queue"
    (Memory.Heap.to_string b);
  check_bool "no poison while deferred" true
    (Bytes.get (Memory.Heap.data b) (Memory.Heap.offset b) <> Memory.Heap.poison_byte);
  Memory.Heap.os_decref b;
  check_bool "still live under one remaining ref" true (Memory.Heap.is_slot_live b);
  Memory.Heap.os_decref b;
  check_bool "poisoned at final release" true
    (Bytes.get (Memory.Heap.data b) (Memory.Heap.offset b) = Memory.Heap.poison_byte);
  check_int "slot returned" 0 (Memory.Heap.live_objects h)

let test_sanitizer_deferred_os_write_is_not_a_canary_violation () =
  (* The libOS may legitimately rewrite payload it still holds after
     the app free (e.g. patching headers for a retransmit): that write
     happens before poisoning, so recycling the slot must stay clean. *)
  let h = make_sanitized () in
  let b = Memory.Heap.alloc_of_string ~site:"test.defer-write" h "retransmit-me" in
  Memory.Heap.os_incref b;
  Memory.Heap.free b;
  Bytes.set (Memory.Heap.data b) (Memory.Heap.offset b) 'R';
  Memory.Heap.os_decref b;
  let b2 = Memory.Heap.alloc_of_string ~site:"test.defer-write2" h "recycled" in
  Alcotest.(check string) "recycled slot canary-clean" "recycled"
    (Memory.Heap.to_string b2);
  Memory.Heap.free b2;
  match Memory.Heap.sanitizer_report h with
  | None -> Alcotest.fail "sanitizing heap must produce a report"
  | Some r -> check_int "no canary violations" 0 r.canary_violations

let test_sanitizer_leak_and_double_free_report () =
  let h = make_sanitized () in
  let a = Memory.Heap.alloc ~site:"tcp.rx" h 64 in
  let b = Memory.Heap.alloc ~site:"tcp.rx" h 64 in
  let c = Memory.Heap.alloc ~site:"app.reply" h 64 in
  let d = Memory.Heap.alloc h 64 in
  ignore a;
  ignore b;
  ignore c;
  Memory.Heap.free d;
  (try Memory.Heap.free d with Memory.Heap.Double_free -> ());
  match Memory.Heap.sanitizer_report h with
  | None -> Alcotest.fail "sanitizing heap must produce a report"
  | Some r ->
      Alcotest.(check (list (pair string int)))
        "leaks grouped by site, sorted"
        [ ("app.reply", 1); ("tcp.rx", 2) ]
        r.leaks;
      check_int "double free counted" 1 r.double_frees;
      check_int "no canary violations" 0 r.canary_violations

let test_sanitizer_off_no_report () =
  let h = make_heap () in
  let b = Memory.Heap.alloc h 64 in
  ignore b;
  check_bool "no report when sanitizer off" true (Memory.Heap.sanitizer_report h = None)

let test_sanitizer_payload_roundtrip () =
  (* Poison/canary machinery must be invisible to correct code. *)
  let h = make_sanitized () in
  let b = Memory.Heap.alloc_of_string ~site:"test.rt" h "hello" in
  Alcotest.(check string) "payload" "hello" (Memory.Heap.to_string b);
  Memory.Heap.free b;
  let b2 = Memory.Heap.alloc_of_string ~site:"test.rt2" h "world" in
  Alcotest.(check string) "recycled slot works" "world" (Memory.Heap.to_string b2);
  Alcotest.(check string) "site label recorded" "test.rt2" (Memory.Heap.site b2)

let alloc_free_balanced =
  QCheck.Test.make ~name:"heap alloc/free leaves no live objects" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 65536))
    (fun sizes ->
      let h = make_heap () in
      let bufs = List.map (Memory.Heap.alloc h) sizes in
      List.iter Memory.Heap.free bufs;
      Memory.Heap.live_objects h = 0
      && (Memory.Heap.stats h).allocations = List.length sizes
      && (Memory.Heap.stats h).frees = List.length sizes)

let payload_integrity =
  QCheck.Test.make ~name:"heap payloads do not interfere" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (string_of_size (Gen.int_range 1 2000)))
    (fun payloads ->
      let h = make_heap () in
      let bufs = List.map (Memory.Heap.alloc_of_string h) payloads in
      List.for_all2 (fun s b -> Memory.Heap.to_string b = s) payloads bufs)

let suite =
  [
    Alcotest.test_case "size class rounding" `Quick test_sizeclass_rounding;
    Alcotest.test_case "size class bounds" `Quick test_sizeclass_bounds;
    Alcotest.test_case "zero-copy threshold constant" `Quick test_sizeclass_zero_copy;
    QCheck_alcotest.to_alcotest sizeclass_roundtrip;
    Alcotest.test_case "alloc roundtrip" `Quick test_alloc_roundtrip;
    Alcotest.test_case "freed slots recycle LIFO" `Quick test_alloc_recycles_lifo;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "use-after-free protection" `Quick test_uaf_protection;
    Alcotest.test_case "libOS refcount overflow table" `Quick test_os_ref_overflow;
    Alcotest.test_case "os_decref without ref raises" `Quick test_os_decref_without_ref;
    Alcotest.test_case "superblock growth" `Quick test_superblock_growth;
    Alcotest.test_case "rkey registers on demand" `Quick test_rkey_on_demand;
    Alcotest.test_case "pool-backed registers eagerly" `Quick test_rkey_pool_backed;
    Alcotest.test_case "non-DMA heap rejects rkey" `Quick test_rkey_not_dma;
    Alcotest.test_case "zero-copy only above 1kB" `Quick test_zero_copy_threshold;
    Alcotest.test_case "headroom allows header prepend" `Quick test_headroom;
    Alcotest.test_case "set_bounds is checked" `Quick test_set_bounds_checked;
    Alcotest.test_case "copy accounting" `Quick test_copy_accounting;
    Alcotest.test_case "sanitizer poisons freed objects" `Quick
      test_sanitizer_poisons_freed_objects;
    Alcotest.test_case "sanitizer catches write-after-free" `Quick
      test_sanitizer_catches_write_after_free;
    Alcotest.test_case "sanitizer defers poison while libOS holds ref" `Quick
      test_sanitizer_uaf_protected_slot_not_poisoned;
    Alcotest.test_case "sanitizer deferred-free lifecycle" `Quick
      test_sanitizer_deferred_free_lifecycle;
    Alcotest.test_case "sanitizer tolerates libOS write during deferral" `Quick
      test_sanitizer_deferred_os_write_is_not_a_canary_violation;
    Alcotest.test_case "sanitizer leak and double-free report" `Quick
      test_sanitizer_leak_and_double_free_report;
    Alcotest.test_case "no sanitizer report when off" `Quick test_sanitizer_off_no_report;
    Alcotest.test_case "sanitizer invisible to correct code" `Quick
      test_sanitizer_payload_roundtrip;
    QCheck_alcotest.to_alcotest alloc_free_balanced;
    QCheck_alcotest.to_alcotest payload_integrity;
    Alcotest.test_case "words: k libOS refs on one buffer" `Quick test_os_refs_words;
    Alcotest.test_case "words: heap alloc is its buffer record" `Quick
      (alloc_words ~sanitize:false);
    Alcotest.test_case "words: sanitized heap alloc is its buffer record" `Quick
      (alloc_words ~sanitize:true);
  ]
