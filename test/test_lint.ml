(* Tests for dlint (the determinism / zero-copy lint) and the
   determinism self-check harness. The lint tests scan synthetic
   sources, so they prove `dune runtest` would reject a regression
   without planting one in the real tree. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rules_of vs = List.map (fun v -> v.Lint.Rules.rule) vs
let lines_of vs = List.map (fun v -> v.Lint.Rules.line) vs

let bad_source =
  String.concat "\n"
    [
      "let () = Random.self_init ()";
      "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0";
      "let drain t f = Hashtbl.iter f t";
      "let steal b = Bytes.sub b 0 4";
      "let same buf1 buf2 = if buf1 = buf2 then 1 else 0";
      "let stamp () = Sys.time ()";
      "";
    ]

let test_catches_bad_datapath_source () =
  let vs = Lint.Rules.scan_string ~path:"lib/tcp/bad.ml" bad_source in
  Alcotest.(check (list string))
    "every rule fires once, in line order"
    [
      "determinism-source";
      "unordered-hashtbl";
      "unordered-hashtbl";
      "unaccounted-copy";
      "poly-compare-buffer";
      "determinism-source";
    ]
    (rules_of vs);
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 3; 4; 5; 6 ] (lines_of vs)

let test_engine_is_exempt () =
  (* lib/engine owns the ambient sources (Prng/Clock wrap them) and is
     not a datapath module: the same source is clean there. *)
  check_int "engine exempt from all four rules" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/engine/bad.ml" bad_source))

let test_scoping_outside_datapath () =
  (* Harness code may iterate Hashtbls (reporting only), but ambient
     randomness is still banned. *)
  let vs = Lint.Rules.scan_string ~path:"lib/harness/bad.ml" bad_source in
  Alcotest.(check (list string))
    "only determinism-source applies outside datapath/zero-copy dirs"
    [ "determinism-source"; "determinism-source" ]
    (rules_of vs)

let test_comments_and_strings_ignored () =
  let src =
    "(* Random.self_init would be wrong here; Hashtbl.iter too *)\n"
    ^ "let doc = \"Unix.gettimeofday and Bytes.blit in a string\"\n"
    ^ "let c = 'x'\n"
  in
  check_int "no violations from comments or literals" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/doc.ml" src))

let test_inline_allow_annotation () =
  let src =
    "(* dlint-allow: unordered-hashtbl -- size is order-insensitive *)\n"
    ^ "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0\n"
  in
  check_int "annotated line is suppressed" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/ok.ml" src));
  let wrong_rule =
    "(* dlint-allow: determinism-source -- wrong rule id *)\n"
    ^ "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0\n"
  in
  check_int "annotation only covers its own rule" 1
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/ok.ml" wrong_rule))

let test_accounted_copy_passes () =
  let src =
    "let stage h b len =\n  Memory.Heap.note_copy h len;\n  Bytes.blit b 0 b 0 len\n"
  in
  check_int "copy next to note_copy is accounted" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/copy.ml" src))

let test_sorted_helpers_pass () =
  let src =
    "let flush t f =\n\
    \  Engine.Det.hashtbl_iter_sorted ~compare:Int.compare t f;\n\
    \  Engine.Det.hashtbl_fold_sorted ~compare:Int.compare t (fun _ _ n -> n) 0\n"
  in
  check_int "Det helpers are the sanctioned spelling" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/demikernel/ok.ml" src))

let test_raw_print_in_datapath () =
  let src =
    "let report n = Printf.printf \"%d\" n\n" ^ "let shout () = print_endline \"hot\"\n"
  in
  Alcotest.(check (list string))
    "raw stdout flagged in datapath dirs"
    [ "raw-print-in-datapath"; "raw-print-in-datapath" ]
    (rules_of (Lint.Rules.scan_string ~path:"lib/tcp/out.ml" src));
  Alcotest.(check (list string))
    "engine hot-path modules are in scope too"
    [ "raw-print-in-datapath" ]
    (rules_of (Lint.Rules.scan_string ~path:"lib/engine/sim.ml" "let f () = print_endline \"x\"\n"));
  check_int "trace/span/dump files are the sanctioned output paths" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/engine/trace.ml" src));
  check_int "reporting layers outside the scoped dirs are free to print" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/metrics/table.ml" src));
  check_int "inline dlint-allow still works for deliberate dumps" 0
    (List.length
       (Lint.Rules.scan_string ~path:"lib/net/x.ml"
          ("(* dlint-allow: raw-print-in-datapath -- deliberate dump *)\n"
          ^ "let report n = Printf.printf \"%d\" n\n")))

let test_allowlist_lookup () =
  check_bool "rdma_sim.ml copy exemption exists" true
    (Lint.Allowlist.find ~path:"../lib/net/rdma_sim.ml" ~rule:"unaccounted-copy" <> None);
  check_bool "unlisted file is not exempt" true
    (Lint.Allowlist.find ~path:"lib/tcp/bad.ml" ~rule:"unaccounted-copy" = None);
  check_bool "exemption is per rule" true
    (Lint.Allowlist.find ~path:"lib/net/rdma_sim.ml" ~rule:"unordered-hashtbl" = None);
  check_bool "the TCP stack's copies are exempted per site, not per file" true
    (Lint.Allowlist.find ~path:"lib/tcp/stack.ml" ~rule:"unaccounted-copy" = None)

let test_allowlist_is_well_formed () =
  List.iter
    (fun (e : Lint.Allowlist.entry) ->
      check_bool ("rule id valid: " ^ e.rule) true (List.mem e.rule Lint.Rules.rule_ids);
      check_bool ("justified: " ^ e.path_suffix) true (String.length e.justification > 10))
    Lint.Allowlist.entries

(* ---------- ownership dataflow pass ---------- *)

let scan path src = Lint.Rules.scan_string ~path src

let test_ownership_free_after_push () =
  let src =
    String.concat "\n"
      [
        "let send api qd =";
        "  let buf = api.Pdpix.alloc_str \"hi\" in";
        "  let qt = api.Pdpix.push qd [ buf ] in";
        "  api.Pdpix.free buf;";
        "  ignore (api.Pdpix.wait qt)";
        "";
      ]
  in
  let vs = scan "lib/apps/bad.ml" src in
  Alcotest.(check (list string)) "free while token outstanding" [ "free-after-push" ]
    (rules_of vs);
  Alcotest.(check (list int)) "on the free line" [ 4 ] (lines_of vs)

let test_ownership_double_free () =
  let src =
    String.concat "\n"
      [
        "let twice api =";
        "  let buf = api.Pdpix.alloc 64 in";
        "  api.Pdpix.free buf;";
        "  api.Pdpix.free buf";
        "";
      ]
  in
  let vs = scan "lib/apps/bad.ml" src in
  Alcotest.(check (list string)) "second free flagged" [ "double-free-path" ] (rules_of vs);
  Alcotest.(check (list int)) "on the second free" [ 4 ] (lines_of vs)

let test_ownership_leaked_buffer () =
  let never_mentioned =
    "let leak api =\n  let buf = api.Pdpix.alloc 64 in\n  ()\n"
  in
  let vs = scan "lib/apps/bad.ml" never_mentioned in
  Alcotest.(check (list string)) "alloc never released" [ "leaked-buffer" ] (rules_of vs);
  check_int "column points at the alloc" 17 (List.hd vs).Lint.Rules.col;
  let bound_to_wildcard = "let leak api =\n  let _ = api.Pdpix.alloc 64 in\n  ()\n" in
  Alcotest.(check (list string)) "wildcard binder leaks" [ "leaked-buffer" ]
    (rules_of (scan "lib/apps/bad.ml" bound_to_wildcard))

let test_ownership_dropped_token () =
  let never_waited = "let fire api qd sga =\n  let qt = api.Pdpix.push qd sga in\n  ()\n" in
  Alcotest.(check (list string)) "token never redeemed" [ "dropped-token" ]
    (rules_of (scan "lib/apps/bad.ml" never_waited));
  let ignored = "let fire api qd sga =\n  ignore (api.Pdpix.push qd sga)\n" in
  Alcotest.(check (list string)) "ignored push token" [ "dropped-token" ]
    (rules_of (scan "lib/apps/bad.ml" ignored))

let test_ownership_clean_idioms () =
  let echo_idiom =
    String.concat "\n"
      [
        "let ship api qd sga =";
        "  let qt = api.Pdpix.push qd sga in";
        "  (match api.Pdpix.wait qt with";
        "  | Pdpix.Pushed -> List.iter api.Pdpix.free sga";
        "  | _ -> failwith \"push\")";
        "";
        "let payload_of_size api n = api.Pdpix.alloc n";
        "";
        "let branchy api h flag =";
        "  let buf = Memory.Heap.alloc h 64 in";
        "  if flag then Memory.Heap.free buf";
        "  else Memory.Heap.free buf";
        "";
      ]
  in
  check_int "push/wait/free idiom, alloc-returning helper, per-branch frees" 0
    (List.length (scan "lib/apps/ok.ml" echo_idiom));
  check_int "ownership pass only covers buffer-handling dirs" 0
    (List.length (scan "lib/engine/any.ml" "let fire api =\n  ignore (api.Pdpix.pop 1)\n"))

let test_ownership_respects_inline_allow () =
  let src =
    "(* dlint-allow: dropped-token -- completion observed out of band *)\n"
    ^ "let fire api qd sga =\n  ignore (api.Pdpix.push qd sga)\n"
  in
  (* The marker sits one line above the flagged line's binder... put it
     directly above the ignore line instead. *)
  check_int "marker above flagged line suppresses" 0
    (List.length
       (scan "lib/apps/ok.ml"
          "let fire api qd sga =\n\
           (* dlint-allow: dropped-token -- completion observed out of band *)\n\
          \  ignore (api.Pdpix.push qd sga)\n"));
  check_int "marker too far away does not" 1 (List.length (scan "lib/apps/bad.ml" src))

(* ---------- stale exemptions and output formats ---------- *)

let test_stale_inline_marker () =
  let src = "(* dlint-allow: determinism-source -- nothing here anymore *)\nlet x = 1\n" in
  check_int "scan_string stays quiet (legacy surface)" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/z.ml" src));
  let vs = Lint.Rules.scan_full ~path:"lib/tcp/z.ml" src in
  Alcotest.(check (list string)) "scan_full reports the stale marker"
    [ Lint.Rules.rule_unused ] (rules_of vs);
  Alcotest.(check (list int)) "at the marker line" [ 1 ] (lines_of vs);
  let live =
    "(* dlint-allow: unordered-hashtbl -- order-insensitive count *)\n"
    ^ "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0\n"
  in
  check_int "a marker that suppresses something is not stale" 0
    (List.length (Lint.Rules.scan_full ~path:"lib/tcp/z.ml" live))

let with_temp_tree content f =
  let dir = Filename.temp_file "dlint_tree" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let subdir = Filename.concat (Filename.concat dir "lib") "net" in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs subdir;
  let file = Filename.concat subdir "rdma_sim.ml" in
  let oc = open_out file in
  output_string oc content;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Sys.rmdir subdir;
      Sys.rmdir (Filename.concat dir "lib");
      Sys.rmdir dir)
    (fun () -> f dir)

let test_stale_central_entry () =
  (* lib/net/rdma_sim.ml carries a central unaccounted-copy exemption. A
     scanned tree where that file no longer needs it must flag the
     entry; one where it still fires must not. *)
  with_temp_tree "let x = 1\n" (fun dir ->
      let vs = Lint.Driver.run [ dir ] in
      Alcotest.(check (list string)) "clean file makes the entry stale"
        [ Lint.Rules.rule_unused ] (rules_of vs));
  with_temp_tree "let f b = Bytes.blit b 0 b 0 4\n" (fun dir ->
      check_int "entry still in use: suppressed and not stale" 0
        (List.length (Lint.Driver.run [ dir ])))

let test_json_report () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let vs = Lint.Rules.scan_string ~path:"lib/tcp/bad.ml" bad_source in
  Lint.Driver.report_json fmt vs;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  check_bool "count present" true
    (String.length out >= 10 && String.sub out 0 10 = "{\"count\":6");
  check_bool "rule id serialized" true
    (let needle = "\"rule\":\"poly-compare-buffer\"" in
     let n = String.length needle in
     let rec find i = i + n <= String.length out && (String.sub out i n = needle || find (i + 1)) in
     find 0);
  let empty = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer empty in
  Lint.Driver.report_json fmt [];
  Format.pp_print_flush fmt ();
  check_bool "empty run serializes to a zero count" true
    (String.length (Buffer.contents empty) >= 11
    && String.sub (Buffer.contents empty) 0 11 = "{\"count\":0,")

let test_violations_carry_columns () =
  let vs = Lint.Rules.scan_string ~path:"lib/tcp/bad.ml" bad_source in
  List.iter (fun v -> check_bool "1-based column" true (v.Lint.Rules.col >= 1)) vs;
  match vs with
  | first :: _ -> check_int "Random.self_init column" 10 first.Lint.Rules.col
  | [] -> Alcotest.fail "expected violations"

(* ---------- the stats table ---------- *)

(* Keeps the suite name it had when markers armed a static allocation
   rule. *)
let test_stats_table () =
  let vs =
    Lint.Rules.scan_string ~path:"lib/tcp/st.ml"
      "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t 0\nlet x = 1\n"
  in
  let st = Lint.Driver.stats vs in
  check_int "stats table counts hashtbl findings" 1 (List.assoc "unordered-hashtbl" st);
  check_int "other rules report zero" 0 (List.assoc "determinism-source" st);
  check_int "one row per known rule" (List.length Lint.Rules.rule_ids) (List.length st);
  check_bool "no static allocation or scan rule is left" false
    (List.exists
       (fun (rule, _) ->
         Lint.Lexer.contains_sub rule "alloc" || Lint.Lexer.contains_sub rule "hotpath")
       st)

(* ---------- lexer hardening: char literals and nested comments ---------- *)

let test_lexer_hardening () =
  let hits path src = List.length (Lint.Rules.scan_string ~path src) in
  check_int "double-quote char literal does not open a string" 1
    (hits "lib/tcp/a.ml" "let q = '\"'\nlet drain t f = Hashtbl.iter f t\n");
  check_int "escaped-quote char literal does not open a string" 1
    (hits "lib/tcp/b.ml" "let q = '\\''\nlet drain t f = Hashtbl.iter f t\n");
  check_int "nested comments strip to the outer closer" 0
    (hits "lib/tcp/c.ml" "(* outer (* Hashtbl.iter inner *) still outer *)\nlet x = 1\n");
  check_int "a string containing *) does not close its comment" 0
    (hits "lib/tcp/d.ml" "(* doc: \" *) \" Hashtbl.iter still commented *)\nlet x = 1\n");
  check_int "apostrophe prose in a comment does not derail the lexer" 1
    (hits "lib/tcp/e.ml" "(* it's just prose *) let drain t f = Hashtbl.iter f t\n")

(* ---------- exemption markers and the report ----------

   These three keep the suite names they had under the interprocedural
   scan pass, which is gone: scaling is measured (test_scaling.ml). *)

let test_retired_rule_exemption_is_stale () =
  (* A leftover exemption for the retired scan rule suppresses nothing,
     so it is reported like any other stale marker. *)
  let src =
    "(* dlint-allow: scan-in-hotpath -- bounded by the burst size *)\nlet walk xs = List.length xs\n"
  in
  Alcotest.(check (list string))
    "stale scan exemption is reported"
    [ Lint.Rules.rule_unused ]
    (rules_of (Lint.Rules.scan_project_full [ ("lib/tcp/stale.ml", src) ]));
  check_bool "the scan rule is not a rule any more" false
    (List.mem "scan-in-hotpath" Lint.Rules.rule_ids)

let test_multi_rule_allow () =
  (* One marker naming two rules suppresses both findings on the
     covered line, and neither half goes stale. *)
  let src =
    String.concat "\n"
      [
        "(* dlint-allow: unordered-hashtbl, determinism-source -- seeded once, order-free count *)";
        "let hot t = Random.int (Hashtbl.fold (fun _ _ n -> n + 1) t 1)";
        "";
      ]
  in
  check_int "two rules, one marker, zero findings" 0
    (List.length (Lint.Rules.scan_project_full [ ("lib/tcp/multi.ml", src) ]));
  let r = Lint.Rules.scan_project [ ("lib/tcp/multi.ml", src) ] in
  check_int "hashtbl half recorded as suppressed" 1
    (List.assoc "unordered-hashtbl" r.Lint.Rules.suppressed);
  check_int "determinism half recorded as suppressed" 1
    (List.assoc "determinism-source" r.Lint.Rules.suppressed)

let test_report_surfaces () =
  let t = ref 0.0 in
  let now () =
    t := !t +. 1.0;
    !t
  in
  let src = "let drain t f = Hashtbl.iter f t\n" in
  let r = Lint.Rules.scan_project ~now [ ("lib/tcp/r.ml", src) ] in
  Alcotest.(check (list string))
    "timed passes in pipeline order" [ "lex"; "line-rules"; "ownership" ]
    (List.map fst r.Lint.Rules.timings);
  check_bool "injected clock produces nonzero wall times" true
    (List.for_all (fun (_, s) -> s > 0.0) r.Lint.Rules.timings);
  check_int "suppression table covers every rule" (List.length Lint.Rules.rule_ids)
    (List.length r.Lint.Rules.suppressed)

(* ---------- the gc-budget oracle ---------- *)

let test_gcbudget_oracle_catches_allocation () =
  Memory.Gcbudget.reset ();
  Memory.Gcbudget.set_armed true;
  Fun.protect
    ~finally:(fun () ->
      Memory.Gcbudget.set_armed false;
      Memory.Gcbudget.reset ())
    (fun () ->
      let dirty = Memory.Gcbudget.site ~warmup:0 "test.dirty" in
      let sink = ref [] in
      for i = 1 to 8 do
        Memory.Gcbudget.enter dirty;
        sink := i :: !sink (* a cons cell inside the measured window *);
        Memory.Gcbudget.leave_steady dirty
      done;
      let clean = Memory.Gcbudget.site ~warmup:0 "test.clean" in
      for _ = 1 to 8 do
        Memory.Gcbudget.enter clean;
        Memory.Gcbudget.leave_steady clean
      done;
      let busy = Memory.Gcbudget.site ~warmup:0 "test.busy" in
      for i = 1 to 8 do
        Memory.Gcbudget.enter busy;
        sink := i :: !sink;
        Memory.Gcbudget.leave_busy busy
      done;
      let stat name =
        List.find
          (fun s -> s.Memory.Gcbudget.site_name = name)
          (Memory.Gcbudget.sites ())
      in
      check_int "every allocating steady poll is a violation" 8
        (stat "test.dirty").Memory.Gcbudget.site_violations;
      check_bool "worst-case words recorded" true
        ((stat "test.dirty").Memory.Gcbudget.worst_words > 0);
      check_int "allocation-free steady polls pass" 0
        (stat "test.clean").Memory.Gcbudget.site_violations;
      check_int "clean polls are still measured" 8 (stat "test.clean").Memory.Gcbudget.measured;
      check_int "busy polls are never asserted" 0
        (stat "test.busy").Memory.Gcbudget.site_violations;
      check_int "busy polls are not measured" 0 (stat "test.busy").Memory.Gcbudget.measured;
      ignore (Stdlib.List.length !sink))

let test_gcbudget_warmup_and_disarmed () =
  Memory.Gcbudget.reset ();
  Memory.Gcbudget.set_armed true;
  Fun.protect
    ~finally:(fun () ->
      Memory.Gcbudget.set_armed false;
      Memory.Gcbudget.reset ())
    (fun () ->
      let s = Memory.Gcbudget.site ~warmup:5 "test.warmup" in
      let sink = ref [] in
      for i = 1 to 5 do
        Memory.Gcbudget.enter s;
        sink := i :: !sink;
        Memory.Gcbudget.leave_steady s
      done;
      let stat =
        List.find
          (fun st -> st.Memory.Gcbudget.site_name = "test.warmup")
          (Memory.Gcbudget.sites ())
      in
      check_int "warmup polls observed" 5 stat.Memory.Gcbudget.polls;
      check_int "warmup polls not measured" 0 stat.Memory.Gcbudget.measured;
      check_int "warmup allocations exempt" 0 stat.Memory.Gcbudget.site_violations;
      ignore (Stdlib.List.length !sink));
  (* Disarmed, the protocol is a no-op: nothing is even observed. *)
  let s = Memory.Gcbudget.site ~warmup:0 "test.disarmed" in
  let sink = ref [] in
  for i = 1 to 4 do
    Memory.Gcbudget.enter s;
    sink := i :: !sink;
    Memory.Gcbudget.leave_steady s
  done;
  check_int "disarmed polls never counted" 0 (Memory.Gcbudget.total_measured ());
  ignore (Stdlib.List.length !sink)

let test_gcbudget_busy_budget () =
  let units = 8 in
  (* One cons (3 words) per unit; the list ref exists before the window. *)
  let window s =
    let sink = ref [] in
    Memory.Gcbudget.enter s;
    for i = 1 to units do
      sink := i :: !sink
    done;
    Memory.Gcbudget.leave_busy s ~units;
    ignore (Sys.opaque_identity !sink)
  in
  let stat name =
    List.find (fun st -> st.Memory.Gcbudget.site_name = name) (Memory.Gcbudget.sites ())
  in
  Memory.Gcbudget.reset ();
  Memory.Gcbudget.set_armed true;
  Fun.protect
    ~finally:(fun () ->
      Memory.Gcbudget.set_armed false;
      Memory.Gcbudget.reset ())
    (fun () ->
      window (Memory.Gcbudget.site ~warmup:0 ~budget:3 "test.budget.exact");
      check_int "exactly at budget passes" 0
        (stat "test.budget.exact").Memory.Gcbudget.site_violations;
      window (Memory.Gcbudget.site ~warmup:0 ~budget:2 "test.budget.over");
      let over = stat "test.budget.over" in
      check_int "one word per unit over budget is a violation" 1
        over.Memory.Gcbudget.site_violations;
      check_int "the excess is reported exactly" units over.Memory.Gcbudget.worst_words;
      check_int "busy windows leave the steady counts alone" 0
        (over.Memory.Gcbudget.polls + Memory.Gcbudget.total_measured ());
      check_int "over-budget windows count as violations" 1
        (Memory.Gcbudget.total_violations ()));
  (* Disarmed, a budgeted window is a no-op too. *)
  window (Memory.Gcbudget.site ~warmup:0 ~budget:0 "test.budget.disarmed");
  check_int "disarmed windows never count" 0 (Memory.Gcbudget.total_violations ())

let test_selfcheck_two_runs_identical () =
  let r = Harness.Selfcheck.run ~seed:7L ~count:8 () in
  check_bool "digests and metrics identical across same-seed runs" true
    r.Harness.Selfcheck.ok;
  check_bool "digest non-trivial" true
    (String.length r.Harness.Selfcheck.first.Harness.Selfcheck.digest > 16)

let suite =
  [
    Alcotest.test_case "lint catches bad datapath source" `Quick
      test_catches_bad_datapath_source;
    Alcotest.test_case "lib/engine is exempt" `Quick test_engine_is_exempt;
    Alcotest.test_case "rule scoping outside datapath" `Quick test_scoping_outside_datapath;
    Alcotest.test_case "comments and strings ignored" `Quick
      test_comments_and_strings_ignored;
    Alcotest.test_case "inline dlint-allow annotation" `Quick test_inline_allow_annotation;
    Alcotest.test_case "accounted copy passes" `Quick test_accounted_copy_passes;
    Alcotest.test_case "Det sorted helpers pass" `Quick test_sorted_helpers_pass;
    Alcotest.test_case "raw print in datapath" `Quick test_raw_print_in_datapath;
    Alcotest.test_case "allowlist lookup" `Quick test_allowlist_lookup;
    Alcotest.test_case "allowlist entries well-formed" `Quick test_allowlist_is_well_formed;
    Alcotest.test_case "ownership: free after push" `Quick test_ownership_free_after_push;
    Alcotest.test_case "ownership: double free" `Quick test_ownership_double_free;
    Alcotest.test_case "ownership: leaked buffer" `Quick test_ownership_leaked_buffer;
    Alcotest.test_case "ownership: dropped token" `Quick test_ownership_dropped_token;
    Alcotest.test_case "ownership: clean idioms pass" `Quick test_ownership_clean_idioms;
    Alcotest.test_case "ownership: inline allow honoured" `Quick
      test_ownership_respects_inline_allow;
    Alcotest.test_case "stale inline dlint-allow marker" `Quick test_stale_inline_marker;
    Alcotest.test_case "stale central allowlist entry" `Quick test_stale_central_entry;
    Alcotest.test_case "json report format" `Quick test_json_report;
    Alcotest.test_case "violations carry columns" `Quick test_violations_carry_columns;
    Alcotest.test_case "alloc: dlint --stats table" `Quick test_stats_table;
    Alcotest.test_case "lexer: char literals and nested comments" `Quick test_lexer_hardening;
    Alcotest.test_case "interproc: exempt callee + staleness" `Quick
      test_retired_rule_exemption_is_stale;
    Alcotest.test_case "interproc: multi-rule allow marker" `Quick test_multi_rule_allow;
    Alcotest.test_case "interproc: report timings + suppression" `Quick test_report_surfaces;
    Alcotest.test_case "gc-budget: oracle catches allocation" `Quick
      test_gcbudget_oracle_catches_allocation;
    Alcotest.test_case "gc-budget: warmup and disarmed" `Quick
      test_gcbudget_warmup_and_disarmed;
    Alcotest.test_case "gc-budget: busy windows hold a per-unit budget" `Quick
      test_gcbudget_busy_budget;
    Alcotest.test_case "selfcheck: same seed, same fingerprint" `Quick
      test_selfcheck_two_runs_identical;
  ]
