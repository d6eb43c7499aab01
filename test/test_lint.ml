(* Tests for dlint (the zero-copy lint). They scan synthetic sources,
   so they prove `dune runtest` would reject a regression without
   planting one in the real tree. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rules_of vs = List.map (fun v -> v.Lint.Rules.rule) vs
let lines_of vs = List.map (fun v -> v.Lint.Rules.line) vs

let bad_source =
  String.concat "\n"
    [
      "let steal b = Bytes.sub b 0 4";
      "let size t = Hashtbl.length t";
      "let grab b = Bytes.copy b";
      "let move src dst = Bytes.blit_string src 0 dst 0 4";
      "";
    ]

let test_catches_bad_datapath_source () =
  let vs = Lint.Rules.scan_string ~path:"lib/tcp/bad.ml" bad_source in
  Alcotest.(check (list string))
    "every raw copy fires once, in line order"
    [ "unaccounted-copy"; "unaccounted-copy"; "unaccounted-copy" ]
    (rules_of vs);
  Alcotest.(check (list int)) "line numbers" [ 1; 3; 4 ] (lines_of vs)

let test_engine_is_exempt () =
  (* lib/engine is not a zero-copy module: the same source is clean
     there. *)
  check_int "engine exempt" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/engine/bad.ml" bad_source))

let test_scoping_outside_datapath () =
  (* Harness code copies for reporting; the rule covers the zero-copy
     modules only. *)
  Alcotest.(check (list string))
    "no rule applies outside the zero-copy dirs" []
    (rules_of (Lint.Rules.scan_string ~path:"lib/harness/bad.ml" bad_source))

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
    "(* dlint-allow: unaccounted-copy -- device DMA *)\n"
    ^ "let steal b = Bytes.sub b 0 4\n"
  in
  check_int "annotated line is suppressed" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/ok.ml" src));
  let wrong_rule =
    "(* dlint-allow: unused-exemption -- wrong rule id *)\n"
    ^ "let steal b = Bytes.sub b 0 4\n"
  in
  check_int "annotation only covers its own rule" 1
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/ok.ml" wrong_rule))

let test_accounted_copy_passes () =
  let src =
    "let stage h b len =\n  Memory.Heap.note_copy h len;\n  Bytes.blit b 0 b 0 len\n"
  in
  check_int "copy next to note_copy is accounted" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/copy.ml" src))

let test_allowlist_lookup () =
  check_bool "rdma_sim.ml copy exemption exists" true
    (Lint.Allowlist.find ~path:"../lib/net/rdma_sim.ml" ~rule:"unaccounted-copy" <> None);
  check_bool "unlisted file is not exempt" true
    (Lint.Allowlist.find ~path:"lib/tcp/bad.ml" ~rule:"unaccounted-copy" = None);
  check_bool "exemption is per rule" true
    (Lint.Allowlist.find ~path:"lib/net/rdma_sim.ml" ~rule:Lint.Rules.rule_unused = None);
  check_bool "the TCP stack's copies are exempted per site, not per file" true
    (Lint.Allowlist.find ~path:"lib/tcp/stack.ml" ~rule:"unaccounted-copy" = None)

let test_allowlist_is_well_formed () =
  List.iter
    (fun (e : Lint.Allowlist.entry) ->
      check_bool ("rule id valid: " ^ e.rule) true (List.mem e.rule Lint.Rules.rule_ids);
      check_bool ("justified: " ^ e.path_suffix) true (String.length e.justification > 10))
    Lint.Allowlist.entries

(* ---------- stale exemptions and output formats ---------- *)

let test_stale_inline_marker () =
  let src = "(* dlint-allow: unaccounted-copy -- nothing here anymore *)\nlet x = 1\n" in
  check_int "scan_string stays quiet (legacy surface)" 0
    (List.length (Lint.Rules.scan_string ~path:"lib/tcp/z.ml" src));
  let vs = Lint.Rules.scan_full ~path:"lib/tcp/z.ml" src in
  Alcotest.(check (list string)) "scan_full reports the stale marker"
    [ Lint.Rules.rule_unused ] (rules_of vs);
  Alcotest.(check (list int)) "at the marker line" [ 1 ] (lines_of vs);
  let live = "(* dlint-allow: unaccounted-copy -- device DMA *)\nlet steal b = Bytes.sub b 0 4\n" in
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
    (String.length out >= 10 && String.sub out 0 10 = "{\"count\":3");
  check_bool "rule id serialized" true
    (let needle = "\"rule\":\"unaccounted-copy\"" in
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
  | first :: _ -> check_int "Bytes.sub column" 15 first.Lint.Rules.col
  | [] -> Alcotest.fail "expected violations"

(* ---------- the stats table ---------- *)

(* Keeps the suite name it had when markers armed a static allocation
   rule. *)
let test_stats_table () =
  let vs =
    Lint.Rules.scan_string ~path:"lib/tcp/st.ml" "let steal b = Bytes.sub b 0 4\nlet x = 1\n"
  in
  let st = Lint.Driver.stats vs in
  check_int "stats table counts copy findings" 1 (List.assoc "unaccounted-copy" st);
  check_int "other rules report zero" 0 (List.assoc "unused-exemption" st);
  check_int "one row per known rule" (List.length Lint.Rules.rule_ids) (List.length st);
  let has sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  check_bool "no static allocation or scan rule is left" false
    (List.exists (fun (rule, _) -> has "alloc" rule || has "hotpath" rule) st)

(* ---------- lexer hardening: char literals and nested comments ---------- *)

let test_lexer_hardening () =
  let hits path src = List.length (Lint.Rules.scan_string ~path src) in
  check_int "double-quote char literal does not open a string" 1
    (hits "lib/tcp/a.ml" "let q = '\"'\nlet grab b = Bytes.copy b\n");
  check_int "escaped-quote char literal does not open a string" 1
    (hits "lib/tcp/b.ml" "let q = '\\''\nlet grab b = Bytes.copy b\n");
  check_int "nested comments strip to the outer closer" 0
    (hits "lib/tcp/c.ml" "(* outer (* Bytes.copy inner *) still outer *)\nlet x = 1\n");
  check_int "a string containing *) does not close its comment" 0
    (hits "lib/tcp/d.ml" "(* doc: \" *) \" Bytes.copy still commented *)\nlet x = 1\n");
  check_int "apostrophe prose in a comment does not derail the lexer" 1
    (hits "lib/tcp/e.ml" "(* it's just prose *) let grab b = Bytes.copy b\n")

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
  (* One marker naming two rules: the half that suppresses a finding is
     recorded, the half that suppresses nothing (a rule that no longer
     exists) is reported stale on its own. *)
  let src =
    String.concat "\n"
      [
        "(* dlint-allow: unaccounted-copy, determinism-source -- device DMA *)";
        "let steal b = Bytes.sub b 0 4";
        "";
      ]
  in
  let r = Lint.Rules.scan_project [ ("lib/tcp/multi.ml", src) ] in
  Alcotest.(check (list string))
    "only the stale half is reported" [ Lint.Rules.rule_unused ]
    (rules_of r.Lint.Rules.violations);
  check_int "copy half recorded as suppressed" 1
    (List.assoc "unaccounted-copy" r.Lint.Rules.suppressed)

let test_report_surfaces () =
  let t = ref 0.0 in
  let now () =
    t := !t +. 1.0;
    !t
  in
  let src = "let grab b = Bytes.copy b\n" in
  let r = Lint.Rules.scan_project ~now [ ("lib/tcp/r.ml", src) ] in
  Alcotest.(check (list string))
    "timed passes in pipeline order" [ "lex"; "line-rules" ]
    (List.map fst r.Lint.Rules.timings);
  check_bool "injected clock produces nonzero wall times" true
    (List.for_all (fun (_, s) -> s > 0.0) r.Lint.Rules.timings);
  check_int "suppression table covers every rule" (List.length Lint.Rules.rule_ids)
    (List.length r.Lint.Rules.suppressed)

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
    Alcotest.test_case "allowlist lookup" `Quick test_allowlist_lookup;
    Alcotest.test_case "allowlist entries well-formed" `Quick test_allowlist_is_well_formed;
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
  ]
