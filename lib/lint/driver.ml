let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec list_tree root =
  if Sys.is_directory root then
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           if String.length name > 0 && name.[0] = '.' then []
           else list_tree (Filename.concat root name))
  else if Filename.check_suffix root ".ml" then [ root ]
  else []

let scan_file path =
  let violations = Rules.scan_string ~path (read_file path) in
  List.filter
    (fun (v : Rules.violation) -> Allowlist.find ~path ~rule:v.rule = None)
    violations

let check_tree root =
  let files = list_tree root in
  let rep = Rules.scan_project (List.map (fun p -> (p, read_file p)) files) in
  List.filter
    (fun (v : Rules.violation) ->
      v.rule <> Rules.rule_unused && Allowlist.find ~path:v.path ~rule:v.rule = None)
    rep.Rules.violations

type run_report = {
  rr_violations : Rules.violation list;
  rr_suppressed : (string * int) list;
  rr_timings : (string * float) list;
}

(* The full lint run: every violation surviving both exemption layers,
   plus an [unused-exemption] for every exemption that no longer
   suppresses anything — stale inline markers (via {!Rules.scan_project})
   and stale central {!Allowlist} entries (detected here, for entries
   whose file was actually scanned). Suppression counts merge the
   inline tally from {!Rules} with central-entry hits. *)
let run_report ?now roots =
  let files = List.concat_map list_tree roots in
  let rep = Rules.scan_project ?now (List.map (fun p -> (p, read_file p)) files) in
  let used = Hashtbl.create 8 in
  let central = Hashtbl.create 8 in
  let violations =
    List.filter
      (fun (v : Rules.violation) ->
        match Allowlist.find ~path:v.path ~rule:v.rule with
        | Some e ->
            Hashtbl.replace used (e.Allowlist.path_suffix, e.Allowlist.rule) ();
            Hashtbl.replace central v.rule
              (1 + Option.value ~default:0 (Hashtbl.find_opt central v.rule));
            false
        | None -> true)
      rep.Rules.violations
  in
  let stale =
    List.filter
      (fun (e : Allowlist.entry) ->
        List.exists (fun path -> Allowlist.covers e ~path) files
        && not (Hashtbl.mem used (e.path_suffix, e.rule)))
      Allowlist.entries
  in
  let stale_violations =
    List.map
      (fun (e : Allowlist.entry) ->
        {
          Rules.path = e.path_suffix;
          line = 0;
          col = 0;
          rule = Rules.rule_unused;
          message =
            Printf.sprintf
              "central allowlist entry for rule %s matches no finding in the scanned \
               tree; remove the stale exemption"
              e.rule;
        })
      stale
  in
  {
    rr_violations = violations @ stale_violations;
    rr_suppressed =
      List.map
        (fun (rule, n) ->
          (rule, n + Option.value ~default:0 (Hashtbl.find_opt central rule)))
        rep.Rules.suppressed;
    rr_timings = rep.Rules.timings;
  }

let run roots = (run_report roots).rr_violations

(* Per-rule finding counts over every known rule id (zeroes included),
   in rule_ids order — the [dlint --stats] table. *)
let stats violations =
  let count rule =
    List.length (List.filter (fun (v : Rules.violation) -> v.rule = rule) violations)
  in
  List.map (fun rule -> (rule, count rule)) Rules.rule_ids

let report_stats fmt violations =
  Format.fprintf fmt "per-rule findings:@.";
  List.iter (fun (rule, n) -> Format.fprintf fmt "  %-22s %d@." rule n) (stats violations)

let report_run_stats fmt r =
  Format.fprintf fmt "per-rule findings (exempted):@.";
  List.iter
    (fun (rule, n) ->
      let s = Option.value ~default:0 (List.assoc_opt rule r.rr_suppressed) in
      Format.fprintf fmt "  %-28s %3d  (%d)@." rule n s)
    (stats r.rr_violations);
  Format.fprintf fmt "per-pass wall time:@.";
  List.iter
    (fun (pass, secs) -> Format.fprintf fmt "  %-28s %8.3f ms@." pass (secs *. 1000.))
    r.rr_timings

let report fmt violations =
  List.iter (fun v -> Format.fprintf fmt "%a@." Rules.pp_violation v) violations;
  match List.length violations with
  | 0 -> Format.fprintf fmt "dlint: clean@."
  | n -> Format.fprintf fmt "dlint: %d violation(s)@." n

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_violations violations =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"count\":%d,\"violations\":[" (List.length violations));
  List.iteri
    (fun i (v : Rules.violation) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
           (json_escape v.path) v.line v.col (json_escape v.rule) (json_escape v.message)))
    violations;
  Buffer.add_string b "]}";
  Buffer.contents b

let report_json fmt violations =
  Format.fprintf fmt "%s@." (json_of_violations violations)
