(* dlint: the zero-copy lint.

   Usage: dlint [--format human|json] [--stats] [--out FILE] [DIR ...]
                                                          (default: lib)

   Walks every .ml file under the given roots and rejects violations of
   the rules in Lint.Rules (unaccounted copies) and stale exemptions;
   exits 1 when any survive the allowlist and inline dlint-allow
   annotations. --stats appends a per-rule findings/exemptions table
   and per-pass wall times; --out FILE overrides where the
   machine-readable JSON artifact is written (default out/lint.json,
   best-effort: a read-only tree — e.g. the dune test sandbox — is not
   an error). Wired into `dune runtest` via the @lint alias. *)

let usage () =
  prerr_endline
    "usage: dlint [--format human|json] [--stats] [--out FILE] [DIR ...]";
  exit 2

(* Best-effort file write: the lint result must not depend on the
   writability of the artifact location. *)
let try_write path contents =
  try
    let dir = Filename.dirname path in
    (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
    true
  with Sys_error _ -> false

let () =
  let json = ref false in
  let stats = ref false in
  let out_json = ref "out/lint.json" in
  let roots = ref [] in
  let set_format = function
    | "json" -> json := true
    | "human" -> json := false
    | f ->
        Printf.eprintf "dlint: unknown format %S (expected human or json)\n" f;
        usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--format" :: fmt :: rest ->
        set_format fmt;
        parse rest
    | [ "--format" ] -> usage ()
    | arg :: rest when String.length arg > 9 && String.sub arg 0 9 = "--format=" ->
        set_format (String.sub arg 9 (String.length arg - 9));
        parse rest
    | "--out" :: file :: rest ->
        out_json := file;
        parse rest
    | [ "--out" ] -> usage ()
    | "--stats" :: rest ->
        stats := true;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | root :: rest ->
        roots := root :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = match List.rev !roots with [] -> [ "lib" ] | rs -> rs in
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Printf.eprintf "dlint: no such directory: %s\n" root;
        usage ()
      end)
    roots;
  (* the wall clock is injected here, so the lint library itself reads
     no ambient time *)
  let r = Lint.Driver.run_report ~now:Unix.gettimeofday roots in
  let violations = r.Lint.Driver.rr_violations in
  ignore (try_write !out_json (Lint.Driver.json_of_violations violations ^ "\n"));
  if !json then Lint.Driver.report_json Format.std_formatter violations
  else Lint.Driver.report Format.std_formatter violations;
  if !stats then Lint.Driver.report_run_stats Format.std_formatter r;
  if violations <> [] then exit 1
