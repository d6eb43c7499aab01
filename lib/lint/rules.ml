type violation = {
  path : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rule_determinism = "determinism-source"
let rule_hashtbl = "unordered-hashtbl"
let rule_copy = "unaccounted-copy"
let rule_poly = "poly-compare-buffer"
let rule_print = "raw-print-in-datapath"
let rule_unused = "unused-exemption"

let rule_ids =
  [ rule_determinism; rule_hashtbl; rule_copy; rule_poly; rule_print ]
  @ Ownership.rule_ids @ [ rule_unused ]

(* ---------- path classification ---------- *)

(* The first directory component after a "lib" segment, so rules scope
   the same way whether dlint was handed "lib", "../lib" or an absolute
   path. *)
let lib_subdir path =
  let rec go = function
    | "lib" :: sub :: _ :: _ -> Some sub
    | _ :: rest -> go rest
    | [] -> None
  in
  go (String.split_on_char '/' path)

let datapath_dirs = [ "tcp"; "demikernel"; "apps"; "net" ]

(* raw-print-in-datapath: hot-path modules must report through the trace
   ring or Metrics tables, not ad-hoc stdout. Files whose name marks
   them as trace/dump code are the sanctioned output paths. *)
let raw_print_dirs = [ "tcp"; "net"; "demikernel"; "engine" ]

let raw_print_exempt_file path =
  let base = Filename.basename path in
  Lexer.contains_sub base "trace" || Lexer.contains_sub base "span"
  || Lexer.contains_sub base "dump"
let zero_copy_dirs = [ "memory"; "tcp"; "net"; "demikernel" ]
let poly_compare_dirs = "apps" :: zero_copy_dirs

(* Everything that handles Heap.buffers / qtokens through the PDPIX
   api or the heap directly: libOS implementations, applications,
   baselines and the measurement harness. *)
let ownership_dirs = [ "tcp"; "demikernel"; "apps"; "baselines"; "harness" ]

(* ---------- lexical layer (shared with the ownership pass) ---------- *)

let is_ident_char = Lexer.is_ident_char
let contains_token = Lexer.contains_token
let word_at = Lexer.word_at
let contains_sub = Lexer.contains_sub

let names_a_buffer ident = contains_sub (String.lowercase_ascii ident) "buf"

(* poly-compare pattern A: a polymorphic [compare] (bare or
   Stdlib-qualified, not a labelled argument) applied to a
   buffer-named first argument. Returns the 1-based column. *)
let poly_compare_call line =
  let n = String.length line in
  let tok = "compare" and m = 7 in
  let rec at i =
    if i + m > n then None
    else if
      String.sub line i m = tok
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && (i + m >= n || not (is_ident_char line.[i + m]))
      && (i = 0 || line.[i - 1] <> '~')
      && (i + m >= n || line.[i + m] <> ':')
      && (i = 0
         || line.[i - 1] <> '.'
         ||
         let q = word_at line (i - 2) in
         q = "Stdlib" || q = "Stdlib.compare")
    then
      (* first argument after the call *)
      let rec skip_ws j = if j < n && line.[j] = ' ' then skip_ws (j + 1) else j in
      let j = skip_ws (i + m) in
      if j < n && (is_ident_char line.[j] || line.[j] = '(') then
        let arg = word_at line (if line.[j] = '(' then j + 1 else j) in
        if names_a_buffer arg then Some (i + 1) else at (i + 1)
      else at (i + 1)
    else at (i + 1)
  in
  at 0

(* poly-compare pattern B: [buf_x = buf_y] / [buf_x <> buf_y] in a
   conditional context. The context requirement keeps record-literal
   fields like [{ seg_buf = buf }] from matching. Returns the 1-based
   column of the operator. *)
let poly_eq_on_buffers line =
  let n = String.length line in
  let in_condition =
    contains_token line "if" || contains_token line "when" || contains_sub line "&&"
    || contains_sub line "||"
  in
  if not in_condition then None
  else
    let rec at i =
      if i >= n then None
      else if
        line.[i] = '='
        && (i = 0 || not (List.mem line.[i - 1] [ '<'; '>'; '!'; '='; ':'; '+'; '-'; '*' ]))
        && (i + 1 >= n || line.[i + 1] <> '=')
        || (i + 1 < n && line.[i] = '<' && line.[i + 1] = '>')
      then begin
        let left = if i > 1 then word_at line (i - 2) else "" in
        let skip = if i + 1 < n && line.[i] = '<' then 2 else 1 in
        let rec skip_ws j = if j < n && line.[j] = ' ' then skip_ws (j + 1) else j in
        let j = skip_ws (i + skip) in
        let right = if j < n then word_at line j else "" in
        if names_a_buffer left && names_a_buffer right then Some (i + 1) else at (i + 1)
      end
      else at (i + 1)
    in
    at 1

(* ---------- inline allow annotations ---------- *)

(* A comment containing [dlint-allow: <rule-id> ... -- justification]
   suppresses the named rule(s) on the same line and the line below.
   One marker may name several rules, whitespace- or comma-separated;
   the ["--"] justification separator ends the list, and each named
   rule is tracked separately by the stale-marker detector. Returns
   the suppression predicate (which records which markers actually
   suppressed something, tallying per rule into [tally]) and the
   stale-marker query. *)
let inline_allows ~tally raw_lines =
  let marker = "dlint-allow:" in
  let allows = Hashtbl.create 8 in
  let markers = ref [] in
  let used = Hashtbl.create 8 in
  Array.iteri
    (fun idx line ->
      let n = String.length line and m = String.length marker in
      let rec find i =
        if i + m > n then ()
        else if String.sub line i m = marker then begin
          let rec skip_ws j = if j < n && line.[j] = ' ' then skip_ws (j + 1) else j in
          let rec stop k =
            if k < n && (is_ident_char line.[k] || line.[k] = '-') then stop (k + 1) else k
          in
          (* rule ids start with a lowercase letter, so the "--"
             justification separator terminates the loop *)
          let rec rules j =
            let j = skip_ws j in
            let j = if j < n && line.[j] = ',' then skip_ws (j + 1) else j in
            if j < n && line.[j] >= 'a' && line.[j] <= 'z' then begin
              let k = stop j in
              let rule = String.sub line j (k - j) in
              markers := (idx + 1, i + 1, rule) :: !markers;
              Hashtbl.replace allows (idx + 1, rule) (idx + 1);
              Hashtbl.replace allows (idx + 2, rule) (idx + 1);
              rules k
            end
          in
          rules (i + m)
        end
        else find (i + 1)
      in
      find 0)
    raw_lines;
  let allowed ~line ~rule =
    match Hashtbl.find_opt allows (line, rule) with
    | Some marker_line ->
        Hashtbl.replace used (marker_line, rule) ();
        Hashtbl.replace tally rule
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally rule));
        true
    | None -> false
  in
  let unused () =
    List.rev !markers
    |> List.filter (fun (mline, _, rule) -> not (Hashtbl.mem used (mline, rule)))
  in
  (allowed, unused)

(* ---------- the scanner ---------- *)

let determinism_tokens = [ "Random."; "Unix."; "Sys.time" ]
let hashtbl_tokens = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let copy_tokens =
  [ "Bytes.blit_string"; "Bytes.blit"; "Bytes.sub_string"; "Bytes.sub"; "Bytes.copy" ]

let raw_print_tokens = [ "Printf.printf"; "print_endline"; "print_string" ]

let accounting_tokens = [ "note_copy"; "charge_copy" ]

let by_position a b =
  match compare a.path b.path with
  | 0 -> ( match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
  | c -> c

(* Per-file scanning state: the stripped lines plus this file's inline
   allow machinery, shared by the passes. *)
type file_state = {
  fs_path : string;
  fs_sub : string option;
  fs_stripped : string array;
  fs_allowed : line:int -> rule:string -> bool;
  fs_unused : unit -> (int * int * string) list;
}

type report = {
  violations : violation list;
  suppressed : (string * int) list;
  timings : (string * float) list;
}

(* The project pipeline: the per-line rules and the ownership dataflow
   pass, file by file. The central {!Allowlist} is NOT applied here —
   the driver does that, so it can also detect stale central
   entries. *)
let scan_project ?now files =
  let clock = match now with Some f -> f | None -> fun () -> 0. in
  let timings = ref [] in
  let timed label f =
    let t0 = clock () in
    let r = f () in
    timings := (label, clock () -. t0) :: !timings;
    r
  in
  let tally = Hashtbl.create 8 in
  let states =
    timed "lex" (fun () ->
        List.map
          (fun (path, contents) ->
            let stripped =
              Array.of_list (String.split_on_char '\n' (Lexer.strip_comments_and_strings contents))
            in
            let raw = Array.of_list (String.split_on_char '\n' contents) in
            let allowed, unused = inline_allows ~tally raw in
            {
              fs_path = path;
              fs_sub = lib_subdir path;
              fs_stripped = stripped;
              fs_allowed = allowed;
              fs_unused = unused;
            })
          files)
  in
  let out = ref [] in
  let emit fs ~line ~col ~rule message =
    if not (fs.fs_allowed ~line ~rule) then
      out := { path = fs.fs_path; line; col; rule; message } :: !out
  in
  (* per-line token rules *)
  timed "line-rules" (fun () ->
      List.iter
        (fun fs ->
          let in_dirs dirs =
            match fs.fs_sub with Some d -> List.mem d dirs | None -> false
          in
          let lines = fs.fs_stripped in
          let nlines = Array.length lines in
          let accounted idx =
            let lo = max 0 (idx - 3) and hi = min (nlines - 1) (idx + 3) in
            let rec any i =
              i <= hi
              && (List.exists (contains_token lines.(i)) accounting_tokens || any (i + 1))
            in
            any lo
          in
          let col_of line tok =
            match Lexer.token_col line tok with Some c -> c | None -> 1
          in
          Array.iteri
            (fun idx line ->
              let lno = idx + 1 in
              (* determinism-source: everywhere but the engine itself *)
              if fs.fs_sub <> Some "engine" then
                List.iter
                  (fun tok ->
                    if contains_token line tok then
                      emit fs ~line:lno ~col:(col_of line tok) ~rule:rule_determinism
                        (Printf.sprintf
                           "%s* is an ambient nondeterminism source; draw randomness from \
                            Engine.Prng and time from Engine.Clock (only lib/engine may \
                            touch it)"
                           tok))
                  determinism_tokens;
              (* unordered-hashtbl: datapath modules *)
              if in_dirs datapath_dirs then
                List.iter
                  (fun tok ->
                    if contains_token line tok then
                      emit fs ~line:lno ~col:(col_of line tok) ~rule:rule_hashtbl
                        (Printf.sprintf
                           "%s visits bindings in hash order, which differs between runs; \
                            use Engine.Det.hashtbl_iter_sorted / hashtbl_fold_sorted"
                           tok))
                  hashtbl_tokens;
              (* unaccounted-copy: zero-copy modules, one diagnostic per line *)
              if in_dirs zero_copy_dirs then begin
                match List.find_opt (contains_token line) copy_tokens with
                | Some tok when not (accounted idx) ->
                    emit fs ~line:lno ~col:(col_of line tok) ~rule:rule_copy
                      (Printf.sprintf
                         "%s copies payload bytes without accounting; record it with \
                          Heap.note_copy / Host.charge_copy within 3 lines, or add an \
                          allowlist justification"
                         tok)
                | Some _ | None -> ()
              end;
              (* raw-print-in-datapath: stdout belongs to the reporting layer *)
              if in_dirs raw_print_dirs && not (raw_print_exempt_file fs.fs_path) then
                List.iter
                  (fun tok ->
                    if contains_token line tok then
                      emit fs ~line:lno ~col:(col_of line tok) ~rule:rule_print
                        (Printf.sprintf
                           "%s writes raw stdout from datapath code; record it in an \
                            Engine.Log stream (a Sim trace or flight event) or a Metrics \
                            table, or add a dlint-allow for a deliberate dump path"
                           tok))
                  raw_print_tokens;
              (* poly-compare-buffer *)
              if in_dirs poly_compare_dirs then begin
                let hit =
                  match poly_compare_call line with
                  | Some c -> Some c
                  | None -> poly_eq_on_buffers line
                in
                match hit with
                | Some col ->
                    emit fs ~line:lno ~col ~rule:rule_poly
                      "polymorphic compare/equality on a buffer value; Heap.buffer \
                       contains cyclic superblock links — compare by identity or explicit \
                       fields instead"
                | None -> ()
              end)
            lines)
        states);
  (* ownership protocol: per-function dataflow pass *)
  timed "ownership" (fun () ->
      List.iter
        (fun fs ->
          let in_dirs dirs =
            match fs.fs_sub with Some d -> List.mem d dirs | None -> false
          in
          if in_dirs ownership_dirs then
            List.iter
              (fun (f : Ownership.finding) ->
                emit fs ~line:f.Ownership.line ~col:f.Ownership.col ~rule:f.Ownership.rule
                  f.Ownership.message)
              (Ownership.scan fs.fs_stripped))
        states);
  (* stale inline markers, queried only after every pass has had its
     chance to consume them *)
  let stale =
    List.concat_map
      (fun fs ->
        List.map
          (fun (line, col, rule) ->
            {
              path = fs.fs_path;
              line;
              col;
              rule = rule_unused;
              message =
                Printf.sprintf
                  "dlint-allow: %s suppresses nothing on this or the next line; remove \
                   the stale exemption"
                  rule;
            })
          (fs.fs_unused ()))
      states
  in
  let suppressed =
    List.map
      (fun rule -> (rule, Option.value ~default:0 (Hashtbl.find_opt tally rule)))
      rule_ids
  in
  {
    violations = List.sort by_position (!out @ stale);
    suppressed;
    timings = List.rev !timings;
  }

let scan_project_full ?now files = (scan_project ?now files).violations
let scan_full ~path contents = scan_project_full [ (path, contents) ]

let scan_string ~path contents =
  List.filter (fun v -> v.rule <> rule_unused) (scan_full ~path contents)

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" v.path v.line v.col v.rule v.message
