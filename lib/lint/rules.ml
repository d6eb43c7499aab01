type violation = {
  path : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rule_copy = "unaccounted-copy"
let rule_unused = "unused-exemption"
let rule_ids = [ rule_copy; rule_unused ]

(* The first directory component after a "lib" segment, so the rule
   scopes the same way whether dlint was handed "lib", "../lib" or an
   absolute path. *)
let lib_subdir path =
  let rec go = function
    | "lib" :: sub :: _ :: _ -> Some sub
    | _ :: rest -> go rest
    | [] -> None
  in
  go (String.split_on_char '/' path)

let zero_copy_dirs = [ "memory"; "tcp"; "net"; "demikernel" ]
let is_ident_char = Lexer.is_ident_char
let contains_token = Lexer.contains_token

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

let copy_tokens =
  [ "Bytes.blit_string"; "Bytes.blit"; "Bytes.sub_string"; "Bytes.sub"; "Bytes.copy" ]

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

(* The project pipeline: the copy rule, file by file. The central
   {!Allowlist} is NOT applied here — the driver does that, so it can
   also detect stale central entries. *)
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
  timed "line-rules" (fun () ->
      List.iter
        (fun fs ->
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
          let in_scope =
            match fs.fs_sub with Some d -> List.mem d zero_copy_dirs | None -> false
          in
          if in_scope then
            Array.iteri
              (fun idx line ->
                (* one diagnostic per line *)
                match List.find_opt (contains_token line) copy_tokens with
                | Some tok when not (accounted idx) ->
                    let col = Option.value ~default:1 (Lexer.token_col line tok) in
                    emit fs ~line:(idx + 1) ~col ~rule:rule_copy
                      (Printf.sprintf
                         "%s copies payload bytes without accounting; record it with \
                          Heap.note_copy / Host.charge_copy within 3 lines, or add an \
                          allowlist justification"
                         tok)
                | Some _ | None -> ())
              lines)
        states);
  (* stale inline markers, queried only after the scan has had its
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
