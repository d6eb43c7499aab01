(* Demideep: interprocedural scan summaries over the Callgraph.

   Each function gets one flag — scans an unbounded collection —
   inferred as a fixpoint over the SCC condensation of the call graph,
   so self-recursion and mutual recursion converge instead of looping.
   The flag is monotone (set-once with a recorded origin), which bounds
   every SCC's inner iteration by |members| and makes origin chains
   acyclic by construction: an origin always points at a flag that was
   set strictly earlier.

   The reported rule:

     scan-in-hotpath  Hashtbl.iter/fold/length, List/Seq traversals and
                      the Det.sorted_* helpers reached from a hotpath
                      line, directly or transitively — the per-poll
                      O(n) work that dies at the paper's 1M-connection
                      scale, and that a fixed-size workload may never
                      grow large enough to show.

   Hot lines are opted in with marker comments (recognised in comments;
   string literals cannot spoof them because marker scans run on the
   strings-masked view). A marker only counts when terminated — followed
   by nothing but the comment closer or the end of the line — so prose
   that merely mentions one, like this paragraph, arms nothing:

     dlint: hotpath         -- arms the NEXT top-level [let]/[and]
                               group (or the group whose binding line
                               carries the marker) — function-level
     dlint: hotpath-begin   -- arms the following lines
     dlint: hotpath-end     -- disarms (region form, for inner loops)

   Every finding carries a witness chain: the hot call site, then the
   call site inside each intermediate function, ending at the direct
   evidence, each hop with file:line:col.

   Exemptions compose with the existing machinery: an inline allow
   marker naming [scan-in-hotpath] on/above a *callee's definition
   line* clears that function's flag before propagation — one justified
   exemption on a busy-path handler silences every hot caller — and a
   marker at the call site suppresses just that finding (applied by
   Rules, as for every other rule). Both feed the stale-exemption
   detector.

   Allocation is not a static rule: the selfcheck measures it per echo
   against an exact word budget (Memory.Gcbudget, DESIGN.md §11).

   Known approximations (DESIGN.md §12): the graph is lexical, so calls
   through record fields ([api.Pdpix.push]) and functor instantiations
   contribute no edges (under-approximation), while mentioning a
   function — passing it as a callback — counts as calling it
   (over-approximation, and the right default for hot loops). *)

let rule_scan = "scan-in-hotpath"
let rule_ids = [ rule_scan ]

type loc = { lpath : string; lline : int; lcol : int (* 1-based *) }
type hop = { hop_loc : loc; hop_what : string }

type source =
  | Direct of loc * string (* evidence site and its description *)
  | Via of int * loc (* callee def id; call site inside this def *)

type summary = {
  mutable s_scan : source option;
  mutable x_scan : bool option; (* exemption memo: None = not yet asked *)
}

type file_view = { path : string; stripped : string array; masked : string array }

type finding = {
  fpath : string;
  fline : int;
  fcol : int;
  frule : string;
  fmessage : string;
  fchain : hop list;
}

(* ---------- hot-region computation (on the strings-masked view) ---------- *)

let marker_fn = "dlint: hotpath"
let marker_begin = "dlint: hotpath-begin"
let marker_end = "dlint: hotpath-end"

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let starts_toplevel text = starts_with "let " text || starts_with "and " text

(* A marker occurrence counts only when terminated: the marker text
   followed by optional blanks and then the comment closer or the end
   of the line. Prose that mentions a marker mid-sentence arms nothing,
   and [hotpath] never matches inside [hotpath-begin]/[-end] (the next
   char is '-', not a terminator). *)
let marker_at line m =
  let n = String.length line and lm = String.length m in
  let rec skip j = if j < n && (line.[j] = ' ' || line.[j] = '\t') then skip (j + 1) else j in
  let rec find i =
    if i + lm > n then false
    else if String.sub line i lm = m then begin
      let j = skip (i + lm) in
      if j >= n || (j + 1 < n && line.[j] = '*' && line.[j + 1] = ')') then true
      else find (i + 1)
    end
    else find (i + 1)
  in
  find 0

(* Function-level markers arm [let-line .. next-toplevel). A marker that
   never finds a following binding (marker at EOF) arms nothing. *)
let hot_lines ~masked ~stripped =
  let n = Array.length stripped in
  let hot = Array.make n false in
  let has_marker i m = i < Array.length masked && marker_at masked.(i) m in
  let in_region = ref false in
  for i = 0 to n - 1 do
    if has_marker i marker_end then in_region := false
    else if has_marker i marker_begin then in_region := true
    else if !in_region then hot.(i) <- true
  done;
  for i = 0 to n - 1 do
    if has_marker i marker_fn && not (has_marker i marker_begin) && not (has_marker i marker_end)
    then begin
      let rec find_let j = if j >= n then None else if starts_toplevel stripped.(j) then Some j else find_let (j + 1) in
      match find_let i with
      | None -> () (* marker at EOF or trailing: arms nothing *)
      | Some j ->
          hot.(j) <- true;
          let rec mark k =
            if k < n && not (starts_toplevel stripped.(k)) then begin
              hot.(k) <- true;
              mark (k + 1)
            end
          in
          mark (j + 1)
    end
  done;
  hot

(* ---------- direct evidence ---------- *)

(* O(n)-scan tokens: collection-sized traversals. Array iteration is
   absent, but not because arrays are small: the wait-set arrays handed
   to [wait_any] are connection-scaled, one token per open connection.
   Their walks (the ready-list index search, the server loop's in-place
   shift) are allocation-free int loops with no token-table lookups,
   written as explicit recursion or for-loops the lexer cannot tell
   apart from fixed-capacity walks over qd slots.
   Queue drains are dirty-tracked FIFOs, the sanctioned replacement for
   scans. *)
let scan_tokens =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.length";
    "hashtbl_iter_sorted"; "hashtbl_fold_sorted"; "hashtbl_sorted_keys";
    "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map"; "List.fold_left";
    "List.fold_right"; "List.length"; "List.exists"; "List.for_all"; "List.mem";
    "List.memq"; "List.find"; "List.find_opt"; "List.filter"; "List.filteri"; "List.filter_map";
    "List.concat_map"; "List.assoc"; "List.assoc_opt"; "List.rev"; "List.sort";
    "List.sort_uniq"; "List.stable_sort"; "List.nth";
    "Seq.iter"; "Seq.fold_left"; "Seq.map"; "Seq.filter"; "Seq.filter_map"; "Seq.length";
  ]

let first_scan_site line =
  match List.find_opt (fun tok -> Lexer.contains_token line tok) scan_tokens with
  | Some tok -> (
      match Lexer.token_index line tok with
      | Some c -> Some (c, tok ^ " walks the whole collection")
      | None -> None)
  | None -> None

(* ---------- analysis ---------- *)

type result = {
  graph : Callgraph.t;
  summaries : summary array;
  findings : finding list;
}

let analyze ~(files : file_view list)
    ~(exempt : path:string -> line:int -> rule:string -> bool) =
  let graph = Callgraph.build (List.map (fun f -> (f.path, f.stripped)) files) in
  let n = Array.length graph.Callgraph.defs in
  let summaries = Array.init n (fun _ -> { s_scan = None; x_scan = None }) in
  let def i = graph.Callgraph.defs.(i) in
  (* Is def [i] exempt? Asked at most once per def, and only when its
     flag is about to be set — so the underlying dlint-allow marker is
     consumed (for staleness) exactly when it suppresses a real
     propagation. *)
  let is_exempt i =
    let s = summaries.(i) in
    match s.x_scan with
    | Some e -> e
    | None ->
        let d = def i in
        let e = exempt ~path:d.Callgraph.path ~line:d.Callgraph.dline ~rule:rule_scan in
        s.x_scan <- Some e;
        e
  in
  let set i src =
    let s = summaries.(i) in
    (* value bindings run once at module init; mentioning one later
       executes nothing, so it never carries effects to a caller *)
    if (not (def i).Callgraph.fn) || s.s_scan <> None || is_exempt i then false
    else begin
      s.s_scan <- Some src;
      true
    end
  in
  (* direct evidence, per def body line *)
  let stripped_of = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace stripped_of f.path f.stripped) files;
  Array.iteri
    (fun i d ->
      let lines =
        match Hashtbl.find_opt stripped_of d.Callgraph.path with
        | Some ls when d.Callgraph.fn -> ls
        | Some _ | None -> [||]
      in
      let last = min d.Callgraph.body_end (Array.length lines) in
      for lno = d.Callgraph.dline to last do
        if summaries.(i).s_scan = None then
          match first_scan_site lines.(lno - 1) with
          | Some (c, what) ->
              ignore (set i (Direct ({ lpath = d.Callgraph.path; lline = lno; lcol = c + 1 }, what)))
          | None -> ()
      done)
    graph.Callgraph.defs;
  (* SCC-condensed fixpoint, callees first; within an SCC iterate until
     no flag changes (monotone, so it converges) *)
  List.iter
    (fun scc ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun i ->
            let d = def i in
            List.iter
              (fun (c : Callgraph.callsite) ->
                let t = c.Callgraph.target in
                if summaries.(t).s_scan <> None && summaries.(i).s_scan = None then begin
                  let cloc =
                    { lpath = d.Callgraph.path; lline = c.Callgraph.cline; lcol = c.Callgraph.ccol }
                  in
                  if set i (Via (t, cloc)) then changed := true
                end)
              graph.Callgraph.calls.(i))
          scc
      done)
    graph.Callgraph.sccs;
  (* witness chains *)
  let rec chain_of i =
    match summaries.(i).s_scan with
    | None -> []
    | Some (Direct (l, what)) -> [ { hop_loc = l; hop_what = what } ]
    | Some (Via (t, l)) -> { hop_loc = l; hop_what = Callgraph.display (def t) } :: chain_of t
  in
  let render_chain chain =
    let pp h =
      Printf.sprintf "%s (%s:%d:%d)" h.hop_what h.hop_loc.lpath h.hop_loc.lline
        h.hop_loc.lcol
    in
    String.concat " -> " ("hotpath" :: List.map pp chain)
  in
  (* findings: calls on hot lines into flagged functions, plus direct
     scan tokens on hot lines; one finding per (line, callee) *)
  let hot_of =
    List.map (fun f -> (f.path, hot_lines ~masked:f.masked ~stripped:f.stripped)) files
  in
  let hot path lno =
    match List.assoc_opt path hot_of with
    | Some h -> lno - 1 >= 0 && lno - 1 < Array.length h && h.(lno - 1)
    | None -> false
  in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let seen_line = Hashtbl.create 16 in
  let emit ~path ~line ~col ~dedup message chain =
    if not (Hashtbl.mem seen (path, line, dedup)) then begin
      Hashtbl.replace seen (path, line, dedup) ();
      Hashtbl.replace seen_line (path, line) ();
      findings :=
        { fpath = path; fline = line; fcol = col; frule = rule_scan; fmessage = message; fchain = chain }
        :: !findings
    end
  in
  Array.iteri
    (fun i d ->
      let path = d.Callgraph.path in
      List.iter
        (fun (c : Callgraph.callsite) ->
          let t = c.Callgraph.target in
          if hot path c.Callgraph.cline && summaries.(t).s_scan <> None then begin
            let chain =
              {
                hop_loc = { lpath = path; lline = c.Callgraph.cline; lcol = c.Callgraph.ccol };
                hop_what = Callgraph.display (def t);
              }
              :: chain_of t
            in
            emit ~path ~line:c.Callgraph.cline ~col:c.Callgraph.ccol ~dedup:t
              (Printf.sprintf
                 "call into %s, which transitively scans a whole collection, on a \
                  dlint:hotpath line — O(n) per poll dies at 1M connections; witness: \
                  %s — dirty-track instead, or exempt the callee at its definition \
                  with dlint-allow: %s"
                 (Callgraph.display (def t))
                 (render_chain chain) rule_scan)
              chain
          end)
        graph.Callgraph.calls.(i))
    graph.Callgraph.defs;
  (* direct scan tokens on hot lines (no project-function call needed);
     a call-based finding on the same line subsumes the token it was
     resolved from, so per line those win *)
  List.iter
    (fun f ->
      match List.assoc_opt f.path hot_of with
      | None -> ()
      | Some h ->
          Array.iteri
            (fun idx line ->
              if h.(idx) && not (Hashtbl.mem seen_line (f.path, idx + 1)) then
                match first_scan_site line with
                | Some (c, what) ->
                    let loc = { lpath = f.path; lline = idx + 1; lcol = c + 1 } in
                    let chain = [ { hop_loc = loc; hop_what = what } ] in
                    emit ~path:f.path ~line:(idx + 1) ~col:(c + 1) ~dedup:(-1)
                      (Printf.sprintf
                         "%s on a dlint:hotpath line — O(n) per poll dies at 1M \
                          connections; dirty-track the relevant subset, or justify with \
                          dlint-allow: %s"
                         what rule_scan)
                      chain
                | None -> ())
            f.stripped)
    files;
  let by_pos a b =
    match compare a.fpath b.fpath with
    | 0 -> ( match compare a.fline b.fline with 0 -> compare a.fcol b.fcol | c -> c)
    | c -> c
  in
  { graph; summaries; findings = List.sort by_pos !findings }

(* ---------- DOT export ---------- *)

let dot ~files =
  let r = analyze ~files ~exempt:(fun ~path:_ ~line:_ ~rule:_ -> false) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph dlint {\n";
  Buffer.add_string b "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  Array.iteri
    (fun i d ->
      if d.Callgraph.name <> "" then begin
        let scans = r.summaries.(i).s_scan <> None in
        Buffer.add_string b
          (Printf.sprintf "  n%d [label=\"%s%s\"%s];\n" i (Callgraph.display d)
             (if scans then "\\n[S]" else "")
             (if scans then ", style=filled, fillcolor=\"#ffdddd\"" else ""))
      end)
    r.graph.Callgraph.defs;
  Array.iteri
    (fun i d ->
      if d.Callgraph.name <> "" then
        List.iter
          (fun t ->
            if r.graph.Callgraph.defs.(t).Callgraph.name <> "" then
              Buffer.add_string b (Printf.sprintf "  n%d -> n%d;\n" i t))
          (List.sort_uniq compare
             (List.map (fun c -> c.Callgraph.target) r.graph.Callgraph.calls.(i))))
    r.graph.Callgraph.defs;
  Buffer.add_string b "}\n";
  Buffer.contents b
