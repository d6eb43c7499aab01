(* Demideep: interprocedural effect summaries over the Callgraph.

   Each function gets a four-flag summary — allocates /
   scans-unbounded-collection / raises / touches-ambient-nondeterminism
   — inferred as a fixpoint over the SCC condensation of the call
   graph, so self-recursion and mutual recursion converge instead of
   looping. Flags are monotone (set-once with a recorded origin), which
   bounds every SCC's inner iteration by |members| x 4 and makes
   origin chains acyclic by construction: an origin always points at a
   flag that was set strictly earlier.

   The two reported rules:

     transitive-alloc-in-hotpath  a call on a [dlint: hotpath] line
                                  into a function that (transitively)
                                  allocates. The lexical pass already
                                  covers depth 0; this covers the
                                  helper that conses a list two calls
                                  down.
     scan-in-hotpath              Hashtbl.iter/fold/length, List/Seq
                                  traversals and the Det.sorted_*
                                  helpers reached from a hotpath line,
                                  directly or transitively — the
                                  per-poll O(n) work that dies at the
                                  paper's 1M-connection scale.

   Every finding carries a witness chain: the hot call site, then the
   call site inside each intermediate function, ending at the direct
   evidence, each hop with file:line:col.

   Exemptions compose with the existing machinery: an inline allow
   marker naming [transitive-alloc-in-hotpath] (or [scan-in-hotpath])
   on/above a *callee's definition line* clears that function's flag
   before propagation — one justified exemption on a busy-path handler
   silences every hot caller — and a marker at the call site
   suppresses just that finding (applied by Rules, as for every other
   rule). Both feed the stale-exemption detector. An evidence line
   whose allocation is already justified in place (an inline allow
   naming [alloc-in-hotpath]) is not re-reported transitively: the
   allocation was accepted where it happens.

   Known approximations (DESIGN.md §12): the graph is lexical, so calls
   through record fields ([api.Pdpix.push]) and functor instantiations
   contribute no edges (under-approximation), while mentioning a
   function — passing it as a callback — counts as calling it
   (over-approximation, and the right default for hot loops). Raises
   and nondeterminism are inferred and exported (DOT, summaries) but
   deliberately un-reported: determinism-source already polices ambient
   nondeterminism at its source, and raising is hot-path-legal (static
   exceptions unwind without allocating). *)

let rule_transitive_alloc = "transitive-alloc-in-hotpath"
let rule_scan = "scan-in-hotpath"
let rule_ids = [ rule_transitive_alloc; rule_scan ]

type loc = { lpath : string; lline : int; lcol : int (* 1-based *) }
type hop = { hop_loc : loc; hop_what : string }

type source =
  | Direct of loc * string (* evidence site and its description *)
  | Via of int * loc (* callee def id; call site inside this def *)

type summary = {
  mutable s_alloc : source option;
  mutable s_scan : source option;
  mutable s_raises : source option;
  mutable s_nondet : source option;
  (* per-flag exemption memo: None = not yet asked *)
  mutable x_alloc : bool option;
  mutable x_scan : bool option;
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

(* ---------- direct evidence ---------- *)

(* O(n)-scan tokens: collection-sized traversals. Array iteration is
   absent, but not because arrays are small: the wait-set arrays handed
   to [wait_any] are connection-scaled, one token per open connection.
   Their walks (the ready-list index search, the server loop's in-place
   shift) are allocation-free int loops with no token-table lookups,
   written as explicit recursion or for-loops the lexer cannot tell
   apart from fixed-capacity walks over qd slots or wheel buckets.
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

let raise_tokens = [ "failwith"; "invalid_arg"; "raise"; "assert" ]
let nondet_tokens = [ "Random."; "Unix."; "Sys.time" ]

let first_scan_site line =
  match List.find_opt (fun tok -> Lexer.contains_token line tok) scan_tokens with
  | Some tok -> (
      match Lexer.token_index line tok with
      | Some c -> Some (c, tok ^ " walks the whole collection")
      | None -> None)
  | None -> None

let first_token_site tokens line =
  match List.find_opt (fun tok -> Lexer.contains_token line tok) tokens with
  | Some tok -> (
      match Lexer.token_index line tok with Some c -> Some (c, tok) | None -> None)
  | None -> None

(* ---------- analysis ---------- *)

type result = {
  graph : Callgraph.t;
  summaries : summary array;
  findings : finding list;
}

let rule_of_flag = function `Alloc -> rule_transitive_alloc | `Scan -> rule_scan

let analyze ~(files : file_view list)
    ~(exempt : path:string -> line:int -> rule:string -> bool)
    ~(evidence_allowed : path:string -> line:int -> rule:string -> bool) =
  let graph = Callgraph.build (List.map (fun f -> (f.path, f.stripped)) files) in
  let n = Array.length graph.Callgraph.defs in
  let summaries =
    Array.init n (fun _ ->
        {
          s_alloc = None;
          s_scan = None;
          s_raises = None;
          s_nondet = None;
          x_alloc = None;
          x_scan = None;
        })
  in
  let def i = graph.Callgraph.defs.(i) in
  (* Is def [i] exempt for [flag]? Asked at most once per (def, flag),
     and only when the flag is about to be set — so the underlying
     dlint-allow marker is consumed (for staleness) exactly when it
     suppresses a real propagation. *)
  let is_exempt i flag =
    let s = summaries.(i) in
    let memo = match flag with `Alloc -> s.x_alloc | `Scan -> s.x_scan in
    match memo with
    | Some e -> e
    | None ->
        let d = def i in
        let e = exempt ~path:d.Callgraph.path ~line:d.Callgraph.dline ~rule:(rule_of_flag flag) in
        (match flag with `Alloc -> s.x_alloc <- Some e | `Scan -> s.x_scan <- Some e);
        e
  in
  let get s flag =
    match flag with
    | `Alloc -> s.s_alloc
    | `Scan -> s.s_scan
    | `Raises -> s.s_raises
    | `Nondet -> s.s_nondet
  in
  let set i flag src =
    let s = summaries.(i) in
    if not (def i).Callgraph.fn then false
      (* value bindings run once at module init; mentioning one later
         executes nothing, so it never carries effects to a caller *)
    else
    match get s flag with
    | Some _ -> false
    | None ->
        let blocked =
          match flag with
          | `Alloc -> is_exempt i `Alloc
          | `Scan -> is_exempt i `Scan
          | `Raises | `Nondet -> false
        in
        if blocked then false
        else begin
          (match flag with
          | `Alloc -> s.s_alloc <- Some src
          | `Scan -> s.s_scan <- Some src
          | `Raises -> s.s_raises <- Some src
          | `Nondet -> s.s_nondet <- Some src);
          true
        end
  in
  (* direct evidence, per def body line *)
  let stripped_of = Hashtbl.create 16 in
  let masked_of = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace stripped_of f.path f.stripped;
      Hashtbl.replace masked_of f.path f.masked)
    files;
  Array.iteri
    (fun i d ->
      let lines =
        match Hashtbl.find_opt stripped_of d.Callgraph.path with
        | Some ls when d.Callgraph.fn -> ls
        | Some _ | None -> [||]
      in
      let last = min d.Callgraph.body_end (Array.length lines) in
      for lno = d.Callgraph.dline to last do
        let line = lines.(lno - 1) in
        let loc c = { lpath = d.Callgraph.path; lline = lno; lcol = c + 1 } in
        (* allocation: first site not already justified in place (an
           inline alloc-in-hotpath allow accepts the allocation where
           it happens); exn-alloc feeds the raises flag instead *)
        if get summaries.(i) `Alloc = None then begin
          let site =
            List.find_opt
              (fun (_, tag, _) ->
                tag <> "exn-alloc"
                && (not
                      (evidence_allowed ~path:d.Callgraph.path ~line:lno
                         ~rule:Alloccheck.rule_id)))
              (Alloccheck.alloc_sites line)
          in
          match site with
          | Some (c, tag, what) -> ignore (set i `Alloc (Direct (loc c, what ^ " [" ^ tag ^ "]")))
          | None -> ()
        end;
        if get summaries.(i) `Scan = None then begin
          match first_scan_site line with
          | Some (c, what) -> ignore (set i `Scan (Direct (loc c, what)))
          | None -> ()
        end;
        if get summaries.(i) `Raises = None then begin
          match first_token_site raise_tokens line with
          | Some (c, tok) -> ignore (set i `Raises (Direct (loc c, tok ^ " raises")))
          | None -> ()
        end;
        if get summaries.(i) `Nondet = None then begin
          match first_token_site nondet_tokens line with
          | Some (c, tok) ->
              ignore (set i `Nondet (Direct (loc c, tok ^ " is ambient nondeterminism")))
          | None -> ()
        end
      done)
    graph.Callgraph.defs;
  (* SCC-condensed fixpoint, callees first; within an SCC iterate until
     no flag changes (monotone, so it converges) *)
  let flags = [ `Alloc; `Scan; `Raises; `Nondet ] in
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
                List.iter
                  (fun flag ->
                    if get summaries.(t) flag <> None && get summaries.(i) flag = None then begin
                      let cloc =
                        {
                          lpath = d.Callgraph.path;
                          lline = c.Callgraph.cline;
                          lcol = c.Callgraph.ccol;
                        }
                      in
                      if set i flag (Via (t, cloc)) then changed := true
                    end)
                  flags)
              graph.Callgraph.calls.(i))
          scc
      done)
    graph.Callgraph.sccs;
  (* witness chains *)
  let rec chain_of flag i =
    match get summaries.(i) flag with
    | None -> []
    | Some (Direct (l, what)) -> [ { hop_loc = l; hop_what = what } ]
    | Some (Via (t, l)) ->
        { hop_loc = l; hop_what = Callgraph.display (def t) } :: chain_of flag t
  in
  let render_chain first_hop rest =
    let pp h =
      Printf.sprintf "%s (%s:%d:%d)" h.hop_what h.hop_loc.lpath h.hop_loc.lline
        h.hop_loc.lcol
    in
    String.concat " -> " ("hotpath" :: List.map pp (first_hop :: rest))
  in
  (* findings: calls on hot lines into flagged functions, plus direct
     scan tokens on hot lines; one finding per (line, rule, callee) *)
  let hot_of =
    List.map (fun f -> (f.path, Alloccheck.hot_lines ~masked:f.masked ~stripped:f.stripped)) files
  in
  let hot path lno =
    match List.assoc_opt path hot_of with
    | Some h -> lno - 1 >= 0 && lno - 1 < Array.length h && h.(lno - 1)
    | None -> false
  in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let seen_line = Hashtbl.create 16 in
  let emit ~path ~line ~col ~rule ~dedup message chain =
    if not (Hashtbl.mem seen (path, line, rule, dedup)) then begin
      Hashtbl.replace seen (path, line, rule, dedup) ();
      Hashtbl.replace seen_line (path, line, rule) ();
      findings :=
        { fpath = path; fline = line; fcol = col; frule = rule; fmessage = message; fchain = chain }
        :: !findings
    end
  in
  Array.iteri
    (fun i d ->
      let path = d.Callgraph.path in
      List.iter
        (fun (c : Callgraph.callsite) ->
          if hot path c.Callgraph.cline then begin
            let t = c.Callgraph.target in
            let site_hop flag =
              {
                hop_loc = { lpath = path; lline = c.Callgraph.cline; lcol = c.Callgraph.ccol };
                hop_what = Callgraph.display (def t);
              }
              :: chain_of flag t
            in
            (match get summaries.(t) `Alloc with
            | Some _ ->
                let chain = site_hop `Alloc in
                emit ~path ~line:c.Callgraph.cline ~col:c.Callgraph.ccol
                  ~rule:rule_transitive_alloc ~dedup:t
                  (Printf.sprintf
                     "call into %s, which transitively allocates, on a dlint:hotpath line; \
                      witness: %s — make the callee allocation-free, or exempt it at its \
                      definition with dlint-allow: %s"
                     (Callgraph.display (def t))
                     (render_chain (List.hd chain) (List.tl chain))
                     rule_transitive_alloc)
                  chain
            | None -> ());
            match get summaries.(t) `Scan with
            | Some _ ->
                let chain = site_hop `Scan in
                emit ~path ~line:c.Callgraph.cline ~col:c.Callgraph.ccol ~rule:rule_scan
                  ~dedup:t
                  (Printf.sprintf
                     "call into %s, which transitively scans a whole collection, on a \
                      dlint:hotpath line — O(n) per poll dies at 1M connections; witness: \
                      %s — dirty-track instead, or exempt the callee at its definition \
                      with dlint-allow: %s"
                     (Callgraph.display (def t))
                     (render_chain (List.hd chain) (List.tl chain))
                     rule_scan)
                  chain
            | None -> ()
          end)
        graph.Callgraph.calls.(i))
    graph.Callgraph.defs;
  (* direct scan tokens on hot lines (no project-function call needed);
     a call-based scan finding on the same line subsumes the token it
     was resolved from, so per-(line, rule) those win *)
  List.iter
    (fun f ->
      match List.assoc_opt f.path hot_of with
      | None -> ()
      | Some h ->
          Array.iteri
            (fun idx line ->
              if h.(idx) && not (Hashtbl.mem seen_line (f.path, idx + 1, rule_scan)) then
                match first_scan_site line with
                | Some (c, what) ->
                    let loc = { lpath = f.path; lline = idx + 1; lcol = c + 1 } in
                    let chain = [ { hop_loc = loc; hop_what = what } ] in
                    emit ~path:f.path ~line:(idx + 1) ~col:(c + 1) ~rule:rule_scan ~dedup:(-1)
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
  let no ~path:_ ~line:_ ~rule:_ = false in
  let r = analyze ~files ~exempt:no ~evidence_allowed:no in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph dlint {\n";
  Buffer.add_string b "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  let eff s =
    String.concat ""
      [
        (if s.s_alloc <> None then "A" else "");
        (if s.s_scan <> None then "S" else "");
        (if s.s_raises <> None then "R" else "");
        (if s.s_nondet <> None then "N" else "");
      ]
  in
  Array.iteri
    (fun i d ->
      if d.Callgraph.name <> "" then begin
        let s = r.summaries.(i) in
        let e = eff s in
        Buffer.add_string b
          (Printf.sprintf "  n%d [label=\"%s%s\"%s];\n" i
             (Callgraph.display d)
             (if e = "" then "" else "\\n[" ^ e ^ "]")
             (if s.s_alloc <> None || s.s_scan <> None then ", style=filled, fillcolor=\"#ffdddd\""
              else ""))
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
