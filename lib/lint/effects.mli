(** Demideep: interprocedural scan-summary inference over the
    {!Callgraph}, and the [scan-in-hotpath] rule.

    Each function gets one flag — scans an unbounded collection —
    computed as a set-once monotone fixpoint over the SCC condensation
    of the call graph (self- and mutual recursion converge; origin
    chains are acyclic by construction). Flags propagate into
    [dlint: hotpath] regions: [Hashtbl.iter/fold/length], List/Seq
    traversals and the [Det.sorted_*] helpers reached from a hot line,
    directly or transitively, are reported.

    Every finding carries a witness chain — hot call site, each
    intermediate call site, the direct evidence — with file:line:col at
    each hop. See DESIGN.md §12 for the lattice and the lexical-graph
    soundness caveats. *)

val rule_scan : string
(** ["scan-in-hotpath"]. *)

val rule_ids : string list

val hot_lines : masked:string array -> stripped:string array -> bool array
(** Which lines (0-based index) are inside a [dlint: hotpath] region:
    [(* dlint: hotpath *)] arms the next top-level binding group,
    [(* dlint: hotpath-begin *)] / [(* dlint: hotpath-end *)] bound an
    explicit region. A marker counts only when terminated (followed by
    the comment closer or the end of the line), so prose that mentions
    one arms nothing. [masked] is the {!Lexer.mask_strings} view
    (markers live in comments, and string literals cannot spoof them),
    [stripped] the fully stripped view (binding-group boundaries). *)

type loc = { lpath : string; lline : int; lcol : int (* 1-based *) }
type hop = { hop_loc : loc; hop_what : string }

type source =
  | Direct of loc * string  (** evidence site and its description *)
  | Via of int * loc  (** callee def id; the call site inside this def *)

type summary = {
  mutable s_scan : source option;
  mutable x_scan : bool option;  (** exemption memo: [None] = not yet asked *)
}

type file_view = { path : string; stripped : string array; masked : string array }

type finding = {
  fpath : string;
  fline : int;
  fcol : int;
  frule : string;
  fmessage : string;  (** includes the rendered witness chain *)
  fchain : hop list;  (** hot call site first, direct evidence last *)
}

type result = {
  graph : Callgraph.t;
  summaries : summary array;
  findings : finding list;
}

val analyze :
  files:file_view list -> exempt:(path:string -> line:int -> rule:string -> bool) -> result
(** [exempt] is queried (at most once per function, and only when its
    flag is about to be set) at the callee's definition line with
    [scan-in-hotpath]: a [dlint-allow: scan-in-hotpath] on/above a
    handler's [let] clears its flag before propagation, silencing every
    hot caller with one justified exemption. The callback is expected
    to record consumption for stale-exemption detection. Findings are
    sorted by (path, line, col). *)

val dot : files:file_view list -> string
(** Graphviz DOT of the whole call graph, one node per named function;
    scanning nodes are labelled [[S]] and filled red. Deterministic
    output. No exemptions are applied and nothing is consumed. *)
