(** The dlint rule set: the one invariant no runtime check measures yet.

    - [unaccounted-copy]: raw [Bytes.blit]/[Bytes.sub]/[Bytes.copy]
      (and their [_string] variants) in the zero-copy modules
      ([lib/memory], [lib/tcp], [lib/net], [lib/demikernel]) must sit
      within three lines of a [note_copy]/[charge_copy] call so the
      copy shows up in the heap's [bytes_copied] ledger — or carry an
      allowlist justification (§5.3's zero-copy discipline).

    Every other property is measured at run time, in [dune runtest]:
    determinism by same-seed twin runs (the selfcheck digests, the
    wire-byte and disk-byte twins, the pinned outputs, all under
    [OCAMLRUNPARAM=R] so hash order differs between runs), buffer
    ownership by the [Pdpix] oracle that the heap
    sanitizer's switch arms on every [Boot] node,
    allocation by the selfcheck's per-echo word budget and scaling by
    the scaling gate.

    Scanning is purely lexical: comments and string/char literals are
    stripped first, so a banned name inside a docstring does not trip
    the lint. A violation can be suppressed in place with a comment
    containing [dlint-allow: <rule-id> ... -- <justification>] on the
    same or the preceding line (one marker may name several
    whitespace- or comma-separated rules; ["--"] ends the list), or
    centrally in {!Allowlist.entries}. A [dlint-allow] marker naming a
    rule that suppresses nothing is itself reported
    ([unused-exemption]) by the full scans — stale exemptions rot into
    silent holes otherwise. *)

type violation = {
  path : string;
  line : int; (* 1-based *)
  col : int; (* 1-based *)
  rule : string;
  message : string;
}

val rule_ids : string list

val rule_unused : string
(** The ["unused-exemption"] rule id (stale [dlint-allow] markers and
    stale {!Allowlist} entries). *)

type report = {
  violations : violation list;
      (** everything surviving inline allows, including
          [unused-exemption] findings for stale inline markers, sorted
          by (path, line, col) *)
  suppressed : (string * int) list;
      (** per rule id (in {!rule_ids} order, zeroes included): how many
          times an inline [dlint-allow] suppressed a finding *)
  timings : (string * float) list;
      (** per pass, in pipeline order ([lex], [line-rules]): wall
          seconds, all zero unless [?now] was supplied *)
}

val scan_project : ?now:(unit -> float) -> (string * string) list -> report
(** The whole-project pipeline over [(path, contents)] pairs, file by
    file. [?now] is the
    wall clock used for {!report.timings} (injected — lint code may not
    touch ambient time). The central {!Allowlist} is NOT applied (the
    driver does that, so it can also detect stale central entries). *)

val scan_project_full : ?now:(unit -> float) -> (string * string) list -> violation list
(** Just the violations of {!scan_project}. *)

val scan_string : path:string -> string -> violation list
(** All rule violations for one source file, sorted by (line, col).
    Inline [dlint-allow] annotations are honoured; the central
    {!Allowlist.entries} is NOT applied here (the driver does that),
    and stale inline markers are NOT reported (use {!scan_full}). *)

val scan_full : path:string -> string -> violation list
(** {!scan_string} plus an [unused-exemption] violation for every
    inline [dlint-allow] marker that suppressed nothing. *)

val pp_violation : Format.formatter -> violation -> unit
(** Renders as [file:line:col: [rule] message]. *)
