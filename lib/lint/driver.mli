(** File-system driver for dlint: walks source trees, applies the
    {!Rules} project pipeline to every [.ml] file, filters through
    {!Allowlist}, and reports. *)

val scan_file : string -> Rules.violation list
(** Lint one file (allowlist applied; no stale-exemption detection). *)

val check_tree : string -> Rules.violation list
(** Recursively lint every [.ml] under a root directory, visiting
    entries in sorted order so diagnostics are stable. Directories whose name starts with
    ['.'] (build artefacts) are skipped. Allowlist applied; no
    stale-exemption findings. *)

type run_report = {
  rr_violations : Rules.violation list;
      (** surviving both exemption layers, plus [unused-exemption]
          findings for stale inline markers and stale central entries *)
  rr_suppressed : (string * int) list;
      (** per rule id: inline suppressions + central allowlist hits *)
  rr_timings : (string * float) list;  (** per pass, wall seconds *)
}

val run_report : ?now:(unit -> float) -> string list -> run_report
(** The full lint run over several roots. [?now] is the wall clock for
    the per-pass timings (injected by the binary — lint library code
    may not touch ambient time itself). *)

val run : string list -> Rules.violation list
(** [(run_report roots).rr_violations] — what [bin/dlint] (and so the
    [@lint] alias) exits nonzero on. *)

val stats : Rules.violation list -> (string * int) list
(** Per-rule finding counts over every known rule id (zeroes included),
    in {!Rules.rule_ids} order. *)

val report_stats : Format.formatter -> Rules.violation list -> unit
(** The plain per-rule finding-count table. *)

val report_run_stats : Format.formatter -> run_report -> unit
(** The [dlint --stats] table: per rule, findings and exemptions
    applied (inline + central); then per-pass wall time. *)

val report : Format.formatter -> Rules.violation list -> unit
(** Print one [file:line:col: [rule] message] diagnostic per violation
    and a summary line. *)

val json_of_violations : Rules.violation list -> string
(** The JSON document [report_json] prints, as a string — also written
    to [out/lint.json] by the binary. *)

val report_json : Format.formatter -> Rules.violation list -> unit
(** Machine-readable output: [{"count":N,"violations":[...]}] with
    [path]/[line]/[col]/[rule]/[message] per finding. *)
