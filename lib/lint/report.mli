(** Rendering lint findings; all output goes through the caller's formatter,
    so the library itself never writes to stdout.  Every renderer first runs
    {!normalize}, so output order is deterministic whatever order findings
    were produced in. *)

val normalize : Finding.t list -> Finding.t list
(** Sort by (file, line, col, rule, message) and drop exact duplicates. *)

val human : Format.formatter -> Finding.t list -> unit
(** One [file:line: [rule-id] message] line per finding, then a summary. *)

val json : Format.formatter -> Finding.t list -> unit
(** Machine-readable report:
    [{"findings": [{"file", "line", "col", "rule", "message"}...], "count": n}]. *)

val github : Format.formatter -> Finding.t list -> unit
(** GitHub Actions workflow commands ([::error file=..::msg]), one
    annotation per finding, then the human summary line. *)

val sarif : Format.formatter -> Finding.t list -> unit
(** SARIF 2.1.0 log with rule metadata for the rules that fired; suitable
    for [upload-sarif] / code-scanning ingestion. *)

val rules : Format.formatter -> unit
(** Render the rule registry (id, [file]/[program] analysis tier, synopsis,
    rationale). *)
