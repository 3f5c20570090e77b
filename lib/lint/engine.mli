(** Driving the lint.

    Phase 1 parses every source, assembles the {!Symtab}, then summarizes
    each compilation unit into its file-local findings, allow spans, and
    the per-unit fact slices of every whole-program analysis.  Phase 2
    computes the cross-module rules ([domain-race], [impure-kernel],
    [unused-export], [check-not-threaded], [alloc-in-kernel],
    [blocking-in-loop]) from those facts alone — never re-reading an AST —
    then audits every [[\@cpla.allow]] in the linted units for staleness.

    Sources with [linted = false] participate in resolution, reference
    counting, flow and reachability analysis but produce no findings (and
    their allows are not audited) — so a partial lint of one directory
    still sees the rest of the project. *)

type source = Symtab.source = {
  src_path : string;  (** project-relative path; [.ml] or [.mli] *)
  contents : string;
  linted : bool;
}

val lint_sources : source list -> Finding.t list
(** Run both phases over an in-memory project.  Findings are sorted and
    de-duplicated; whole-program findings honour [[\@cpla.allow]] spans at
    the reporting site (and, for [domain-race], at the creation site). *)

val lint_string : ?has_mli:bool -> filename:string -> string -> Finding.t list
(** Lint one implementation given as a string.  [filename] (a
    project-relative path such as ["lib/numeric/mat.ml"]) decides which
    rules apply; it does not have to exist on disk.  [has_mli] (default
    [true]) feeds the [missing-mli] rule.  Findings are sorted. *)

val read_sources :
  ?context:string list -> string list -> source list * Finding.t list
(** Collect every [.ml]/[.mli] under the given files/directories
    (recursively, skipping [_build] and dot-directories) as linted sources,
    plus the [context] directories (default [["lib"; "bin"; "bench";
    "test"]]) as non-linted resolution context.  A linted path that exists
    but cannot be read (dangling symlink, permissions) becomes a file-level
    [read-error] finding instead of aborting; unreadable context is
    skipped silently.  Never raises [Sys_error]. *)

val lint_paths : ?context:string list -> string list -> Finding.t list
(** {!read_sources} + {!lint_sources}: lints the given paths.  Findings are
    sorted and de-duplicated and include any [read-error]s. *)
