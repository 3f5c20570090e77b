(** Interprocedural allocation-effect analysis ([alloc-in-kernel]).

    Functions annotated [[\@cpla.zero_alloc]] (on the [let] binding) are
    verified not to allocate: closure / tuple / record / variant / array /
    lazy construction, escaping [ref] cells, calls to allocating stdlib
    functions ([Array.make], lists, [\@], [^], [sprintf], ...), float
    boxing at polymorphic [compare]/[min]/[max], and partial applications
    of project functions — in the function itself or anything reachable
    through the {!Callgraph}'s resolved call edges.  Violations are
    reported at the annotation with a creation-to-call witness chain.

    Suppression: [[\@cpla.allow "alloc-in-kernel"]] at the allocation site
    sanctions that allocation for every caller (e.g. amortised workspace
    growth inside a [reserve]); on a call site it sanctions everything
    reached through that edge for chains passing through it.

    Precision notes (DESIGN.md §8): local refs used only under
    [!]/[:=]/[incr]/[decr] are register-allocated, not heap cells, and are
    not flagged; [raise]/[invalid_arg]/[failwith] argument expressions are
    off-budget; ordinary boxed-float returns are left to the dynamic
    [Gc.allocated_bytes] budget tests. *)

type unit_facts
(** One unit's allocation slice: annotated roots and per-binding
    allocation witnesses, keyed by value path. *)

val collect : Ppxlib.structure -> unit_facts
(** Syntactic, AST-only walk of one unit — no symtab reads. *)

val check :
  allowed:(string -> string -> Ppxlib.Location.t -> bool) ->
  Symtab.t ->
  Callgraph.t ->
  unit_facts array ->
  Finding.t list
(** [check ~allowed symtab cg facts] — [allowed rule path loc] is the
    engine's recording suppression predicate; [facts] is indexed by uid.
    Findings are only emitted for roots in linted units; traversal (and
    therefore allow-usage accounting) runs over the whole project. *)
