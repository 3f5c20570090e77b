(** Mutable-flow analysis behind the [domain-race] rule.

    Tracks values with shared-mutable contents (ref, Hashtbl, Buffer, Queue,
    Stack, array, bytes, mutable-record literals) as they flow through
    let-bindings and aliases, get captured by closures, and cross function
    and module boundaries as arguments, until one reaches code that runs on
    another domain ([Pool.parallel_map] / [Pool.Persistent.submit] /
    [Domain.spawn] kernels).

    Interprocedural flows use escape summaries: a parameter of a top-level
    definition is marked [Captured] when some closure built inside captures
    it into a parallel primitive, or [Kernel] when it is itself used as the
    parallel kernel.  Summaries are computed to a fixpoint so chains like
    "caller allocates -> helper forwards -> worker captures" are reported
    with the complete hop-by-hop story.

    The two-phase split: {!collect} walks one unit's AST and records an
    event stream — unconditional escape seeds and races, plus
    deferred events whose outcome depends on the whole-program escape or
    def-capture tables; {!solve} replays the merged streams in uid order to
    the fixpoint and then once more to emit races, never re-touching an
    AST.  Event order mirrors walk order, so the first-seed-wins
    tie-breaking (and with it every message) is a deterministic function
    of the merged facts.

    Arrays and bytes only race once a domain writes them, so read-only
    captures of those kinds are not reported; the other kinds fire on any
    cross-domain sharing. *)

open Ppxlib

type race = {
  r_path : string;  (** unit (project-relative path) the finding is reported in *)
  r_loc : Location.t;  (** the parallel call / capture site *)
  r_msg : string;  (** full capture chain, creation site through kernel *)
  r_origin : (string * Location.t) option;
      (** creation site, so [[\@cpla.allow]] works there too *)
  r_reported : bool;
      (** raised in a linted unit; a context unit's race is not reported but
          still consults (and credits) the allows on its sites *)
}

type unit_facts
(** One unit's mutable-flow slice: its def-captures and its walk-ordered
    event stream. *)

val collect : Symtab.t -> Symtab.unit_info -> structure -> unit_facts
(** Walk one unit's AST against the run's assembled symtab. *)

val solve : Symtab.t -> unit_facts array -> race list
(** Run the escape fixpoint and emission pass over per-unit facts indexed
    by uid.  Deterministic: results are sorted by (path, position,
    message). *)
