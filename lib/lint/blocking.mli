(** Event-loop blocking analysis ([blocking-in-loop]).

    Computes the set of functions reachable (via the {!Callgraph}'s
    resolved edges) from every binding annotated [[\@cpla.event_loop]] —
    the daemon's select loop — and flags blocking primitives found there:
    [Unix.sleep]/[waitpid]/blocking [connect]/[read]/[write]/[accept],
    [Mutex.lock]/[protect], [Condition.wait], [Domain.join],
    [Thread.join], channel/stdin reads, and unbounded [while true] loops
    that contain no select/poll.  [Unix.select] itself is exempt (it is
    the loop's scheduling primitive).

    Findings are reported at the blocking site, so each sanctioned wait
    (nonblocking fd, brief critical section, post-loop drain) carries its
    own per-site [[\@cpla.allow "blocking-in-loop"]] justification; an
    allow on a call edge sanctions everything reached through that edge
    (e.g. a thunk that actually runs on a worker domain). *)

type unit_facts
(** One unit's blocking slice: [[\@cpla.event_loop]] roots and
    per-binding blocking witnesses, keyed by value path. *)

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
    Findings are only emitted at sites in linted units; traversal (and
    allow-usage accounting) runs over the whole project. *)
