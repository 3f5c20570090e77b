(** Content-addressed cache of fractional partition solves.

    Maps [Formulation.digest] + SDP-options and α fingerprint to the
    materialised fractional table of {!Sdp_method.solve}, so repeated or
    near-identical subproblems — typically the same design
    resubmitted to the daemon, or an untouched region re-released across
    jobs — skip the solver entirely.  Only cold-start solves are stored
    (warm-started results depend on solve history), keeping cache
    contents a pure function of the canonical formulation and options.

    Safe to share across domains and daemon jobs: a mutex guards the
    table, while the hit/miss counters are wait-free atomics (the daemon's
    event loop reads them for stats responses).  Counts are mirrored to
    the [solve-cache/hits] / [solve-cache/misses] metrics. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] (default 4096) bounds the table; reaching the bound
    clears it wholesale. *)

val key : options:Cpla_sdp.Solver.options -> alpha:float -> string -> string
(** [key ~options ~alpha digest]: full cache key for a formulation digest
    solved under [options] with edge-overflow weight [alpha]. *)

val find : t -> string -> float array array option
(** Lookup by full key, counting a hit or a miss.  The returned table is
    shared — callers must not mutate it. *)

val store : t -> string -> float array array -> unit
(** Insert a cold-solve fractional table under a full key. *)

val hits : t -> int
(** Wait-free; safe from the daemon's event loop. *)

val misses : t -> int
(** Wait-free; safe from the daemon's event loop. *)

val length : t -> int
(** Entries currently stored (takes the table mutex). *)
