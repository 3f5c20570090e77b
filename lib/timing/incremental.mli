(** Incremental Elmore timing engine.

    Memoizes {!Elmore.detail} and {!Critical.path_info} per net, keyed on the
    net's {!Cpla_route.Assignment.generation} counter: any [set_layer] /
    [unassign] on a net silently invalidates its cached analyses, and the
    next query re-analyses only that net.  This turns the three hottest
    evaluation loops of the outer CPLA iteration — critical-net selection,
    scoring, and coefficient freezing — from O(all nets) into O(nets whose
    segments actually moved).

    Queries that hit a dirty net re-analyse it against a reusable workspace
    owned by the engine (no per-call scratch allocation).  {!refresh}
    revalidates every dirty net at once.

    Thread-safety contract: the engine is not thread-safe.  Queries and
    [refresh] mutate the cache and the shared workspace, so they must all
    come from the domain that owns the engine, and the assignment must not
    be mutated from another domain while they run.  Parallelism lives
    across jobs, each with its own assignment and engine. *)

type t

val create : Cpla_route.Assignment.t -> t
(** An empty cache over the assignment.  Cheap: nothing is analysed until
    queried.  The engine remains valid for the assignment's lifetime;
    mutations are tracked via generation counters, not registration. *)

val assignment : t -> Cpla_route.Assignment.t

val detail : t -> int -> Elmore.detail
(** Cached {!Elmore.analyze}: recomputed only if the net changed since the
    last query.  Same contract (all segments of the net must be assigned,
    @raise Invalid_argument otherwise). *)

val net_tcp : t -> int -> float
(** Cached {!Critical.net_tcp}. *)

val path_info : t -> int -> Critical.path_info
(** Cached {!Critical.path_info}; shares the cached Elmore detail. *)

val select : t -> ratio:float -> int array
(** Identical result to {!Critical.select} (same ranking and tie-breaking);
    only dirty nets are re-analysed. *)

val pin_delays : t -> int array -> float array
(** Cached {!Critical.pin_delays}. *)

val avg_max_tcp : t -> int array -> float * float
(** Cached {!Critical.avg_max_tcp}; (0, 0) on an empty net set. *)

val refresh : t -> unit
(** Revalidate every dirty net's Elmore detail now; path infos stay lazy
    and are rebuilt from the fresh detail on their next query.  Requires a
    fully assigned state. *)

val is_dirty : t -> int -> bool
(** Whether the net's cached detail is stale (or was never computed). *)

val dirty_count : t -> int
(** Number of nets a {!refresh} would re-analyse. *)
