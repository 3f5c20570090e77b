(** The CPLA outer loop (Problem 1).

    Each iteration freezes downstream capacitances and worst paths at the
    current assignment, partitions the released segments (Section 3.2),
    solves partitions with the configured method (ILP or SDP+mapping)
    against live capacity state, and re-evaluates.  Iterations repeat until
    the released nets' timing stops improving (with a revert of the last
    iteration if it hurt), or the iteration cap is hit.

    The first sweep solves every quadtree leaf; later sweeps are
    *dirty-partition* sweeps ({!Incr}): only leaves whose inputs could have
    changed — leaves sharing a net with a net that moved, or a grid
    tile/edge with a leaf whose segments moved — are re-solved; clean
    leaves keep their layers verbatim.  With [warm_start = false] the
    committed layers are identical to those of a loop that re-solves every
    leaf in every sweep; warm starts and the solve cache trade that bitwise
    identity for speed while preserving validity (equivalence within score
    tolerance). *)

type report = {
  released : int array;      (** net ids that were optimised *)
  iterations : int;          (** outer iterations performed *)
  partitions_solved : int;
      (** partition subproblems solved in *committed* sweeps (a final sweep
          that is reverted for scoring worse does not count) *)
  avg_tcp : float;           (** Avg(Tcp) over released nets, final *)
  max_tcp : float;           (** Max(Tcp) over released nets, final *)
}

val optimize :
  ?config:Config.t ->
  ?solve_cache:Solve_cache.t ->
  ?check:(unit -> unit) ->
  Cpla_route.Assignment.t ->
  report
(** Requires a fully assigned state (run {!Cpla_route.Init_assign} first).
    @raise Invalid_argument otherwise. *)

val optimize_released :
  ?config:Config.t ->
  ?engine:Cpla_timing.Incremental.t ->
  ?solve_cache:Solve_cache.t ->
  ?check:(unit -> unit) ->
  Cpla_route.Assignment.t ->
  released:int array ->
  report
(** Same, but with an externally chosen release set (used by the benchmark
    harness to give TILA and CPLA identical released nets).  [engine] is the
    incremental timing cache to score and freeze coefficients through; pass
    the one already warmed by selection/measurement to avoid re-analysing
    clean nets, or omit it to have a fresh engine created internally.
    @raise Invalid_argument when the engine is bound to another assignment.
    An empty [released] returns immediately with zero metrics.

    [solve_cache] (SDP method) is a content-addressed cache of fractional
    partition solves, shareable across calls and domains: coupled
    subproblems whose canonical formulation was already solved cold skip
    the solver entirely (see {!Solve_cache}).

    [check] is a cooperative-cancellation hook: it is polled at every
    partition-solve boundary (iteration start and before each leaf solve,
    including the uncoupled fast path) and cancels the run by raising.  The
    exception propagates to the caller unchanged, after the in-progress
    iteration's mutations are rolled back to the iteration-entry snapshot,
    so the assignment is always left fully assigned and internally
    consistent.  {!Cpla_serve.Token.check} is the intended hook; any
    closure works. *)

(** The dirty-partition scheduler that runs every sweep, exposed for
    benchmarks and equivalence tests.  Holds the (once-built) quadtree,
    per-leaf dirty flags and leaf-keyed warm-start factors.  The partition
    structure is a pure function of
    the released segments' fixed 2-D midpoints, so leaves keep stable
    indices for the lifetime of the state. *)
module Incr : sig
  type t

  val create :
    ?solve_cache:Solve_cache.t ->
    config:Config.t ->
    engine:Cpla_timing.Incremental.t ->
    Cpla_route.Assignment.t ->
    released:int array ->
    t
  (** Build the quadtree, the net→leaves map, and the tile-cohabitation
      adjacency (the capacity-row fallback: leaves sharing a grid tile are
      neighbours).  All leaves start dirty, so the first {!sweep} is a
      full cold sweep. *)

  val leaf_count : t -> int

  val dirty_count : t -> int
  (** Leaves the next {!sweep} would re-solve; 0 means the loop has
      converged and a sweep would be a no-op. *)

  val mark_net_dirty : t -> int -> unit
  (** Flag a net as externally changed: its leaves and their tile
      neighbours are re-solved on the next sweep.  Unknown nets are
      ignored. *)

  val sweep : ?check:(unit -> unit) -> t -> int
  (** Run one sweep over the dirty leaves in leaf order (Gauss–Seidel):
      each dirty leaf is released, re-solved against the live grid and
      committed before the next one builds its subproblem, and a commit
      that moves layers re-flags its net and tile neighbours, so later
      leaves re-solve within the same sweep.  Returns the number of
      subproblems solved.  Requires the assignment to be fully assigned on
      entry. *)
end
