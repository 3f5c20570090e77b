(** ILP method (Section 3.1): build formula (4) for one partition and solve
    it exactly with branch-and-bound.

    Variables: x_ij per (segment, candidate layer), y_ijpq per connected
    pair and layer combination (linked by (4e)–(4g)), and the continuous
    via-overflow variable V_o weighted by α in the objective.  Constraints
    (4b) assignment, (4c) edge capacity, (4d) via capacity relaxed by V_o. *)

val solve :
  options:Cpla_ilp.Solver.options ->
  alpha:float ->
  ?ws:Cpla_ilp.Solver.ws ->
  ?check:(unit -> unit) ->
  Formulation.t ->
  int array option
(** Chosen layer per var, or [None] when the solver found nothing within
    budget (caller keeps the previous assignment).  [check] is the
    cooperative-cancellation hook (see {!Driver.optimize_released}),
    polled at the solve boundaries (before model build and before
    branch-and-bound); the solver's own [time_limit_s] bounds the gap
    between polls.  [ws] reuses an LP workspace across partitions (one per
    domain); results are independent of workspace reuse.

    Telemetry: the counter [ilp/no-incumbent] counts solves that return
    [None].  When tracing, the [ilp/solve] span's End event carries the
    search's [nodes], [proven_optimal] (1 when no budget cut the search
    short) and [incumbent] (1 when a solution was found). *)

val build_model : alpha:float -> Formulation.t -> Cpla_ilp.Model.t
(** The exact 0/1 model (exposed for tests). *)
