(** SDP method (Section 3.3): relax one partition's problem into the
    semidefinite program of Eqns (5)–(7) and solve it.

    The moment matrix X carries x_ij on its diagonal and y_ijpq off the
    diagonal; the objective matrix T carries ts(i,j) on the diagonal and
    tv(i,j,p,q) + λ (the via-capacity penalty) off the diagonal.
    Assignment constraints (4b) stay exact.  Edge-capacity inequalities
    (4c) become equalities Σx + s − o = limit through two PSD diagonal
    entries per row: a slack s and an overflow o, the paper's V_o, charged
    α in the objective.  The overflow keeps every partition's relaxation
    feasible, even one whose edges other nets already fill.  Via capacity
    (4d) lives in the objective as λ, exactly as the paper describes. *)

type built = {
  problem : Cpla_sdp.Problem.t;
  index : int -> int -> int;
      (** [index vi ci] is the matrix row/column of var [vi]'s candidate
          [ci]; the trailing rows hold one slack per capacity row, then
          one overflow per capacity row, in [cap_rows] order *)
  groups : int array;
      (** ranking group of each row: the candidate's layer, [-1] for a
          slack or an overflow — pass to {!Cpla_sdp.Kernel.compile} to
          enable the ranked exit *)
}

val build_problem : alpha:float -> Formulation.t -> built
(** [alpha] is the cost of one unit of edge overflow, in the units of the
    formulation's timing costs (the ILP's V_o weight, [Config.t.alpha]);
    it is normalised with them. *)

type solution = {
  frac : float array array;
      (** [frac.(vi).(ci) ∈ [0,1]]: fractional value of var [vi]'s
          candidate [ci] — the diagonal x_ij clamped to the unit
          interval. *)
  factor : float array;
      (** flat row-major Burer–Monteiro factor V of the final iterate;
          feed it back as [?v0] to warm-start a later solve of a
          similarly-shaped formulation. *)
}

val solve :
  options:Cpla_sdp.Solver.options ->
  alpha:float ->
  ?ws:Cpla_sdp.Solver.ws ->
  ?v0:float array ->
  ?check:(unit -> unit) ->
  Formulation.t ->
  solution
(** Solve the relaxation and materialise the fractional table plus the
    final factor.  [?v0] warm-starts the factor iterate; if the warm solve
    stalls (non-finite or badly violated final residual), the solve is
    retried from the deterministic cold start (counted under the
    [sdp/warm-retries] metric), so a bad seed costs time but never
    quality.  [check] is the cooperative-cancellation hook (see
    {!Driver.optimize_released}), polled at the solve boundaries (before
    building the SDP and before each solver run) and aborting the solve by
    raising.  [ws] reuses a solver workspace across partitions (one per
    domain); results are independent of workspace reuse.

    The problem is compiled with its ranking groups, so the kernel stops
    once the per-layer ranking Post_map reads has settled (see
    {!Cpla_sdp.Kernel.solve_into}).  Telemetry, per kernel run (a warm
    attempt and its cold retry are two runs): histograms [sdp/outer-rounds],
    [sdp/lbfgs-iters] (summed over the rounds) and [sdp/final-violation]
    (log10 of the final max violation; samples above the stall threshold
    land in its overflow), and the counter [sdp/ranked-exits].  Per call,
    [sdp/stalled] counts a final (cold) solve that still ended above the
    stall threshold, and [sdp/overflowed] a final solve whose overflow
    Σ o is at least 0.5: a partition the capacity rows could not fit.
    When tracing, the [sdp/solve] span's End event carries that Σ o as
    [overflow]. *)
