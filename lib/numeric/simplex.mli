(** Dense two-phase primal simplex.

    Linear-programming substrate for the branch-and-bound ILP solver that
    replaces GUROBI in this reproduction.  Solves

      minimise cᵀx  subject to  a_k x (≤ | ≥ | =) b_k,  x ≥ 0.

    Dense tableau implementation with Bland's anti-cycling rule engaged
    after a run of degenerate pivots; sized for the partitioned
    layer-assignment subproblems (hundreds of rows and columns). *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;  (** cost vector [c]; length fixes the variable count *)
  rows : (float array * relation * float) array;
      (** each row is [(coefficients, relation, rhs)]; coefficient arrays must
          match the objective length *)
}

type solution = {
  x : float array;     (** primal optimum *)
  objective : float;   (** cᵀx at the optimum *)
  iterations : int;    (** total pivots over both phases *)
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

type ws
(** Reusable solve workspace: tableau storage plus per-iteration scratch.
    Grows to the largest problem it has seen; never shrinks.  Not
    domain-safe: use one workspace per domain. *)

val ws_create : unit -> ws

val solve : ?ws:ws -> ?max_pivots:int -> ?fixes:(int * float) list -> problem -> status
(** Solve the LP.  [max_pivots] (default 20000) bounds total pivots across
    both phases; hitting it yields [Iteration_limit].  [ws] reuses a
    workspace (a fresh one is created when omitted).  [fixes] appends
    equality rows [x_i = v] (each [v >= 0]) after the problem rows — the
    branch-and-bound fixing rows, written into the tableau directly instead
    of being materialised as dense coefficient rows.  Results are
    independent of workspace reuse and identical to a solve of the problem
    with equivalent appended rows.
    @raise Invalid_argument on ragged rows or out-of-range/negative fixes. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks [x] against every row of [p] and non-negativity,
    within [tol] (default 1e-6).  Used by tests and by branch-and-bound to
    validate incumbents. *)
