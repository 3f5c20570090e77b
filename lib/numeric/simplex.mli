(** Two-phase primal simplex over sparse rows.

    Linear-programming substrate for the branch-and-bound ILP solver that
    replaces GUROBI in this reproduction.  Solves

      minimise cᵀx  subject to  a_k x (≤ | ≥ | =) b_k,  x ≥ 0.

    The tableau is stored dense, but each row keeps a list of columns that
    covers its nonzero cells, and pivots and reduced costs touch only
    those.
    Bland's anti-cycling rule engages after a run of degenerate pivots.
    Sized for the partitioned layer-assignment subproblems (hundreds of
    rows and columns, a few percent of them nonzero per row). *)

type relation = Le | Ge | Eq

type row = private {
  cols : int array;     (** strictly increasing, non-negative column indices *)
  coefs : float array;  (** [coefs.(s)] multiplies column [cols.(s)] *)
  rel : relation;
  rhs : float;
}
(** A constraint [Σ_s coefs.(s) · x_{cols.(s)} (≤ | ≥ | =) rhs]; columns
    not listed have coefficient zero. *)

val sparse : cols:int array -> coefs:float array -> relation -> float -> row
(** [sparse ~cols ~coefs rel rhs] is a row from its listed coefficients.
    @raise Invalid_argument unless [cols] and [coefs] have equal lengths and
    [cols] is non-negative and strictly increasing. *)

val dense : float array -> relation -> float -> row
(** [dense coeffs rel rhs] is the row whose coefficient on column [j] is
    [coeffs.(j)]; only the nonzero ones are kept. *)

type problem = {
  objective : float array;  (** cost vector [c]; length fixes the variable count *)
  rows : row array;  (** every column index must be below the objective length *)
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
    of being materialised as rows.  Results are
    independent of workspace reuse and identical to a solve of the problem
    with equivalent appended rows.
    @raise Invalid_argument on out-of-range columns or out-of-range/negative
    fixes. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks [x] against every row of [p] and non-negativity,
    within [tol] (default 1e-6).  Used by tests and by branch-and-bound to
    validate incumbents. *)
