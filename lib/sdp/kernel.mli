(** Batched structure-of-arrays Burer–Monteiro kernel.

    Compiles a sparse [Problem.t] into flat parallel arrays (cost entries,
    constraints as a CSR slab) and solves it inside a preallocated,
    reusable workspace: the augmented-Lagrangian evaluations and L-BFGS
    line searches touch only unboxed float-array storage and allocate
    nothing per iteration.  One workspace is meant to serve a whole
    size-bucketed batch of partition subproblems on one domain.

    The arithmetic is operation-for-operation the sequence of the
    record-based solver it replaced, so [solve_into] and [Solver.solve]
    agree bitwise on identical inputs. *)

type compiled
(** A problem flattened for the kernel; immutable, safe to share across
    domains. *)

val compile : ?groups:int array -> rank:int -> Problem.t -> compiled
(** Flatten a problem at the given factor rank ([rank <= 0] selects the
    automatic ≈√(2m) rank, capped as in [Solver]).

    [groups.(i)] names the ranking group of diagonal index [i] (the
    candidate layer of an assignment variable), or [-1] for an index whose
    value nobody ranks (a slack).  A problem compiled with groups gets the
    ranked exit of {!solve_into}; without them [solve_into] runs the full
    augmented-Lagrangian loop.

    @raise Invalid_argument if an entry index is out of range (see
    {!Problem.create}) or [groups] does not have length [dim]. *)

val dims : compiled -> int * int
(** [(dim, resolved rank)] of a compiled problem. *)

type ws
(** Reusable solve workspace (factor iterate, multipliers, L-BFGS ring).
    Grows to the largest problem it has seen; never shrinks.  Not
    domain-safe: use one workspace per domain. *)

val ws_create : unit -> ws

type options = {
  max_outer : int;
  inner_iters : int;
  sigma0 : float;
  sigma_growth : float;
  feas_tol : float;
  seed : int;
}
(** [Solver.options] minus the rank (resolved at compile time). *)

val solve_into :
  ?v0:float array -> ws -> compiled -> options:options -> x_diag:float array -> unit
(** Solve into the workspace, writing diag(VVᵀ) into [x_diag] (length >=
    dim).  Scalar results land in the accessors below; the factor V stays
    readable via [v] until the next solve on this workspace.  Allocates
    only on workspace growth (plus one evaluator closure per call).
    [?v0] warm-starts the factor iterate from a previous solve's flat V;
    it is honoured only when [Array.length v0 = dim * rank], otherwise the
    deterministic gaussian cold start is used.

    {b Ranked exit.}  For a problem compiled with groups, the loop stops
    after outer round k >= 2 when (a) the order of the clamped values
    [max 0 (min 1 x_ii)] within every group equals the order after round
    k-1 — descending value, NaN last, ties by ascending index, the order
    [Cpla.Post_map] ranks candidates in — and (b) the round's max violation
    is <= [100 · feas_tol].  {!ranked_exit} reports whether it fired. *)

val v : ws -> float array
(** Flat row-major factor of the last solve: V_{i,c} at [(i*r)+c].  Valid
    for the first [dim*r] cells; overwritten by the next solve. *)

val objective : ws -> float
val max_violation : ws -> float
val outer_rounds : ws -> int

val lbfgs_iters : ws -> int
(** L-BFGS iterations summed over the outer rounds of the last solve. *)

val ranked_exit : ws -> bool
(** Whether the last solve stopped on the ranked exit, i.e. before both
    [feas_tol] and [max_outer] would have ended it. *)
