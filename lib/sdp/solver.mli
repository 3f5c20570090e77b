(** Burer–Monteiro low-rank SDP solver.

    Replaces CSDP in this reproduction.  Factorises X = V·Vᵀ with V of small
    rank and minimises the augmented Lagrangian

      ⟨C, VVᵀ⟩ − Σ y_k r_k(V) + (σ/2) Σ r_k(V)²,   r_k = ⟨A_k, VVᵀ⟩ − b_k

    over V with L-BFGS, updating multipliers y and penalty σ in an outer
    loop.  X ⪰ 0 holds by construction, so the layer-assignment consumer
    (which only reads the diagonal x_ij values and feeds them to the
    post-mapping of Alg. 1) always receives a valid relaxation point. *)

type options = {
  rank : int;          (** columns of V; 0 = auto (≈ √(2m), capped) *)
  max_outer : int;     (** augmented-Lagrangian rounds (default 12) *)
  inner_iters : int;   (** L-BFGS iterations per round (default 150) *)
  sigma0 : float;      (** initial penalty (default 10) *)
  sigma_growth : float;(** penalty growth when progress stalls (default 4) *)
  feas_tol : float;    (** target max |r_k| (default 1e-4) *)
  seed : int;          (** deterministic initialisation seed *)
}

val default_options : options

type result = {
  v : Cpla_numeric.Mat.t;     (** the factor V (dim × rank) *)
  x_diag : float array;       (** diagonal of X = VVᵀ *)
  objective : float;          (** ⟨C, X⟩ *)
  max_violation : float;      (** max |⟨A_k, X⟩ − b_k| *)
  outer_rounds : int;
}

val kernel_options : options -> Kernel.options
(** The options minus the rank, which {!Kernel.compile} takes. *)

type ws = Kernel.ws
(** Reusable solve workspace; see {!Kernel.ws}. *)

val ws_create : unit -> ws

val solve :
  ?options:options -> ?ws:ws -> ?v0:float array -> ?groups:int array -> Problem.t -> result
(** [?ws] reuses a workspace across solves (one per domain); omitting it
    allocates a fresh one.  Results are independent of workspace reuse.
    [?v0] warm-starts the Burer–Monteiro factor from a previous solve's
    flat row-major V (see {!Kernel.solve_into}); a length mismatch falls
    back to the deterministic cold start.  [?groups] enables the ranked
    exit (see {!Kernel.compile}). *)

val x_matrix : result -> Cpla_numeric.Mat.t
(** Materialise the full X (for tests; O(dim²·rank)). *)
