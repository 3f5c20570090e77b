(** Mixed 0/1 integer linear program container.

    minimise cᵀx  subject to  a_k x (≤|≥|=) b_k,  x ≥ 0,
    x_i ∈ {0,1} for every i with [binary.(i)].

    Continuous variables (such as the via-overflow variable V_o of the
    relaxed constraint (4d)) are allowed alongside the binaries. *)

type t = {
  objective : float array;
  rows : Cpla_numeric.Simplex.row array;
  binary : bool array;  (** same length as [objective] *)
}

val create :
  objective:float array ->
  rows:Cpla_numeric.Simplex.row list ->
  binary:bool array ->
  t
(** @raise Invalid_argument on a length mismatch or a row column out of
    range. *)

val num_vars : t -> int

val relaxation : t -> Cpla_numeric.Simplex.problem
(** LP relaxation: drops integrality and adds one-entry [x_i ≤ 1] rows for
    binaries, after the model's rows, in variable order. *)

val value : t -> float array -> float
(** Objective value of a point. *)

val check : ?tol:float -> t -> float array -> bool
(** Feasibility including integrality: the relaxation's rows and bounds
    within [tol] (default 1e-6), and every binary within [tol] of an
    integer.  Does not build the relaxation. *)
