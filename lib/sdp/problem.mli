(** Sparse symmetric semidefinite programs in standard form:

      minimise ⟨C, X⟩  subject to  ⟨A_k, X⟩ = b_k,  X ⪰ 0.

    Symmetric matrices are given by their upper triangle: an entry (i, j, v)
    with i < j denotes the value v at *both* (i,j) and (j,i), so its
    contribution to an inner product with X is 2·v·X_ij.  Inequalities are
    encoded by the caller via slack diagonal entries (X ⪰ 0 makes any
    diagonal entry non-negative), exactly the paper's "extra slack variables
    are added into the objective matrix". *)

type entry = {
  i : int;
  j : int;  (** requires [i <= j]; [i = j] is a diagonal entry *)
  v : float;
}

type constr = {
  terms : entry list;
  b : float;
}

type t = {
  dim : int;
  cost : entry list;          (** the matrix T of Eqn (6) *)
  constraints : constr list;
}

val create : dim:int -> cost:entry list -> constraints:constr list -> t
(** @raise Invalid_argument on out-of-range or lower-triangle indices. *)
