(** Limited-memory BFGS minimisation.

    The inner solver of the Burer–Monteiro SDP engine: minimises a smooth
    unconstrained objective given a value-and-gradient oracle.  Two-loop
    recursion with Armijo backtracking; deterministic, allocation-light. *)

(** All scratch state — the curvature-pair ring, line-search buffers, the
    gradient — lives in a reusable workspace, and the evaluator writes into
    caller storage, so a solve allocates nothing on the hot path. *)
module Ws : sig
  type t

  val create : ?memory:int -> unit -> t
  (** Empty workspace; buffers grow on first use.  [memory] is the number
      of curvature pairs retained (default 8). *)

  val reserve : t -> int -> unit
  (** Pre-size every buffer for problems of dimension <= n. *)

  val minimize :
    t ->
    n:int ->
    ?max_iter:int ->
    ?grad_tol:float ->
    eval:(float array -> float array -> unit) ->
    float array ->
    unit
  (** [minimize ws ~n ~eval x] minimises over the first [n] cells of [x],
      updating [x] in place.  [eval x grad_out] must write the objective
      into [fx_out ws] (cell 0) and the gradient into [grad_out.(0..n-1)].
      [x] itself is the result; {!iterations} reports the work done.
      [grad_tol] is the stopping threshold on the gradient infinity norm
      (default 1e-6); [max_iter] defaults to 500. *)

  val fx_out : t -> float array
  (** The 1-cell buffer the evaluator writes the objective value into. *)

  val iterations : t -> int
  (** Iterations performed by the last [minimize]. *)
end
