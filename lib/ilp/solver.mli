(** Branch-and-bound 0/1 ILP solver over the simplex LP relaxation.

    Replaces GUROBI for the exact reference method of Section 3.1.  Depth-
    first search branching on the most fractional binary variable, with LP
    lower bounds, a nearest-integer rounding heuristic for early incumbents,
    and node/time budgets that reproduce the paper's "ILP cannot finish"
    behaviour on oversized instances. *)

type options = {
  max_nodes : int;      (** branch-and-bound node budget (default 5000) *)
  time_limit_s : float; (** wall budget in seconds (default 30) *)
  gap_tol : float;      (** prune when bound ≥ incumbent − gap_tol (default 1e-6) *)
}

val default_options : options

type outcome = {
  x : float array;
  objective : float;
  proven_optimal : bool;  (** false when a budget cut the search short *)
  nodes_explored : int;
}

type ws = Cpla_numeric.Simplex.ws
(** Reusable LP workspace shared across all branch-and-bound nodes of a
    solve — and across solves (one per domain). *)

val ws_create : unit -> ws

type search = {
  best : outcome option;  (** what {!solve} returns *)
  nodes : int;            (** nodes explored, also when no incumbent was found *)
  complete : bool;        (** no budget cut the search short *)
}

val search : ?options:options -> ?ws:ws -> Model.t -> search
(** Run branch-and-bound and report the search as well as its result;
    [complete] with no [best] proves the model infeasible. *)

val solve : ?options:options -> ?ws:ws -> Model.t -> outcome option
(** Best integral solution found, or [None] if none exists (or none was
    found within budget on an instance that may still be feasible —
    callers treat [None] as "keep the current assignment").  [?ws] reuses
    an LP workspace; results are independent of workspace reuse. *)
