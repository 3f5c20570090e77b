type entry = { i : int; j : int; v : float }

type constr = { terms : entry list; b : float }

type t = {
  dim : int;
  cost : entry list;
  constraints : constr list;
}

let check_entry dim e =
  if e.i < 0 || e.j >= dim || e.i > e.j then
    invalid_arg "Sdp.Problem: entry must satisfy 0 <= i <= j < dim"

let create ~dim ~cost ~constraints =
  if dim <= 0 then invalid_arg "Sdp.Problem.create: dim must be positive";
  List.iter (check_entry dim) cost;
  List.iter (fun c -> List.iter (check_entry dim) c.terms) constraints;
  { dim; cost; constraints }
