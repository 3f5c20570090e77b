open Cpla_numeric

type options = {
  rank : int;
  max_outer : int;
  inner_iters : int;
  sigma0 : float;
  sigma_growth : float;
  feas_tol : float;
  seed : int;
}

let default_options =
  {
    rank = 0;
    max_outer = 12;
    inner_iters = 150;
    sigma0 = 10.0;
    sigma_growth = 4.0;
    feas_tol = 1e-4;
    seed = 7;
  }

type result = {
  v : Mat.t;
  x_diag : float array;
  objective : float;
  max_violation : float;
  outer_rounds : int;
}

type ws = Kernel.ws

let ws_create = Kernel.ws_create

let kernel_options (o : options) =
  {
    Kernel.max_outer = o.max_outer;
    inner_iters = o.inner_iters;
    sigma0 = o.sigma0;
    sigma_growth = o.sigma_growth;
    feas_tol = o.feas_tol;
    seed = o.seed;
  }

(* The record-based augmented-Lagrangian loop that used to live here moved
   to [Kernel] as a flat structure-of-arrays implementation (same
   floating-point operation sequence, hence bitwise-equal results); this
   wrapper keeps the list-based problem API and materialises the [Mat.t]
   factor for consumers that want X entries.  Passing [?ws] reuses a
   workspace across solves — the batched driver path holds one per
   domain. *)
let solve ?(options = default_options) ?ws ?v0 ?groups (problem : Problem.t) =
  let ws = match ws with Some w -> w | None -> Kernel.ws_create () in
  let compiled = Kernel.compile ?groups ~rank:options.rank problem in
  let dim, r = Kernel.dims compiled in
  let x_diag = Array.make dim 0.0 in
  Kernel.solve_into ?v0 ws compiled ~options:(kernel_options options) ~x_diag;
  let flat = Kernel.v ws in
  let vm = Mat.init dim r (fun i c -> flat.((i * r) + c)) in
  {
    v = vm;
    x_diag;
    objective = Kernel.objective ws;
    max_violation = Kernel.max_violation ws;
    outer_rounds = Kernel.outer_rounds ws;
  }

let x_matrix result =
  let d = result.v.Mat.rows and r = result.v.Mat.cols in
  Mat.init d d (fun i j ->
      let acc = ref 0.0 in
      for c = 0 to r - 1 do
        acc := !acc +. (Mat.get result.v i c *. Mat.get result.v j c)
      done;
      !acc)
