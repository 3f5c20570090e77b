open Cpla_numeric
open Cpla_util

(* Batched structure-of-arrays Burer–Monteiro kernel.

   [Problem.t] keeps its sparse matrices as lists of boxed records — fine
   for construction and validation, hostile to the inner loop: every
   augmented-Lagrangian evaluation folds over those lists, boxing a float
   per accumulation step and allocating a fresh gradient per call.  This
   module compiles a problem into flat parallel arrays (entry rows, entry
   columns, entry values; constraints as a CSR slab) and solves it inside a
   preallocated workspace, so the hot path — L-BFGS line searches over the
   penalised objective — touches only unboxed float-array storage.

   One workspace serves *many* problems: the driver buckets partition
   subproblems by size and runs a whole bucket through the same workspace
   on one domain (see Cpla.Driver), which is what turns per-partition
   solves into a batched kernel.  The arithmetic is operation-for-operation
   the sequence of [Solver.solve] before the port, so results are bitwise
   equal to the record-based implementation's. *)

type compiled = {
  dim : int;
  r : int;  (* resolved factor rank *)
  n : int;  (* dim * r, the flattened V dimension *)
  m : int;  (* number of constraints *)
  (* cost entries, in Problem list order *)
  c_i : int array;
  c_j : int array;
  c_v : float array;
  (* constraint entries as CSR: entries of constraint k live in
     [a_off.(k), a_off.(k+1)) of the three slabs, in Problem list order *)
  a_off : int array;
  a_i : int array;
  a_j : int array;
  a_v : float array;
  b : float array;
  (* ranking group of each diagonal index (>= 0; -1 = unranked), or [||]
     when the problem was compiled without groups *)
  groups : int array;
  ranked : int;  (* number of indices with a group >= 0 *)
}

let auto_rank (problem : Problem.t) =
  let m = List.length problem.Problem.constraints in
  let r = 1 + int_of_float (Float.ceil (sqrt (2.0 *. float_of_int m))) in
  max 2 (min problem.Problem.dim (min r 12))

let resolve_rank ~rank problem =
  if rank > 0 then min rank problem.Problem.dim else auto_rank problem

(* The inner loops below read the entry slabs without bounds checks, so
   every index is validated here, once per compile: [Problem.t] is a plain
   record and need not have come through [Problem.create]. *)
let check_entry dim (e : Problem.entry) =
  if e.Problem.i < 0 || e.Problem.j >= dim || e.Problem.i > e.Problem.j then
    invalid_arg "Kernel.compile: entry must satisfy 0 <= i <= j < dim"

let compile ?groups ~rank (problem : Problem.t) =
  let dim = problem.Problem.dim in
  if dim <= 0 then invalid_arg "Kernel.compile: dim must be positive";
  let groups =
    match groups with
    | None -> [||]
    | Some g ->
        if Array.length g <> dim then invalid_arg "Kernel.compile: groups length <> dim";
        Array.copy g
  in
  let r = resolve_rank ~rank problem in
  let nc = List.length problem.Problem.cost in
  let c_i = Array.make nc 0 and c_j = Array.make nc 0 and c_v = Array.make nc 0.0 in
  List.iteri
    (fun k (e : Problem.entry) ->
      check_entry dim e;
      c_i.(k) <- e.Problem.i;
      c_j.(k) <- e.Problem.j;
      c_v.(k) <- e.Problem.v)
    problem.Problem.cost;
  let m = List.length problem.Problem.constraints in
  let total = List.fold_left (fun a c -> a + List.length c.Problem.terms) 0 problem.Problem.constraints in
  let a_off = Array.make (m + 1) 0 in
  let a_i = Array.make total 0 and a_j = Array.make total 0 and a_v = Array.make total 0.0 in
  let b = Array.make m 0.0 in
  let pos = ref 0 in
  List.iteri
    (fun k (c : Problem.constr) ->
      a_off.(k) <- !pos;
      b.(k) <- c.Problem.b;
      List.iter
        (fun (e : Problem.entry) ->
          check_entry dim e;
          a_i.(!pos) <- e.Problem.i;
          a_j.(!pos) <- e.Problem.j;
          a_v.(!pos) <- e.Problem.v;
          incr pos)
        c.Problem.terms)
    problem.Problem.constraints;
  a_off.(m) <- !pos;
  let ranked = Array.fold_left (fun a g -> if g >= 0 then a + 1 else a) 0 groups in
  { dim; r; n = dim * r; m; c_i; c_j; c_v; a_off; a_i; a_j; a_v; b; groups; ranked }

type ws = {
  lbfgs : Lbfgs.Ws.t;
  mutable cap_n : int;
  mutable v : float array;    (* flat row-major V: V_{i,c} = v.((i*r)+c) *)
  mutable xr : float array;   (* clamped diag(VVᵀ) of the latest round *)
  mutable perm : int array;   (* ranked indices in ranking order *)
  mutable cap_m : int;
  mutable y : float array;    (* Lagrange multipliers *)
  mutable res : float array;  (* constraint residuals of the current V *)
  (* results of the last solve *)
  mutable objective : float;
  mutable max_violation : float;
  mutable outer_rounds : int;
  mutable lbfgs_iters : int;
  mutable ranked_exit : bool;
}

let ws_create () =
  {
    lbfgs = Lbfgs.Ws.create ();
    cap_n = 0;
    v = [||];
    xr = [||];
    perm = [||];
    cap_m = 0;
    y = [||];
    res = [||];
    objective = 0.0;
    max_violation = 0.0;
    outer_rounds = 0;
    lbfgs_iters = 0;
    ranked_exit = false;
  }

let reserve ws ~n ~m =
  (* amortised growth: sanctioned allocation under the zero-alloc solve;
     the per-index ranking buffers are sized by n >= dim *)
  (if n > ws.cap_n then
     begin
       let cap = max n (max 64 (2 * ws.cap_n)) in
       ws.v <- Array.make cap 0.0;
       ws.xr <- Array.make cap 0.0;
       ws.perm <- Array.make cap 0;
       ws.cap_n <- cap
     end [@cpla.allow "alloc-in-kernel"]);
  (if m > ws.cap_m then
     begin
       let cap = max m (max 16 (2 * ws.cap_m)) in
       ws.y <- Array.make cap 0.0;
       ws.res <- Array.make cap 0.0;
       ws.cap_m <- cap
     end [@cpla.allow "alloc-in-kernel"]);
  Lbfgs.Ws.reserve ws.lbfgs n

(* ⟨A, VVᵀ⟩ for the sparse symmetric A in slab range [lo, hi): the same
   per-entry dot and diagonal/off-diagonal doubling, in the same order, as
   the list fold it replaces.  Unchecked reads: [compile] validated every
   index against dim, and callers pass a [v] of >= dim*r cells. *)
let inner_vvt_flat e_i e_j e_v lo hi v r =
  let acc = ref 0.0 in
  for k = lo to hi - 1 do
    let i = Array.unsafe_get e_i k and j = Array.unsafe_get e_j k in
    let ir = i * r and jr = j * r in
    let s = ref 0.0 in
    for c = 0 to r - 1 do
      s := !s +. (Array.unsafe_get v (ir + c) *. Array.unsafe_get v (jr + c))
    done;
    let ev = Array.unsafe_get e_v k in
    if i = j then acc := !acc +. (ev *. !s) else acc := !acc +. (2.0 *. ev *. !s)
  done;
  !acc

(* grad += w * 2·A·V over slab range [lo, hi); [g] is the per-entry factor
   2·w·a_k, hoisted out of the rank loop with its left-to-right product
   order kept.  Unchecked as [inner_vvt_flat]. *)
let accumulate_grad_flat e_i e_j e_v lo hi v r w grad =
  for k = lo to hi - 1 do
    let i = Array.unsafe_get e_i k and j = Array.unsafe_get e_j k in
    let ir = i * r and jr = j * r in
    let g = 2.0 *. w *. Array.unsafe_get e_v k in
    if i = j then
      for c = 0 to r - 1 do
        Array.unsafe_set grad (ir + c)
          (Array.unsafe_get grad (ir + c) +. (g *. Array.unsafe_get v (ir + c)))
      done
    else
      for c = 0 to r - 1 do
        Array.unsafe_set grad (ir + c)
          (Array.unsafe_get grad (ir + c) +. (g *. Array.unsafe_get v (jr + c)));
        Array.unsafe_set grad (jr + c)
          (Array.unsafe_get grad (jr + c) +. (g *. Array.unsafe_get v (ir + c)))
      done
  done

(* Residuals r_k = ⟨A_k, VVᵀ⟩ − b_k of the current factor into [ws.res];
   returns max_k |r_k|.  Computed once per outer round and shared by the
   stopping test, the multiplier update and the reported violation. *)
let residuals c ws =
  let acc = ref 0.0 in
  for k = 0 to c.m - 1 do
    let res =
      inner_vvt_flat c.a_i c.a_j c.a_v c.a_off.(k) c.a_off.(k + 1) ws.v c.r -. c.b.(k)
    in
    ws.res.(k) <- res;
    acc := Float.max !acc (Float.abs res)
  done;
  !acc

(* diag(VVᵀ) of the current factor into [dst] *)
let diag_vvt c v dst =
  for i = 0 to c.dim - 1 do
    let s = ref 0.0 in
    for cc = 0 to c.r - 1 do
      s := !s +. (v.((i * c.r) + cc) ** 2.0)
    done;
    dst.(i) <- !s
  done

(* ---- ranked exit -----------------------------------------------------------

   The layer-assignment consumer (Alg. 1 post-mapping) reads only the order
   of the clamped diagonal values within each candidate-layer group.  The
   order is Post_map's: descending value, NaN last, ties by ascending index.
   [ws.perm] holds the ranked indices sorted by (group, that order); since
   the order is strict and total, the previous round's [perm] is still
   sorted under this round's values exactly when the ranking is unchanged. *)

let ranks_before x a b =
  let xa = x.(a) and xb = x.(b) in
  let nan_a = Float.is_nan xa and nan_b = Float.is_nan xb in
  if nan_a || nan_b then if nan_a && nan_b then a < b else nan_b
  else
    let cmp = Float.compare xb xa in
    if cmp <> 0 then cmp < 0 else a < b

let perm_before c x a b =
  let ga = c.groups.(a) and gb = c.groups.(b) in
  if ga <> gb then ga < gb else ranks_before x a b

let sort_perm c ws =
  for k = 1 to c.ranked - 1 do
    let p = ws.perm.(k) in
    let h = ref k in
    while !h > 0 && perm_before c ws.xr p ws.perm.(!h - 1) do
      ws.perm.(!h) <- ws.perm.(!h - 1);
      decr h
    done;
    ws.perm.(!h) <- p
  done

(* Refresh the ranking from the current factor.  [first] seeds [perm] (no
   previous round to compare with); otherwise returns whether the previous
   round's order still holds, re-sorting when it does not. *)
let ranking_settled c ws ~first =
  diag_vvt c ws.v ws.xr;
  for i = 0 to c.dim - 1 do
    ws.xr.(i) <- Float.max 0.0 (Float.min 1.0 ws.xr.(i))
  done;
  if first then begin
    let k = ref 0 in
    for i = 0 to c.dim - 1 do
      if c.groups.(i) >= 0 then begin
        ws.perm.(!k) <- i;
        incr k
      end
    done;
    sort_perm c ws;
    false
  end
  else begin
    let sorted = ref true and k = ref 0 in
    while !sorted && !k < c.ranked - 1 do
      if not (perm_before c ws.xr ws.perm.(!k) ws.perm.(!k + 1)) then sorted := false;
      incr k
    done;
    if not !sorted then sort_perm c ws;
    !sorted
  end

type options = {
  max_outer : int;
  inner_iters : int;
  sigma0 : float;
  sigma_growth : float;
  feas_tol : float;
  seed : int;
}

(* Solve [c] inside [ws], writing diag(VVᵀ) into [x_diag] (length >= dim).
   Scalars (objective, max violation, outer rounds) land in the ws fields;
   the factor V stays readable in [ws.v] until the next solve.  Beyond the
   one evaluator closure and the workspace growth on first use, the solve
   does not allocate.  [?v0] seeds the factor iterate from a previous
   solve's flat V instead of the deterministic gaussian draw; it is used
   only when its length matches the flattened dimension exactly, so a
   stale warm factor from a differently-shaped leaf silently falls back
   to the cold start.

   With ranking groups, the loop also stops after round k >= 2 when the
   ranking equals round k-1's and the violation is within 100·feas_tol
   (see the ranked-exit section above); without groups it runs exactly the
   plain augmented-Lagrangian loop. *)
let solve_into ?v0 ws (c : compiled) ~(options : options) ~x_diag =
  if Array.length x_diag < c.dim then invalid_arg "Kernel.solve_into: x_diag too short";
  reserve ws ~n:c.n ~m:c.m;
  (match v0 with
  | Some v0 when Array.length v0 = c.n -> Array.blit v0 0 ws.v 0 c.n
  | _ ->
      (* one small RNG record per solve, for the deterministic cold start *)
      let rng = (Rng.create options.seed [@cpla.allow "alloc-in-kernel"]) in
      Rng.fill_gaussian rng ws.v ~n:c.n ~scale:0.3);
  Vec.fill_n c.m ws.y 0.0;
  let sigma = ref options.sigma0 in
  let fx_out = Lbfgs.Ws.fx_out ws.lbfgs in
  let eval v grad =
    (* the one range check the unchecked slab loops rely on *)
    if Array.length v < c.n || Array.length grad < c.n then
      invalid_arg "Kernel.solve_into: evaluator buffer shorter than dim*rank";
    Vec.fill_n c.n grad 0.0;
    let obj = inner_vvt_flat c.c_i c.c_j c.c_v 0 (Array.length c.c_v) v c.r in
    accumulate_grad_flat c.c_i c.c_j c.c_v 0 (Array.length c.c_v) v c.r 1.0 grad;
    let penalty = ref 0.0 in
    for k = 0 to c.m - 1 do
      let lo = c.a_off.(k) and hi = c.a_off.(k + 1) in
      let res = inner_vvt_flat c.a_i c.a_j c.a_v lo hi v c.r -. c.b.(k) in
      penalty := !penalty +. ((-.ws.y.(k)) *. res) +. (0.5 *. !sigma *. res *. res);
      let w = (!sigma *. res) -. ws.y.(k) in
      accumulate_grad_flat c.a_i c.a_j c.a_v lo hi v c.r w grad
    done;
    fx_out.(0) <- obj +. !penalty
  [@@cpla.allow "alloc-in-kernel"] (* the one evaluator closure per solve *)
  in
  let rounds = ref 0 in
  let prev_viol = ref infinity in
  let continue_ = ref true in
  ws.lbfgs_iters <- 0;
  ws.ranked_exit <- false;
  while !continue_ && !rounds < options.max_outer do
    Lbfgs.Ws.minimize ws.lbfgs ~n:c.n ~max_iter:options.inner_iters ~grad_tol:1e-7 ~eval
      ws.v;
    ws.lbfgs_iters <- ws.lbfgs_iters + Lbfgs.Ws.iterations ws.lbfgs;
    let viol = residuals c ws in
    (* multiplier update *)
    for k = 0 to c.m - 1 do
      ws.y.(k) <- ws.y.(k) -. (!sigma *. ws.res.(k))
    done;
    if viol > 0.25 *. !prev_viol then sigma := !sigma *. options.sigma_growth;
    prev_viol := viol;
    incr rounds;
    if viol <= options.feas_tol then continue_ := false
    else if c.ranked > 0 && !rounds < options.max_outer then begin
      let settled = ranking_settled c ws ~first:(!rounds = 1) in
      if settled && viol <= 100.0 *. options.feas_tol then begin
        continue_ := false;
        ws.ranked_exit <- true
      end
    end
  done;
  diag_vvt c ws.v x_diag;
  ws.objective <- inner_vvt_flat c.c_i c.c_j c.c_v 0 (Array.length c.c_v) ws.v c.r;
  (* V is unchanged since the last round's residuals *)
  ws.max_violation <- (if !rounds = 0 then residuals c ws else !prev_viol);
  ws.outer_rounds <- !rounds
[@@cpla.zero_alloc]

let dims c = (c.dim, c.r)

let v ws = ws.v
let objective ws = ws.objective
let max_violation ws = ws.max_violation
let outer_rounds ws = ws.outer_rounds
let lbfgs_iters ws = ws.lbfgs_iters
let ranked_exit ws = ws.ranked_exit
