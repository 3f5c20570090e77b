(* Reference LP and branch-and-bound: the dense two-phase simplex that
   Cpla_numeric.Simplex's sparse pivot and row supports replaced, kept
   verbatim (minus its lint annotations), followed by the dense-row
   Cpla_ilp.Model/Solver pair that drove it.  The sparse solver skips only
   terms that multiply an exact zero, so on every problem it must return
   this simplex's status, x, objective and pivot count bit for bit, and the
   branch-and-bound on top of it the same incumbent, node count and
   optimality flag. *)
type relation = Le | Ge | Eq

type problem = {
  objective : float array;
  rows : (float array * relation * float) array;
}

type solution = { x : float array; objective : float; iterations : int }

type status = Optimal of solution | Infeasible | Unbounded | Iteration_limit

let eps = 1e-9

(* The tableau keeps B⁻¹A in [t] (m rows, [ncols] columns) with the rhs in
   [rhs]; [basis.(i)] is the column basic in row i.  Columns are laid out as
   structural variables, then slack/surplus, then artificials.

   All row/column storage lives in a reusable workspace whose capacity may
   exceed the live tableau: every loop is bounded by [m]/[ncols], never by
   array length, so oversized buffers are invisible to the arithmetic. *)
type tableau = {
  m : int;
  ncols : int;
  t : float array array;
  rhs : float array;
  basis : int array;
  artificial_from : int; (* columns >= this are artificial *)
}

(* Workspace: tableau storage plus the per-iteration scratch (reduced
   costs, basis costs, phase cost vectors, blocked flags) that a fresh
   solve used to allocate per call — and the reduced-cost pass used to
   allocate per *pivot*.  One workspace per domain; solves on it are
   bitwise-identical to solves on a fresh one. *)
type ws = {
  mutable cap_m : int;
  mutable cap_cols : int;
  mutable wt : float array array;
  mutable wrhs : float array;
  mutable wbasis : int array;
  mutable c1 : float array;      (* phase-1 cost *)
  mutable c2 : float array;      (* phase-2 cost *)
  mutable blocked : bool array;
  mutable rc : float array;      (* reduced-cost scratch *)
  mutable cb : float array;      (* basis-cost scratch *)
}

let ws_create () =
  {
    cap_m = 0;
    cap_cols = 0;
    wt = [||];
    wrhs = [||];
    wbasis = [||];
    c1 = [||];
    c2 = [||];
    blocked = [||];
    rc = [||];
    cb = [||];
  }

let ws_reserve ws ~m ~ncols =
  if ncols > ws.cap_cols then begin
    let cap = max ncols (max 32 (2 * ws.cap_cols)) in
    (* existing rows keep their (smaller) width until re-made below *)
    ws.c1 <- Array.make cap 0.0;
    ws.c2 <- Array.make cap 0.0;
    ws.blocked <- Array.make cap false;
    ws.rc <- Array.make cap 0.0;
    ws.cap_cols <- cap;
    (* widen already-allocated rows so every live row has full capacity *)
    Array.iteri (fun i _ -> ws.wt.(i) <- Array.make cap 0.0) ws.wt
  end;
  if m > ws.cap_m then begin
    let cap = max m (max 16 (2 * ws.cap_m)) in
    let old = ws.wt in
    ws.wt <- Array.init cap (fun i -> if i < Array.length old then old.(i) else Array.make ws.cap_cols 0.0);
    ws.wrhs <- Array.make cap 0.0;
    ws.wbasis <- Array.make cap 0;
    ws.cb <- Array.make cap 0.0;
    ws.cap_m <- cap
  end

(* Build the tableau for [problem] plus equality rows [x_i = v] for each
   [(i, v)] in [fixes] (appended after the problem rows, in list order —
   the branch-and-bound fixing rows, written directly instead of being
   materialised as dense coefficient rows). *)
let build_into ws (problem : problem) ~(fixes : (int * float) list) =
  let n = Array.length problem.objective in
  Array.iter
    (fun (coeffs, _, _) ->
      if Array.length coeffs <> n then invalid_arg "Simplex.solve: ragged row")
    problem.rows;
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= n then invalid_arg "Simplex.solve: fix out of range";
      if v < 0.0 then invalid_arg "Simplex.solve: fix must be non-negative")
    fixes;
  let nfix = List.length fixes in
  let m = Array.length problem.rows + nfix in
  let n_slack =
    Array.fold_left
      (fun a (_, rel, _) -> match rel with Eq -> a | Le | Ge -> a + 1)
      0 problem.rows
  in
  let n_art =
    Array.fold_left
      (fun a (_, rel, _) -> match rel with Le -> a | Ge | Eq -> a + 1)
      0 problem.rows
    + nfix
  in
  let ncols = n + n_slack + n_art in
  ws_reserve ws ~m ~ncols;
  let t = ws.wt and rhs = ws.wrhs and basis = ws.wbasis in
  for i = 0 to m - 1 do
    Array.fill t.(i) 0 ncols 0.0
  done;
  let slack = ref n and art = ref (n + n_slack) in
  Array.iteri
    (fun i (coeffs, rel, b) ->
      (* normalise to non-negative rhs *)
      let rel =
        if b < 0.0 then begin
          for j = 0 to n - 1 do
            t.(i).(j) <- -.coeffs.(j)
          done;
          rhs.(i) <- -.b;
          match rel with Le -> Ge | Ge -> Le | Eq -> Eq
        end
        else begin
          Array.blit coeffs 0 t.(i) 0 n;
          rhs.(i) <- b;
          rel
        end
      in
      match rel with
      | Le ->
          t.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.(i).(!slack) <- -1.0;
          incr slack;
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art
      | Eq ->
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art)
    problem.rows;
  List.iteri
    (fun k (col, v) ->
      let i = Array.length problem.rows + k in
      t.(i).(col) <- 1.0;
      rhs.(i) <- v;
      t.(i).(!art) <- 1.0;
      basis.(i) <- !art;
      incr art)
    fixes;
  { m; ncols; t; rhs; basis; artificial_from = n + n_slack }

let pivot tab ~row ~col =
  let p = tab.t.(row).(col) in
  let trow = tab.t.(row) in
  let inv = 1.0 /. p in
  for j = 0 to tab.ncols - 1 do
    trow.(j) <- trow.(j) *. inv
  done;
  tab.rhs.(row) <- tab.rhs.(row) *. inv;
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let factor = tab.t.(i).(col) in
      if Float.abs factor > 0.0 then begin
        let ti = tab.t.(i) in
        for j = 0 to tab.ncols - 1 do
          ti.(j) <- ti.(j) -. (factor *. trow.(j))
        done;
        tab.rhs.(i) <- tab.rhs.(i) -. (factor *. tab.rhs.(row))
      end
    end
  done;
  tab.basis.(row) <- col

(* Reduced costs for cost vector [c] (first ncols cells) under the current
   basis, into the workspace scratch: c̄_j = c_j − Σ_i c_{B(i)} · t_{ij}. *)
let reduced_costs ws tab c =
  let cb = ws.cb and rc = ws.rc in
  for i = 0 to tab.m - 1 do
    cb.(i) <- c.(tab.basis.(i))
  done;
  Array.blit c 0 rc 0 tab.ncols;
  for i = 0 to tab.m - 1 do
    let cbi = cb.(i) in
    if Float.abs cbi > 0.0 then begin
      let ti = tab.t.(i) in
      for j = 0 to tab.ncols - 1 do
        rc.(j) <- rc.(j) -. (cbi *. ti.(j))
      done
    end
  done;
  rc

let objective_value tab c =
  let acc = ref 0.0 in
  for i = 0 to tab.m - 1 do
    acc := !acc +. (c.(tab.basis.(i)) *. tab.rhs.(i))
  done;
  !acc

(* Run simplex iterations on cost vector [c]; [blocked.(j)] columns may not
   enter the basis.  Returns [`Optimal], [`Unbounded] or [`Limit]. *)
let iterate ws tab c blocked pivots max_pivots =
  let degenerate_run = ref 0 in
  (* constant polymorphic variants are immediate, so flipping the state
     never allocates (an option would box [Some] per transition) *)
  let result = ref `Running in
  while !result = `Running do
    if !pivots >= max_pivots then result := `Limit
    else begin
      let rc = reduced_costs ws tab c in
      (* Entering column: Dantzig (most negative) normally, Bland (first
         negative) once degeneracy persists, to guarantee termination. *)
      let enter = ref (-1) in
      if !degenerate_run > 2 * tab.m then begin
        (try
           for j = 0 to tab.ncols - 1 do
             if (not blocked.(j)) && rc.(j) < -.eps then begin
               enter := j;
               raise Exit
             end
           done
         with Exit -> ())
      end
      else begin
        let best = ref (-.eps) in
        for j = 0 to tab.ncols - 1 do
          if (not blocked.(j)) && rc.(j) < !best then begin
            best := rc.(j);
            enter := j
          end
        done
      end;
      if !enter < 0 then result := `Optimal
      else begin
        let col = !enter in
        let leave = ref (-1) and best_ratio = ref infinity in
        for i = 0 to tab.m - 1 do
          let a = tab.t.(i).(col) in
          if a > eps then begin
            let ratio = tab.rhs.(i) /. a in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps && (!leave < 0 || tab.basis.(i) < tab.basis.(!leave)))
            then begin
              best_ratio := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then result := `Unbounded
        else begin
          if !best_ratio < eps then incr degenerate_run else degenerate_run := 0;
          pivot tab ~row:!leave ~col;
          incr pivots
        end
      end
    end
  done;
  match !result with
  | `Running -> assert false
  | (`Optimal | `Unbounded | `Limit) as r -> r

let extract tab n =
  let x = Array.make n 0.0 in
  for i = 0 to tab.m - 1 do
    if tab.basis.(i) < n then x.(tab.basis.(i)) <- tab.rhs.(i)
  done;
  x

let solve ?ws ?(max_pivots = 20000) ?(fixes = []) (problem : problem) =
  let ws = match ws with Some w -> w | None -> ws_create () in
  let n = Array.length problem.objective in
  let tab = build_into ws problem ~fixes in
  let pivots = ref 0 in
  let blocked = ws.blocked in
  Array.fill blocked 0 tab.ncols false;
  (* Phase 1: minimise the sum of artificials. *)
  let phase1_cost = ws.c1 in
  Array.fill phase1_cost 0 tab.ncols 0.0;
  for j = tab.artificial_from to tab.ncols - 1 do
    phase1_cost.(j) <- 1.0
  done;
  let has_artificials = tab.artificial_from < tab.ncols in
  let phase1 =
    if has_artificials then iterate ws tab phase1_cost blocked pivots max_pivots
    else `Optimal
  in
  match phase1 with
  | `Limit -> Iteration_limit
  | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
  | `Optimal ->
      if has_artificials && objective_value tab phase1_cost > 1e-6 then Infeasible
      else begin
        (* Drive any artificial still basic (at zero) out of the basis. *)
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.artificial_from then begin
            let found = ref (-1) in
            (try
               for j = 0 to tab.artificial_from - 1 do
                 if Float.abs tab.t.(i).(j) > eps then begin
                   found := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then pivot tab ~row:i ~col:!found
            (* else: redundant row; the artificial stays basic at zero and is
               blocked from moving, which is harmless. *)
          end
        done;
        for j = tab.artificial_from to tab.ncols - 1 do
          blocked.(j) <- true
        done;
        let phase2_cost = ws.c2 in
        Array.fill phase2_cost 0 tab.ncols 0.0;
        Array.blit problem.objective 0 phase2_cost 0 n;
        match iterate ws tab phase2_cost blocked pivots max_pivots with
        | `Limit -> Iteration_limit
        | `Unbounded -> Unbounded
        | `Optimal ->
            let x = extract tab n in
            Optimal { x; objective = objective_value tab phase2_cost; iterations = !pivots }
      end

let feasible ?(tol = 1e-6) (problem : problem) x =
  Array.length x = Array.length problem.objective
  && Array.for_all (fun v -> v >= -.tol) x
  && Array.for_all
       (fun (coeffs, rel, b) ->
         let lhs = ref 0.0 in
         Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
         match rel with
         | Le -> !lhs <= b +. tol
         | Ge -> !lhs >= b -. tol
         | Eq -> Float.abs (!lhs -. b) <= tol)
       problem.rows

(* The dense-row 0/1 model and its branch-and-bound, over the simplex
   above. *)
module Model = struct
  type t = {
    objective : float array;
    rows : (float array * relation * float) array;
    binary : bool array;
  }

  let create ~objective ~rows ~binary =
    let n = Array.length objective in
    if Array.length binary <> n then invalid_arg "Model.create: binary flags length mismatch";
    List.iter
      (fun (coeffs, _, _) ->
        if Array.length coeffs <> n then invalid_arg "Model.create: ragged row")
      rows;
    { objective; rows = Array.of_list rows; binary }

  let num_vars t = Array.length t.objective

  let relaxation t =
    let n = num_vars t in
    let bound_rows =
      Array.to_list t.binary
      |> List.mapi (fun i b -> (i, b))
      |> List.filter_map (fun (i, b) ->
             if b then begin
               let row = Array.make n 0.0 in
               row.(i) <- 1.0;
               Some (row, Le, 1.0)
             end
             else None)
    in
    { objective = t.objective; rows = Array.append t.rows (Array.of_list bound_rows) }

  let value t x =
    let acc = ref 0.0 in
    Array.iteri (fun i c -> acc := !acc +. (c *. x.(i))) t.objective;
    !acc

  let integral ?(tol = 1e-6) t x =
    let ok = ref true in
    Array.iteri
      (fun i b ->
        if b then begin
          let v = x.(i) in
          if Float.abs (v -. Float.round v) > tol then ok := false
        end)
      t.binary;
    !ok

  let check ?(tol = 1e-6) t x = integral ~tol t x && feasible ~tol (relaxation t) x
end

module Bnb = struct
  type options = { max_nodes : int; time_limit_s : float; gap_tol : float }

  let default_options = { max_nodes = 5000; time_limit_s = 30.0; gap_tol = 1e-6 }

  type outcome = {
    x : float array;
    objective : float;
    proven_optimal : bool;
    nodes_explored : int;
  }

  let most_fractional model x fixes =
    let fixed = List.map fst fixes in
    let best = ref (-1) and best_frac = ref 0.0 in
    Array.iteri
      (fun i b ->
        if b && not (List.mem i fixed) then begin
          let f = Float.abs (x.(i) -. Float.round x.(i)) in
          if f > !best_frac +. 1e-9 then begin
            best_frac := f;
            best := i
          end
        end)
      model.Model.binary;
    if !best_frac > 1e-6 then Some !best else None

  let rounded_into model x dst =
    Array.iteri
      (fun i v ->
        dst.(i) <- (if model.Model.binary.(i) then Float.round v else Float.max 0.0 v))
      x

  let solve ?(options = default_options) ?ws model =
    let ws = match ws with Some w -> w | None -> ws_create () in
    let n = Model.num_vars model in
    let base = Model.relaxation model in
    let rounded_scratch = Array.make n 0.0 in
    let incumbent = ref None in
    let incumbent_obj = ref infinity in
    let nodes = ref 0 in
    let start = Cpla_util.Timer.wall () in
    let proven = ref true in
    let budget_left () =
      !nodes < options.max_nodes && Cpla_util.Timer.elapsed_s start < options.time_limit_s
    in
    let offer x =
      if Model.check model x then begin
        let obj = Model.value model x in
        if obj < !incumbent_obj then begin
          incumbent_obj := obj;
          incumbent := Some (Array.copy x)
        end
      end
    in
    let stack = Stack.create () in
    Stack.push [] stack;
    while not (Stack.is_empty stack) do
      if not (budget_left ()) then begin
        proven := false;
        Stack.clear stack
      end
      else begin
        let fixes = Stack.pop stack in
        incr nodes;
        match solve ~ws ~fixes base with
        | Infeasible -> ()
        | Unbounded -> ()
        | Iteration_limit -> proven := false
        | Optimal sol ->
            if sol.objective >= !incumbent_obj -. options.gap_tol then ()
            else begin
              rounded_into model sol.x rounded_scratch;
              offer rounded_scratch;
              match most_fractional model sol.x fixes with
              | None -> offer sol.x
              | Some i ->
                  let v = sol.x.(i) in
                  let first = Float.round v in
                  let second = 1.0 -. first in
                  Stack.push ((i, second) :: fixes) stack;
                  Stack.push ((i, first) :: fixes) stack
            end
      end
    done;
    match !incumbent with
    | None -> None
    | Some x ->
        Some { x; objective = !incumbent_obj; proven_optimal = !proven; nodes_explored = !nodes }
end
