(* Deeper property-based tests on the numerical substrates. *)

open Cpla_numeric

let random_psd rng n =
  let b = Mat.init n n (fun _ _ -> Cpla_util.Rng.gaussian rng) in
  let a = Mat.mul b (Mat.transpose b) in
  Mat.init n n (fun i j -> Mat.get a i j +. if i = j then float_of_int n else 0.0)

(* L-BFGS on a strongly convex quadratic must agree with the direct solve. *)
let lbfgs_vs_cholesky =
  QCheck.Test.make ~name:"lbfgs solves random PSD quadratics" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 2 6))
    (fun (seed, n) ->
      let rng = Cpla_util.Rng.create seed in
      let a = random_psd rng n in
      let b = Array.init n (fun _ -> Cpla_util.Rng.gaussian rng) in
      let x_direct = Cholesky.solve a b in
      let ws = Lbfgs.Ws.create () in
      let fx_out = Lbfgs.Ws.fx_out ws in
      (* f(x) = ½xᵀAx − bᵀx over the first [n] cells: trial points live in
         workspace buffers longer than [n] *)
      let eval x g =
        let fx = ref 0.0 in
        for i = 0 to n - 1 do
          let s = ref 0.0 in
          for j = 0 to n - 1 do
            s := !s +. (Mat.get a i j *. x.(j))
          done;
          g.(i) <- !s -. b.(i);
          fx := !fx +. (x.(i) *. ((0.5 *. !s) -. b.(i)))
        done;
        fx_out.(0) <- !fx
      in
      let x = Array.make n 0.0 in
      Lbfgs.Ws.minimize ws ~n ~max_iter:1000 ~grad_tol:1e-9 ~eval x;
      let err = Vec.norm_inf (Vec.sub x x_direct) in
      err < 1e-4)

(* The workspace minimiser promises the exact floating-point operation
   sequence of the list-based reference minimiser (test/lbfgs_reference.ml,
   still named [Lbfgs.minimize] in the case name): on the same objective it
   must return bitwise-equal iterates after the same number of iterations.
   The objective is computed by one shared routine over the first [n] cells,
   since the workspace evaluates at trial points held in buffers longer
   than [n]. *)
let lbfgs_ws_matches_minimize =
  QCheck.Test.make ~name:"Lbfgs.Ws.minimize = Lbfgs.minimize bitwise" ~count:60
    QCheck.(
      quad (int_range 1 100000) (int_range 1 12) (int_range 1 8)
        (pair (int_range 0 80) (int_range 0 2)))
    (fun (seed, n, memory, (max_iter, tol_k)) ->
      (* shrinking may step outside the generator ranges *)
      let n = max 1 n and memory = max 1 memory and max_iter = max 0 max_iter in
      let tol_k = max 0 (min 2 tol_k) in
      let rng = Cpla_util.Rng.create seed in
      let a = random_psd rng n in
      let b = Array.init n (fun _ -> Cpla_util.Rng.gaussian rng) in
      let x0 = Array.init n (fun _ -> Cpla_util.Rng.gaussian rng) in
      let grad_tol = [| 1e-3; 1e-6; 1e-12 |].(tol_k) in
      (* f(x) = ½xᵀAx − bᵀx into [g]; returns f *)
      let quad x g =
        let fx = ref 0.0 in
        for i = 0 to n - 1 do
          let s = ref 0.0 in
          for j = 0 to n - 1 do
            s := !s +. (Mat.get a i j *. x.(j))
          done;
          g.(i) <- !s -. b.(i);
          fx := !fx +. (x.(i) *. ((0.5 *. !s) -. b.(i)))
        done;
        !fx
      in
      let f x =
        let g = Array.make n 0.0 in
        let fx = quad x g in
        (fx, g)
      in
      let reference = Lbfgs_reference.minimize ~memory ~max_iter ~grad_tol ~f x0 in
      let ws = Lbfgs.Ws.create ~memory () in
      let fx_out = Lbfgs.Ws.fx_out ws in
      let x = Array.copy x0 in
      Lbfgs.Ws.minimize ws ~n ~max_iter ~grad_tol ~eval:(fun v g -> fx_out.(0) <- quad v g) x;
      let bits v = Int64.bits_of_float v in
      Array.for_all2 (fun p q -> Int64.equal (bits p) (bits q)) reference.Lbfgs_reference.x x
      && reference.Lbfgs_reference.iterations = Lbfgs.Ws.iterations ws)

(* Eigenvalues shift exactly under A + tI. *)
let eigen_shift =
  QCheck.Test.make ~name:"eigenvalues shift under diagonal offset" ~count:25
    QCheck.(pair (int_range 1 1000) (float_range 0.1 5.0))
    (fun (seed, t) ->
      let rng = Cpla_util.Rng.create seed in
      let n = 4 in
      let a = random_psd rng n in
      let shifted = Mat.init n n (fun i j -> Mat.get a i j +. if i = j then t else 0.0) in
      let w, _ = Eigen.decompose a in
      let ws, _ = Eigen.decompose shifted in
      Array.for_all2 (fun x y -> Float.abs (x +. t -. y) < 1e-7) w ws)

(* Eigenvalue sum equals the trace. *)
let eigen_trace =
  QCheck.Test.make ~name:"eigenvalue sum equals trace" ~count:25
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Cpla_util.Rng.create seed in
      let n = 5 in
      let a = random_psd rng n in
      let w, _ = Eigen.decompose a in
      let trace = ref 0.0 in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      Float.abs (Cpla_util.Stats.sum w -. !trace) < 1e-7 *. Float.max 1.0 !trace)

(* Adding a constraint can only worsen (raise) a minimisation optimum. *)
let simplex_constraint_monotonicity =
  QCheck.Test.make ~name:"extra constraints never lower the LP optimum" ~count:50
    QCheck.(
      quad (float_range (-3.0) 3.0) (float_range (-3.0) 3.0) (float_range 1.0 6.0)
        (float_range 0.5 4.0))
    (fun (c0, c1, b0, extra) ->
      let base =
        {
          Simplex.objective = [| c0; c1 |];
          rows =
            [|
              Simplex.dense [| 1.0; 1.0 |] Simplex.Le b0;
              Simplex.dense [| 1.0; 0.0 |] Simplex.Le b0;
              Simplex.dense [| 0.0; 1.0 |] Simplex.Le b0;
            |];
        }
      in
      let tightened =
        { base with Simplex.rows = Array.append base.Simplex.rows [| Simplex.dense [| 1.0; 1.0 |] Simplex.Le (Float.min b0 extra) |] }
      in
      match (Simplex.solve base, Simplex.solve tightened) with
      | Simplex.Optimal a, Simplex.Optimal b ->
          b.Simplex.objective >= a.Simplex.objective -. 1e-7
      | Simplex.Optimal _, Simplex.Infeasible -> true
      | _ -> false)

(* Scaling the objective scales the optimum. *)
let simplex_objective_scaling =
  QCheck.Test.make ~name:"LP optimum scales with the objective" ~count:50
    QCheck.(triple (float_range (-4.0) 4.0) (float_range (-4.0) 4.0) (float_range 0.5 5.0))
    (fun (c0, c1, k) ->
      let mk scale =
        {
          Simplex.objective = [| scale *. c0; scale *. c1 |];
          rows =
            [|
              Simplex.dense [| 1.0; 1.0 |] Simplex.Le 3.0;
              Simplex.dense [| 1.0; 0.0 |] Simplex.Le 2.0;
              Simplex.dense [| 0.0; 1.0 |] Simplex.Le 2.0;
            |];
        }
      in
      match (Simplex.solve (mk 1.0), Simplex.solve (mk k)) with
      | Simplex.Optimal a, Simplex.Optimal b ->
          Float.abs ((k *. a.Simplex.objective) -. b.Simplex.objective)
          < 1e-6 *. Float.max 1.0 (Float.abs b.Simplex.objective)
      | _ -> false)

(* Cholesky solve agrees with explicit residual. *)
let cholesky_residual =
  QCheck.Test.make ~name:"cholesky solve residual is tiny" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 1 8))
    (fun (seed, n) ->
      let rng = Cpla_util.Rng.create seed in
      let a = random_psd rng n in
      let b = Array.init n (fun _ -> Cpla_util.Rng.gaussian rng) in
      let x = Cholesky.solve a b in
      Vec.norm_inf (Vec.sub (Mat.mul_vec a x) b) < 1e-7 *. Float.max 1.0 (Vec.norm_inf b))

(* The SDP solver respects objective scaling too (sanity for the CPLA
   normalisation step). *)
let sdp_objective_scaling =
  QCheck.Test.make ~name:"SDP diag ranking invariant to objective scale" ~count:10
    QCheck.(pair (float_range 0.5 3.0) (float_range 10.0 1000.0))
    (fun (c, k) ->
      let e i j v = { Cpla_sdp.Problem.i; j; v } in
      let mk scale =
        Cpla_sdp.Problem.create ~dim:2
          ~cost:[ e 0 0 (scale *. c); e 1 1 (scale *. 2.0 *. c) ]
          ~constraints:[ { Cpla_sdp.Problem.terms = [ e 0 0 1.0; e 1 1 1.0 ]; b = 1.0 } ]
      in
      let r1 = Cpla_sdp.Solver.solve (mk 1.0) in
      let rk = Cpla_sdp.Solver.solve (mk (1.0 /. k)) in
      (* entry 0 is cheaper in both cases *)
      r1.Cpla_sdp.Solver.x_diag.(0) > r1.Cpla_sdp.Solver.x_diag.(1)
      && rk.Cpla_sdp.Solver.x_diag.(0) > rk.Cpla_sdp.Solver.x_diag.(1))

(* Random LP with small-integer data: coefficients in -2..2, half of them
   zero, and small rhs, so degenerate vertices and ratio-test ties are
   common; half the draws add box rows so that many are bounded.  Rows are
   dense, in the reference simplex's form.  With [~negative_le:false] no ≤
   row has a negative rhs: the reference gives such a row no artificial
   column (see [simplex_ws_history_free]). *)
let small_int_lp ?(negative_le = false) rng =
  let module R = Cpla_util.Rng in
  let n = R.int_in rng 1 6 and m = R.int_in rng 1 6 in
  let coef () = if R.bool rng then 0.0 else float_of_int (R.int_in rng (-2) 2) in
  let objective = Array.init n (fun _ -> coef ()) in
  let rows =
    List.init m (fun _ ->
        let rel = R.choose rng [| Simplex_reference.Le; Simplex_reference.Ge; Simplex_reference.Eq |] in
        let lo = if rel = Simplex_reference.Le && not negative_le then 0 else -2 in
        (Array.init n (fun _ -> coef ()), rel, float_of_int (R.int_in rng lo 4)))
  in
  let box =
    if R.bool rng then
      List.init n (fun i ->
          (Array.init n (fun j -> if i = j then 1.0 else 0.0), Simplex_reference.Le,
           float_of_int (R.int_in rng 1 3)))
    else []
  in
  (objective, rows @ box)

let to_relation = function
  | Simplex_reference.Le -> Simplex.Le
  | Simplex_reference.Ge -> Simplex.Ge
  | Simplex_reference.Eq -> Simplex.Eq

let sparse_rows rows = List.map (fun (c, rel, b) -> Simplex.dense c (to_relation rel) b) rows

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One workspace for every case, so the property also covers clearing
   the previous solve's supports. *)
let simplex_oracle_ws = Simplex.ws_create ()

(* The sparse simplex is the dense one bit for bit: same status, and at an
   optimum the same x and objective bits and the same pivot count. *)
let simplex_matches_dense_reference =
  QCheck.Test.make ~name:"sparse simplex matches the dense reference bitwise" ~count:1000
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Cpla_util.Rng.create seed in
      let objective, rows = small_int_lp rng in
      let n = Array.length objective in
      let fixes =
        List.init (Cpla_util.Rng.int rng 3) (fun _ ->
            (Cpla_util.Rng.int rng n, float_of_int (Cpla_util.Rng.int rng 3)))
      in
      let want = Simplex_reference.solve ~fixes { Simplex_reference.objective; rows = Array.of_list rows } in
      let got =
        Simplex.solve ~ws:simplex_oracle_ws ~fixes
          { Simplex.objective; rows = Array.of_list (sparse_rows rows) }
      in
      match (want, got) with
      | Simplex_reference.Optimal a, Simplex.Optimal b ->
          Array.length a.Simplex_reference.x = Array.length b.Simplex.x
          && Array.for_all2 same_bits a.Simplex_reference.x b.Simplex.x
          && same_bits a.Simplex_reference.objective b.Simplex.objective
          && a.Simplex_reference.iterations = b.Simplex.iterations
      | Simplex_reference.Infeasible, Simplex.Infeasible
      | Simplex_reference.Unbounded, Simplex.Unbounded
      | Simplex_reference.Iteration_limit, Simplex.Iteration_limit -> true
      | _ -> false)

(* A ≤ row with a negative rhs is negated into a ≥ row and needs an
   artificial column.  The reference counted artificials before negating,
   so that row's artificial landed in column [ncols], outside every loop,
   and its phase-1 cost was read from whatever an earlier solve left in the
   workspace: results depended on the workspace's history, and an
   "optimal" x could be negative.  Now a solve on a used workspace equals a
   fresh solve bit for bit, and an optimum is feasible. *)
let simplex_ws_history_free =
  QCheck.Test.make ~name:"simplex results do not depend on workspace history" ~count:1000
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Cpla_util.Rng.create seed in
      let objective, rows = small_int_lp ~negative_le:true rng in
      let p = { Simplex.objective; rows = Array.of_list (sparse_rows rows) } in
      let fresh = Simplex.solve p and reused = Simplex.solve ~ws:simplex_oracle_ws p in
      match (fresh, reused) with
      | Simplex.Optimal a, Simplex.Optimal b ->
          Array.for_all2 same_bits a.Simplex.x b.Simplex.x
          && same_bits a.Simplex.objective b.Simplex.objective
          && a.Simplex.iterations = b.Simplex.iterations
          && Simplex.feasible p a.Simplex.x
      | a, b -> a = b)

let suite =
  [
    QCheck_alcotest.to_alcotest lbfgs_vs_cholesky;
    QCheck_alcotest.to_alcotest lbfgs_ws_matches_minimize;
    QCheck_alcotest.to_alcotest eigen_shift;
    QCheck_alcotest.to_alcotest eigen_trace;
    QCheck_alcotest.to_alcotest simplex_constraint_monotonicity;
    QCheck_alcotest.to_alcotest simplex_objective_scaling;
    QCheck_alcotest.to_alcotest cholesky_residual;
    QCheck_alcotest.to_alcotest sdp_objective_scaling;
    QCheck_alcotest.to_alcotest simplex_matches_dense_reference;
    QCheck_alcotest.to_alcotest simplex_ws_history_free;
  ]
