open Cpla_numeric

let check_float = Alcotest.(check (float 1e-6))

(* ---- Vec ---------------------------------------------------------------- *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: length mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 [| 3.0; 4.0 |] y;
  check_float "axpy0" 7.0 y.(0);
  check_float "axpy1" 9.0 y.(1)

let test_vec_norms () =
  check_float "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Vec.norm_inf [| 3.0; -4.0 |])

(* ---- Mat ---------------------------------------------------------------- *)

let test_mat_mul () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  let b = Mat.init 3 2 (fun i j -> float_of_int ((i * 2) + j + 1)) in
  let c = Mat.mul a b in
  check_float "c00" 22.0 (Mat.get c 0 0);
  check_float "c01" 28.0 (Mat.get c 0 1);
  check_float "c10" 49.0 (Mat.get c 1 0);
  check_float "c11" 64.0 (Mat.get c 1 1)

let test_mat_identity_mul () =
  let a = Mat.init 4 4 (fun i j -> float_of_int (i - j)) in
  let c = Mat.mul a (Mat.identity 4) in
  Alcotest.(check bool) "a·I = a" true
    (Array.for_all2 (fun r1 r2 -> r1 = r2) a.Mat.data c.Mat.data)

let test_mat_transpose_vec () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let x = [| 1.0; 2.0 |] in
  let y = Mat.mul_tvec a x in
  let at = Mat.transpose a in
  let y' = Mat.mul_vec at x in
  Alcotest.(check bool) "aᵀx agreement" true (y = y')

let test_mat_symmetrize () =
  let a = Mat.init 3 3 (fun i j -> float_of_int ((i * 3) + j)) in
  Mat.symmetrize a;
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric a)

(* ---- Cholesky ------------------------------------------------------------ *)

let random_psd rng n =
  let b = Mat.init n n (fun _ _ -> Cpla_util.Rng.gaussian rng) in
  let bt = Mat.transpose b in
  let a = Mat.mul b bt in
  (* add n·I to be safely positive definite *)
  Mat.init n n (fun i j -> Mat.get a i j +. if i = j then float_of_int n else 0.0)

let test_cholesky_roundtrip () =
  let rng = Cpla_util.Rng.create 3 in
  for n = 1 to 8 do
    let a = random_psd rng n in
    let l = Cholesky.factor a in
    let llt = Mat.mul l (Mat.transpose l) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Alcotest.(check (float 1e-8))
          (Printf.sprintf "llt(%d,%d)" i j)
          (Mat.get a i j) (Mat.get llt i j)
      done
    done
  done

let test_cholesky_solve () =
  let rng = Cpla_util.Rng.create 5 in
  let a = random_psd rng 6 in
  let x_true = Array.init 6 (fun i -> float_of_int i -. 2.5) in
  let b = Mat.mul_vec a x_true in
  let x = Cholesky.solve a b in
  Array.iteri (fun i v -> Alcotest.(check (float 1e-7)) "solve" x_true.(i) v) x

let test_cholesky_not_pd () =
  let a = Mat.init 2 2 (fun i j -> if i = j then -1.0 else 0.0) in
  Alcotest.(check bool) "not psd" false (Cholesky.is_psd a);
  Alcotest.(check bool) "raise" true
    (match Cholesky.factor a with
    | exception Cholesky.Not_positive_definite _ -> true
    | _ -> false)

let test_is_psd_boundary () =
  (* rank-deficient PSD matrix passes is_psd thanks to the shift *)
  let a = Mat.init 2 2 (fun _ _ -> 1.0) in
  Alcotest.(check bool) "rank-1 psd" true (Cholesky.is_psd a)

(* ---- Eigen ---------------------------------------------------------------- *)

let test_eigen_diag () =
  let a = Mat.init 3 3 (fun i j -> if i = j then float_of_int (3 - i) else 0.0) in
  let w, _ = Eigen.decompose a in
  check_float "w0" 1.0 w.(0);
  check_float "w1" 2.0 w.(1);
  check_float "w2" 3.0 w.(2)

let test_eigen_reconstruct () =
  let rng = Cpla_util.Rng.create 11 in
  let a = random_psd rng 6 in
  let w, v = Eigen.decompose a in
  (* a = v diag(w) vᵀ *)
  let n = 6 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (Mat.get v i k *. w.(k) *. Mat.get v j k)
      done;
      Alcotest.(check (float 1e-6)) "reconstruct" (Mat.get a i j) !acc
    done
  done

let test_eigen_orthonormal () =
  let rng = Cpla_util.Rng.create 13 in
  let a = random_psd rng 5 in
  let _, v = Eigen.decompose a in
  let vtv = Mat.mul (Mat.transpose v) v in
  for i = 0 to 4 do
    for j = 0 to 4 do
      Alcotest.(check (float 1e-8)) "vᵀv = I"
        (if i = j then 1.0 else 0.0)
        (Mat.get vtv i j)
    done
  done

let test_project_psd () =
  let a = Mat.init 2 2 (fun i j -> if i = j then -1.0 else 0.0) in
  let p = Eigen.project_psd a in
  Alcotest.(check bool) "projected is psd" true (Cholesky.is_psd p);
  check_float "clipped to zero" 0.0 (Mat.get p 0 0)

let test_min_eigenvalue () =
  let a = Mat.init 2 2 (fun i j -> if i = j then 2.0 else 1.0) in
  check_float "min eig" 1.0 (Eigen.min_eigenvalue a)

(* ---- L-BFGS --------------------------------------------------------------- *)

(* [Lbfgs.Ws.minimize] from [x0] on a fresh workspace; [eval] writes the
   objective into the returned cell and the gradient into its second
   argument.  Returns the minimiser and the workspace. *)
let ws_minimize ?max_iter ~eval x0 =
  let ws = Lbfgs.Ws.create () in
  let x = Array.copy x0 in
  Lbfgs.Ws.minimize ws ~n:(Array.length x) ?max_iter ~eval:(eval (Lbfgs.Ws.fx_out ws)) x;
  (x, ws)

let test_lbfgs_quadratic () =
  (* minimise (x-3)² + 2(y+1)² *)
  let eval fx_out v g =
    let x = v.(0) and y = v.(1) in
    fx_out.(0) <- ((x -. 3.0) ** 2.0) +. (2.0 *. ((y +. 1.0) ** 2.0));
    g.(0) <- 2.0 *. (x -. 3.0);
    g.(1) <- 4.0 *. (y +. 1.0)
  in
  let x, ws = ws_minimize ~eval [| 0.0; 0.0 |] in
  let g = Array.make 2 0.0 in
  eval (Array.make 1 0.0) x g;
  Alcotest.(check bool) "converged" true
    (Vec.norm_inf g <= 1e-6 && Lbfgs.Ws.iterations ws < 500);
  Alcotest.(check (float 1e-4)) "x" 3.0 x.(0);
  Alcotest.(check (float 1e-4)) "y" (-1.0) x.(1)

let test_lbfgs_rosenbrock () =
  let eval fx_out v g =
    let x = v.(0) and y = v.(1) in
    fx_out.(0) <- (100.0 *. ((y -. (x *. x)) ** 2.0)) +. ((1.0 -. x) ** 2.0);
    g.(0) <- (-400.0 *. x *. (y -. (x *. x))) -. (2.0 *. (1.0 -. x));
    g.(1) <- 200.0 *. (y -. (x *. x))
  in
  let x, _ = ws_minimize ~max_iter:2000 ~eval [| -1.2; 1.0 |] in
  Alcotest.(check (float 1e-3)) "rosenbrock x" 1.0 x.(0);
  Alcotest.(check (float 1e-3)) "rosenbrock y" 1.0 x.(1)

(* ---- Simplex --------------------------------------------------------------- *)

let lp objective rows =
  {
    Simplex.objective;
    rows = Array.of_list (List.map (fun (coeffs, rel, b) -> Simplex.dense coeffs rel b) rows);
  }

let test_simplex_basic () =
  (* max x+y s.t. x+2y<=4, 3x+y<=6  => min -(x+y); optimum at (1.6,1.2) = 2.8 *)
  let p =
    lp [| -1.0; -1.0 |]
      [ ([| 1.0; 2.0 |], Simplex.Le, 4.0); ([| 3.0; 1.0 |], Simplex.Le, 6.0) ]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      Alcotest.(check (float 1e-7)) "objective" (-2.8) sol.Simplex.objective;
      Alcotest.(check (float 1e-7)) "x" 1.6 sol.Simplex.x.(0);
      Alcotest.(check (float 1e-7)) "y" 1.2 sol.Simplex.x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  (* min x+y s.t. x+y = 2, x<=1.5  => any point on segment; objective 2 *)
  let p =
    lp [| 1.0; 1.0 |]
      [ ([| 1.0; 1.0 |], Simplex.Eq, 2.0); ([| 1.0; 0.0 |], Simplex.Le, 1.5) ]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol -> Alcotest.(check (float 1e-7)) "objective" 2.0 sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_ge () =
  (* min 2x+3y s.t. x+y >= 4, x >= 1 => optimum (4,0) = 8 *)
  let p =
    lp [| 2.0; 3.0 |]
      [ ([| 1.0; 1.0 |], Simplex.Ge, 4.0); ([| 1.0; 0.0 |], Simplex.Ge, 1.0) ]
  in
  match Simplex.solve p with
  | Simplex.Optimal sol ->
      Alcotest.(check (float 1e-7)) "objective" 8.0 sol.Simplex.objective;
      Alcotest.(check (float 1e-7)) "x" 4.0 sol.Simplex.x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let p =
    lp [| 1.0 |] [ ([| 1.0 |], Simplex.Ge, 5.0); ([| 1.0 |], Simplex.Le, 1.0) ]
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let p = lp [| -1.0 |] [ ([| -1.0 |], Simplex.Le, 0.0) ] in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* min x s.t. -x <= -3 (i.e. x >= 3) *)
  let p = lp [| 1.0 |] [ ([| -1.0 |], Simplex.Le, -3.0) ] in
  match Simplex.solve p with
  | Simplex.Optimal sol -> Alcotest.(check (float 1e-7)) "x" 3.0 sol.Simplex.x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_feasible_check () =
  let p =
    lp [| 1.0; 1.0 |] [ ([| 1.0; 1.0 |], Simplex.Le, 2.0) ]
  in
  Alcotest.(check bool) "inside" true (Simplex.feasible p [| 0.5; 0.5 |]);
  Alcotest.(check bool) "outside" false (Simplex.feasible p [| 2.0; 1.0 |]);
  Alcotest.(check bool) "negative" false (Simplex.feasible p [| -1.0; 0.0 |])

(* Property: simplex optimum matches brute-force vertex enumeration on small
   random 2-variable LPs with box + one coupling constraint. *)
let test_simplex_vs_grid =
  QCheck.Test.make ~name:"simplex beats any grid point" ~count:100
    QCheck.(
      quad (float_range (-5.0) 5.0) (float_range (-5.0) 5.0) (float_range 1.0 8.0)
        (float_range 1.0 8.0))
    (fun (c0, c1, b0, b1) ->
      let p =
        lp [| c0; c1 |]
          [
            ([| 1.0; 0.0 |], Simplex.Le, b0);
            ([| 0.0; 1.0 |], Simplex.Le, b1);
            ([| 1.0; 1.0 |], Simplex.Le, Float.max b0 b1);
          ]
      in
      match Simplex.solve p with
      | Simplex.Optimal sol ->
          (* sample a grid of feasible points; none may beat the optimum *)
          let beaten = ref false in
          for i = 0 to 20 do
            for j = 0 to 20 do
              let x = float_of_int i /. 20.0 *. b0 and y = float_of_int j /. 20.0 *. b1 in
              if x +. y <= Float.max b0 b1 +. 1e-9 then begin
                let v = (c0 *. x) +. (c1 *. y) in
                if v < sol.Simplex.objective -. 1e-6 then beaten := true
              end
            done
          done;
          (not !beaten) && Simplex.feasible p sol.Simplex.x
      | _ -> false)

let suite =
  [
    Alcotest.test_case "vec dot" `Quick test_vec_dot;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "mat mul" `Quick test_mat_mul;
    Alcotest.test_case "mat identity" `Quick test_mat_identity_mul;
    Alcotest.test_case "mat transpose/vec" `Quick test_mat_transpose_vec;
    Alcotest.test_case "mat symmetrize" `Quick test_mat_symmetrize;
    Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
    Alcotest.test_case "cholesky solve" `Quick test_cholesky_solve;
    Alcotest.test_case "cholesky rejects indefinite" `Quick test_cholesky_not_pd;
    Alcotest.test_case "is_psd boundary" `Quick test_is_psd_boundary;
    Alcotest.test_case "eigen diagonal" `Quick test_eigen_diag;
    Alcotest.test_case "eigen reconstruct" `Quick test_eigen_reconstruct;
    Alcotest.test_case "eigen orthonormal" `Quick test_eigen_orthonormal;
    Alcotest.test_case "project psd" `Quick test_project_psd;
    Alcotest.test_case "min eigenvalue" `Quick test_min_eigenvalue;
    Alcotest.test_case "lbfgs quadratic" `Quick test_lbfgs_quadratic;
    Alcotest.test_case "lbfgs rosenbrock" `Quick test_lbfgs_rosenbrock;
    Alcotest.test_case "simplex basic" `Quick test_simplex_basic;
    Alcotest.test_case "simplex equality" `Quick test_simplex_equality;
    Alcotest.test_case "simplex ge" `Quick test_simplex_ge;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
    Alcotest.test_case "simplex feasibility check" `Quick test_simplex_feasible_check;
    QCheck_alcotest.to_alcotest test_simplex_vs_grid;
  ]
