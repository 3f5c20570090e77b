open Cpla_numeric
open Cpla_ilp

let mk objective rows binary =
  Model.create ~objective
    ~rows:(List.map (fun (coeffs, rel, b) -> Simplex.dense coeffs rel b) rows)
    ~binary

let test_knapsack () =
  (* max 5a+4b+3c s.t. 2a+3b+c <= 5, binary => a=1,c=1 (b=1 too? 2+3+1=6>5;
     a+c = 3 weight, value 8; a+b = 5 weight, value 9 <- optimum) *)
  let m =
    mk [| -5.0; -4.0; -3.0 |]
      [ ([| 2.0; 3.0; 1.0 |], Simplex.Le, 5.0) ]
      [| true; true; true |]
  in
  match Solver.solve m with
  | Some o ->
      Alcotest.(check (float 1e-6)) "objective" (-9.0) o.Solver.objective;
      Alcotest.(check bool) "optimal" true o.Solver.proven_optimal
  | None -> Alcotest.fail "expected a solution"

let test_assignment_problem () =
  (* 2 items, 2 slots, costs: c(0,0)=1 c(0,1)=5 c(1,0)=4 c(1,1)=2;
     each item exactly one slot, each slot at most one item. *)
  let m =
    mk
      [| 1.0; 5.0; 4.0; 2.0 |]
      [
        ([| 1.0; 1.0; 0.0; 0.0 |], Simplex.Eq, 1.0);
        ([| 0.0; 0.0; 1.0; 1.0 |], Simplex.Eq, 1.0);
        ([| 1.0; 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
        ([| 0.0; 1.0; 0.0; 1.0 |], Simplex.Le, 1.0);
      ]
      [| true; true; true; true |]
  in
  match Solver.solve m with
  | Some o ->
      Alcotest.(check (float 1e-6)) "objective" 3.0 o.Solver.objective;
      Alcotest.(check (float 1e-6)) "x00" 1.0 o.Solver.x.(0);
      Alcotest.(check (float 1e-6)) "x11" 1.0 o.Solver.x.(3)
  | None -> Alcotest.fail "expected a solution"

let test_infeasible () =
  let m =
    mk [| 1.0 |]
      [ ([| 1.0 |], Simplex.Ge, 2.0) ]
      [| true |]
  in
  Alcotest.(check bool) "no solution" true (Solver.solve m = None)

let test_mixed_continuous () =
  (* min x + 10 v  s.t. x + v >= 1.5, x binary, v continuous >= 0.
     x=1 leaves v=0.5 -> 6; x=0 needs v=1.5 -> 15.  Optimum 6. *)
  let m =
    mk [| 1.0; 10.0 |]
      [ ([| 1.0; 1.0 |], Simplex.Ge, 1.5) ]
      [| true; false |]
  in
  match Solver.solve m with
  | Some o ->
      Alcotest.(check (float 1e-6)) "objective" 6.0 o.Solver.objective;
      Alcotest.(check (float 1e-6)) "x binary 1" 1.0 o.Solver.x.(0)
  | None -> Alcotest.fail "expected a solution"

let test_relaxation_bound () =
  (* LP bound must never exceed ILP optimum (minimisation). *)
  let m =
    mk [| -3.0; -2.0 |]
      [ ([| 2.0; 1.0 |], Simplex.Le, 2.0) ]
      [| true; true |]
  in
  let lp = Model.relaxation m in
  match (Simplex.solve lp, Solver.solve m) with
  | Simplex.Optimal lp_sol, Some ilp ->
      Alcotest.(check bool) "lp <= ilp" true
        (lp_sol.Simplex.objective <= ilp.Solver.objective +. 1e-9)
  | _ -> Alcotest.fail "expected both optimal"

(* Brute force reference for random small 0/1 ILPs. *)
let brute_force (m : Model.t) =
  let n = Model.num_vars m in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    if Model.check m x then begin
      let obj = Model.value m x in
      match !best with
      | Some (b, _) when b <= obj -> ()
      | _ -> best := Some (obj, x)
    end
  done;
  !best

let test_vs_brute_force =
  QCheck.Test.make ~name:"branch and bound matches brute force" ~count:60
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.return 5) (float_range (-4.0) 4.0))
        (array_of_size (QCheck.Gen.return 5) (float_range 0.0 3.0)))
    (fun (costs, weights) ->
      let budget = Array.fold_left ( +. ) 0.0 weights /. 2.0 in
      let m =
        mk costs
          [ (Array.copy weights, Simplex.Le, budget) ]
          (Array.make 5 true)
      in
      let bb = Solver.solve m in
      let bf = brute_force m in
      match (bb, bf) with
      | None, None -> true
      | Some o, Some (obj, _) -> Float.abs (o.Solver.objective -. obj) < 1e-6
      | Some _, None | None, Some _ -> false)

(* Random small 0/1 model: mostly negative costs against ≤ rows with
   coefficients up to 3, so the LP optimum is often fractional and the
   search branches; a third of the draws make the last variable
   continuous.  Rows are dense, in the reference's form. *)
let small_int_model rng =
  let module R = Cpla_util.Rng in
  let n = R.int_in rng 2 7 in
  let objective = Array.init n (fun _ -> float_of_int (R.int_in rng (-3) 1)) in
  let rows =
    List.init (R.int_in rng 1 4) (fun _ ->
        let coeffs =
          Array.init n (fun _ ->
              if R.int rng 3 = 0 then 0.0 else float_of_int (R.int_in rng (-1) 3))
        in
        let rel =
          R.choose rng
            [| Simplex_reference.Le; Simplex_reference.Le; Simplex_reference.Ge; Simplex_reference.Eq |]
        in
        (coeffs, rel, float_of_int (R.int_in rng 0 5)))
  in
  let binary = Array.init n (fun i -> i < n - 1 || R.int rng 3 > 0) in
  (objective, rows, binary)

(* Branch-and-bound over the sparse simplex explores the same tree as the
   dense reference and returns the same incumbent, bit for bit. *)
let test_matches_dense_reference =
  QCheck.Test.make ~name:"branch and bound matches the dense reference bitwise" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Cpla_util.Rng.create seed in
      let objective, rows, binary = small_int_model rng in
      let want =
        Simplex_reference.Bnb.solve (Simplex_reference.Model.create ~objective ~rows ~binary)
      in
      let got =
        Solver.solve
          (Model.create ~objective ~rows:(Test_numeric_props.sparse_rows rows) ~binary)
      in
      match (want, got) with
      | None, None -> true
      | Some a, Some b ->
          Array.for_all2 Test_numeric_props.same_bits a.Simplex_reference.Bnb.x b.Solver.x
          && Test_numeric_props.same_bits a.Simplex_reference.Bnb.objective b.Solver.objective
          && a.Simplex_reference.Bnb.nodes_explored = b.Solver.nodes_explored
          && a.Simplex_reference.Bnb.proven_optimal = b.Solver.proven_optimal
      | Some _, None | None, Some _ -> false)

let suite =
  [
    Alcotest.test_case "knapsack" `Quick test_knapsack;
    Alcotest.test_case "assignment problem" `Quick test_assignment_problem;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "mixed continuous" `Quick test_mixed_continuous;
    Alcotest.test_case "relaxation is a lower bound" `Quick test_relaxation_bound;
    QCheck_alcotest.to_alcotest test_vs_brute_force;
    QCheck_alcotest.to_alcotest test_matches_dense_reference;
  ]
