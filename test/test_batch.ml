(* Batched-kernel engine invariants: solver results are independent of
   workspace reuse (the per-domain batching contract), the simplex fixes
   fast path equals the dense appended-rows construction it replaced, and
   the structure-of-arrays kernels stay within their allocation budget. *)

open Cpla_numeric
open Cpla_sdp

let rng_seed = 20160607

(* ---- random problem generators -------------------------------------------- *)

(* Assignment-style SDP (the partition workload shape): [nvars] segments
   with [k] candidates each, random diagonal costs, a few off-diagonal
   couplings, and one sum-to-one constraint per segment. *)
let random_sdp ?(couplings = 1) rng ~nvars ~k =
  let dim = nvars * k in
  let e i j v = { Problem.i; j; v } in
  let cost = ref [] in
  for d = 0 to dim - 1 do
    cost := e d d (Cpla_util.Rng.float rng 10.0) :: !cost
  done;
  for _ = 1 to couplings * nvars do
    let i = Cpla_util.Rng.int rng dim and j = Cpla_util.Rng.int rng dim in
    let lo = min i j and hi = max i j in
    if lo <> hi then cost := e lo hi (Cpla_util.Rng.float rng 2.0 -. 1.0) :: !cost
  done;
  let constraints =
    List.init nvars (fun vi ->
        {
          Problem.terms = List.init k (fun ci -> e ((vi * k) + ci) ((vi * k) + ci) 1.0);
          b = 1.0;
        })
  in
  Problem.create ~dim ~cost:(List.rev !cost) ~constraints

let sdp_options = { Solver.default_options with Solver.max_outer = 4; inner_iters = 40 }

let solve_sdp ?ws p =
  let r = Solver.solve ~options:sdp_options ?ws p in
  (r.Solver.x_diag, r.Solver.objective, r.Solver.max_violation, r.Solver.outer_rounds)

(* Bounded random LP: box rows keep it feasible and bounded whatever the
   signs drawn for the objective and the coupling rows. *)
let random_lp rng ~n ~m =
  let objective = Array.init n (fun _ -> Cpla_util.Rng.float rng 4.0 -. 2.0) in
  let coupling =
    List.init m (fun _ ->
        let coeffs = Array.init n (fun _ -> Cpla_util.Rng.float rng 2.0 -. 1.0) in
        let rel = Cpla_util.Rng.choose rng [| Simplex.Le; Simplex.Ge |] in
        let b =
          match rel with
          | Simplex.Le -> Cpla_util.Rng.float rng 4.0
          | _ -> -.Cpla_util.Rng.float rng 4.0
        in
        Simplex.dense coeffs rel b)
  in
  let box =
    List.init n (fun i ->
        let row = Array.make n 0.0 in
        row.(i) <- 1.0;
        Simplex.dense row Simplex.Le (1.0 +. Cpla_util.Rng.float rng 3.0))
  in
  { Simplex.objective; rows = Array.of_list (coupling @ box) }

(* Random 0/1 set-partition-style model: groups of binaries that must sum
   to one, random positive costs — always feasible, small enough that
   branch-and-bound terminates well inside its budgets. *)
let random_ilp rng ~groups ~k =
  let n = groups * k in
  let objective = Array.init n (fun _ -> Cpla_util.Rng.float rng 10.0) in
  let rows =
    List.init groups (fun g ->
        let row = Array.make n 0.0 in
        for ci = 0 to k - 1 do
          row.((g * k) + ci) <- 1.0
        done;
        Simplex.dense row Simplex.Eq 1.0)
  in
  let binary = Array.make n true in
  Cpla_ilp.Model.create ~objective ~rows ~binary

(* ---- workspace-reuse ≡ fresh-workspace properties -------------------------- *)

let check_floats name a b =
  Alcotest.(check (array (float 0.0))) name b a

(* One workspace carried across every size bucket, smallest to largest and
   back down (so reuse hits both the growth and the oversized-buffer
   paths), must reproduce the fresh-workspace solve exactly. *)
let test_sdp_ws_reuse () =
  let rng = Cpla_util.Rng.create rng_seed in
  let shapes = [ (1, 2); (2, 2); (3, 3); (5, 4); (2, 3); (1, 4) ] in
  let problems = List.map (fun (nvars, k) -> random_sdp rng ~nvars ~k) shapes in
  let ws = Solver.ws_create () in
  List.iter
    (fun p ->
      let xd, obj, viol, rounds = solve_sdp ~ws p in
      let xd', obj', viol', rounds' = solve_sdp p in
      check_floats "x_diag bitwise" xd xd';
      Alcotest.(check (float 0.0)) "objective bitwise" obj' obj;
      Alcotest.(check (float 0.0)) "violation bitwise" viol' viol;
      Alcotest.(check int) "outer rounds" rounds' rounds)
    problems

let status_testable =
  let pp ppf (s : Simplex.status) =
    match s with
    | Simplex.Optimal sol ->
        Format.fprintf ppf "Optimal(obj=%.17g, iters=%d)" sol.Simplex.objective
          sol.Simplex.iterations
    | Simplex.Infeasible -> Format.fprintf ppf "Infeasible"
    | Simplex.Unbounded -> Format.fprintf ppf "Unbounded"
    | Simplex.Iteration_limit -> Format.fprintf ppf "Iteration_limit"
  in
  let eq (a : Simplex.status) (b : Simplex.status) =
    match (a, b) with
    | Simplex.Optimal sa, Simplex.Optimal sb ->
        sa.Simplex.x = sb.Simplex.x
        && sa.Simplex.objective = sb.Simplex.objective
        && sa.Simplex.iterations = sb.Simplex.iterations
    | a, b -> a = b
  in
  Alcotest.testable pp eq

let test_simplex_ws_reuse () =
  let rng = Cpla_util.Rng.create (rng_seed + 1) in
  let ws = Simplex.ws_create () in
  for _ = 1 to 40 do
    let n = Cpla_util.Rng.int_in rng 2 8 and m = Cpla_util.Rng.int_in rng 1 6 in
    let p = random_lp rng ~n ~m in
    Alcotest.(check status_testable)
      "ws solve bitwise" (Simplex.solve p)
      (Simplex.solve ~ws p)
  done

(* ~fixes must be exactly the dense appended-Eq-rows construction the
   branch-and-bound used before the tableau went workspace-resident. *)
let test_simplex_fixes () =
  let rng = Cpla_util.Rng.create (rng_seed + 2) in
  let ws = Simplex.ws_create () in
  for _ = 1 to 40 do
    let n = Cpla_util.Rng.int_in rng 2 6 and m = Cpla_util.Rng.int_in rng 1 4 in
    let p = random_lp rng ~n ~m in
    let nfix = Cpla_util.Rng.int_in rng 1 (min 2 n) in
    let fixes =
      List.init nfix (fun _ ->
          (Cpla_util.Rng.int rng n, float_of_int (Cpla_util.Rng.int rng 2)))
    in
    let appended =
      {
        p with
        Simplex.rows =
          Array.append p.Simplex.rows
            (Array.of_list
               (List.map
                  (fun (i, v) ->
                    let row = Array.make n 0.0 in
                    row.(i) <- 1.0;
                    Simplex.dense row Simplex.Eq v)
                  fixes));
      }
    in
    Alcotest.(check status_testable)
      "fixes bitwise" (Simplex.solve appended)
      (Simplex.solve ~ws ~fixes p)
  done

let outcome_testable =
  let pp ppf (o : Cpla_ilp.Solver.outcome) =
    Format.fprintf ppf "obj=%.17g nodes=%d proven=%b" o.Cpla_ilp.Solver.objective
      o.Cpla_ilp.Solver.nodes_explored o.Cpla_ilp.Solver.proven_optimal
  in
  let eq (a : Cpla_ilp.Solver.outcome) (b : Cpla_ilp.Solver.outcome) =
    a.Cpla_ilp.Solver.x = b.Cpla_ilp.Solver.x
    && a.Cpla_ilp.Solver.objective = b.Cpla_ilp.Solver.objective
    && a.Cpla_ilp.Solver.proven_optimal = b.Cpla_ilp.Solver.proven_optimal
    && a.Cpla_ilp.Solver.nodes_explored = b.Cpla_ilp.Solver.nodes_explored
  in
  Alcotest.testable pp eq

let test_ilp_ws_reuse () =
  let rng = Cpla_util.Rng.create (rng_seed + 3) in
  let ws = Cpla_ilp.Solver.ws_create () in
  for _ = 1 to 15 do
    let groups = Cpla_util.Rng.int_in rng 1 3 and k = Cpla_util.Rng.int_in rng 2 3 in
    let model = random_ilp rng ~groups ~k in
    Alcotest.(check (option outcome_testable))
      "ws branch-and-bound bitwise"
      (Cpla_ilp.Solver.solve model)
      (Cpla_ilp.Solver.solve ~ws model)
  done

(* ---- allocation regression -------------------------------------------------- *)

(* Per-solve allocation of the SoA kernels on a warmed workspace.  Without
   flambda every cross-function float return still boxes (2-3 words per
   call), so "zero allocation in the inner loops" shows up as a small
   per-solve budget that scales with iteration count — nothing like the
   per-element vectors, cons lists and tableau copies the record-based
   solvers allocated.  The bounds are ~5x the measured values and ~50x
   under the old cost, so a reintroduced per-element allocation trips
   them immediately. *)
let bytes_per_run f ~runs =
  f ();
  f ();
  (* warm: workspace growth and any lazy state *)
  let before = Gc.allocated_bytes () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int runs

let test_sdp_alloc_budget () =
  let rng = Cpla_util.Rng.create (rng_seed + 4) in
  let p = random_sdp rng ~nvars:4 ~k:3 in
  let opts = Solver.kernel_options sdp_options in
  let compiled = Kernel.compile ~rank:sdp_options.Solver.rank p in
  let dim, _ = Kernel.dims compiled in
  let ws = Kernel.ws_create () in
  let x_diag = Array.make dim 0.0 in
  let per_run =
    bytes_per_run ~runs:20 (fun () -> Kernel.solve_into ws compiled ~options:opts ~x_diag)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sdp solve_into allocates %.0f B/run (budget 262144)" per_run)
    true (per_run < 262144.0)

let test_simplex_alloc_budget () =
  let rng = Cpla_util.Rng.create (rng_seed + 5) in
  let p = random_lp rng ~n:8 ~m:6 in
  let ws = Simplex.ws_create () in
  let per_run = bytes_per_run ~runs:50 (fun () -> ignore (Simplex.solve ~ws p)) in
  Alcotest.(check bool)
    (Printf.sprintf "simplex solve allocates %.0f B/run (budget 16384)" per_run)
    true (per_run < 16384.0)

let test_vec_alloc_budget () =
  let n = 512 in
  let x = Array.init n (fun i -> float_of_int i *. 0.5) in
  let y = Array.init n (fun i -> float_of_int (n - i)) in
  let dst = Array.make n 0.0 in
  let sink = ref 0.0 in
  let per_run =
    bytes_per_run ~runs:100 (fun () ->
        sink := !sink +. Vec.dot_n n x y;
        sink := !sink +. Vec.norm_inf_n n x;
        Vec.axpy_n ~alpha:0.5 n x y;
        Vec.scale_n 0.999 n y;
        Vec.copy_n n x dst;
        Vec.fill_n n dst 0.0;
        Vec.sub_n n x y dst)
  in
  Alcotest.(check bool)
    (Printf.sprintf "vec _n ops allocate %.0f B/run (budget 512)" per_run)
    true (per_run < 512.0)

let test_lbfgs_alloc_budget () =
  (* strictly convex quadratic; the evaluator writes into caller storage so
     a warmed solve allocates only boxed float returns and loop refs *)
  let n = 32 in
  let target = Array.init n (fun i -> float_of_int (i mod 7) -. 3.0) in
  let ws = Lbfgs.Ws.create ~memory:6 () in
  let fx = Lbfgs.Ws.fx_out ws in
  let eval v grad =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = v.(i) -. target.(i) in
      acc := !acc +. (d *. d);
      grad.(i) <- 2.0 *. d
    done;
    fx.(0) <- !acc
  in
  let x = Array.make n 0.0 in
  let per_run =
    bytes_per_run ~runs:20 (fun () ->
        Array.fill x 0 n 0.0;
        Lbfgs.Ws.minimize ws ~n ~max_iter:50 ~grad_tol:1e-8 ~eval x)
  in
  Alcotest.(check bool)
    (Printf.sprintf "lbfgs ws minimize allocates %.0f B/run (budget 65536)" per_run)
    true (per_run < 65536.0)

let test_frame_alloc_budget () =
  (* per decoded frame: the payload string, the [Frame] block and the
     [Some] cell — the handed-to-caller values — and nothing else *)
  let payload = String.make 48 'x' in
  let wire = Bytes.to_string (Cpla_net.Frame.encode payload) in
  let burst = String.concat "" (List.init 16 (fun _ -> wire)) in
  let dec = Cpla_net.Frame.decoder () in
  let drain () =
    let rec go n =
      match Cpla_net.Frame.next dec with
      | Some (Cpla_net.Frame.Frame _) -> go (n + 1)
      | Some (Cpla_net.Frame.Oversized _) -> go n
      | None -> n
    in
    go 0
  in
  let per_run =
    bytes_per_run ~runs:100 (fun () ->
        Cpla_net.Frame.feed_string dec burst;
        if drain () <> 16 then failwith "frame budget: short decode")
  in
  (* 16 frames/run; ~150 B of sanctioned output per frame, budget ~2x *)
  Alcotest.(check bool)
    (Printf.sprintf "frame decode allocates %.0f B/run (budget 8192)" per_run)
    true (per_run < 8192.0)

let test_heap_alloc_budget () =
  (* 256 entries pushed and drained twice per run.  The keys come from a
     float array and pop into one, so the calls box nothing.  Measured ~0.5
     kB/run (the per-run closure and GC accounting); the budget is 4 B per
     entry and pass, so a single allocated word pair per push or pop (>= 8
     kB/run) trips it.  A full major GC first runs the finalisers earlier
     tests left pending, which would otherwise run (and allocate) inside the
     measurement. *)
  let n = 256 in
  let key_arr = Array.init n (fun i -> float_of_int ((i * 7919) mod 613)) and dst = [| 0.0 |] in
  let h = Cpla_util.Heap.create () in
  let sink = ref 0 in
  Gc.full_major ();
  let per_run =
    bytes_per_run ~runs:50 (fun () ->
        for _pass = 1 to 2 do
          for i = 0 to n - 1 do
            Cpla_util.Heap.push_from h key_arr i
          done;
          while not (Cpla_util.Heap.is_empty h) do
            let v = Cpla_util.Heap.pop_into h dst 0 in
            if dst.(0) >= 0.0 then sink := !sink + v
          done
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "heap push/pop allocates %.0f B/run (budget 2048)" per_run)
    true (per_run < 2048.0)

(* ---- golden: the kernel's arithmetic is pinned ------------------------------

   Kernel.solve_into on seeded random problems compiled without ranking
   groups, checked against values recorded (as %h hex floats) before the
   inner loops were rewritten with hoisted bounds checks, a fused line-search
   trial point and once-per-round residuals.  The recording already
   includes the L-BFGS curvature-ring fix (a rejected pair no longer
   overwrites the oldest live one), which changes the first three cases;
   the rewrite itself must not change a bit.  The cases cover early
   convergence, a run capped at max_outer, a multi-round run, and
   max_outer = 0 (no rounds: residuals computed after the loop). *)

type golden = {
  g_seed : int;
  nvars : int;
  k : int;
  couplings : int;
  g_max_outer : int;
  g_inner_iters : int;
  x_diag : string;  (* space-separated %h values *)
  objective : string;
  max_violation : string;
  rounds : int;
}

let goldens =
  [
    {
      g_seed = 1;
      nvars = 3;
      k = 3;
      couplings = 1;
      g_max_outer = 8;
      g_inner_iters = 100;
      x_diag =
        "0x1.72cfe3af3e474p-8 0x1.fd1a602292b0fp-1 \
         0x1.e6afecbda2eecp-102 0x1.913526b36eaaep-69 \
         0x1.573d684869a1ep-81 0x1.fffffff6987dp-1 \
         0x1.232219f74d96ap-100 0x1.ffe8dc00f3fcfp-1 \
         0x1.723f9f8e0e2a2p-13";
      objective = "0x1.059ade77ff027p+3";
      max_violation = "0x1.60ed28p-29";
      rounds = 2;
    };
    {
      g_seed = 2;
      nvars = 4;
      k = 4;
      couplings = 1;
      g_max_outer = 8;
      g_inner_iters = 100;
      x_diag =
        "0x1.a62218887bf74p-58 0x1.fffffff5f2838p-1 \
         0x1.737d7b5831f1cp-47 0x1.0c80c4417deefp-52 \
         0x1.0000000699ffep+0 0x1.1cd03603c3b66p-56 \
         0x1.b0916f91feb87p-61 0x1.6c7712b2c0483p-71 \
         0x1.578816aab5032p-69 0x1.95aee863c4e28p-68 \
         0x1.016ed812d436dp-61 0x1.fffffff69089cp-1 \
         0x1.e9e6c02a2e20fp-59 0x1.d9e586f50a9fdp-58 \
         0x1.fffffff4de5dbp-1 0x1.4cd17ba9c0e35p-52";
      objective = "0x1.5edb7841a9876p+3";
      max_violation = "0x1.a67ff8p-30";
      rounds = 2;
    };
    {
      g_seed = 3;
      nvars = 6;
      k = 3;
      couplings = 1;
      g_max_outer = 8;
      g_inner_iters = 100;
      x_diag =
        "0x1.7183ba4c59f6p-94 0x1.66c4f5f9aa0f2p-101 \
         0x1.fff9fdbf3bd48p-1 0x1.00000000818b7p+0 \
         0x1.29a70e8c16bfap-90 0x1.78836f6c9a0bap-94 \
         0x1.ddceee15dfa5p-1 0x1.7a6167d33e7d8p-130 \
         0x1.11886f066ca17p-4 0x1.57ce2032c8d83p-9 \
         0x1.360b84227d316p-75 0x1.feae365bd05cbp-1 \
         0x1.ff2e4a562699cp-1 0x1.a36b4bb1b03b6p-10 \
         0x1.9a8d9de1f453fp-48 0x1.fcfa7d49e1372p-7 \
         0x1.f80c16094ee78p-1 0x1.0dc1d6bbd2e74p-46";
      objective = "0x1.f91b9014fa2a4p+1";
      max_violation = "0x1.811f00c96p-15";
      rounds = 3;
    };
    {
      g_seed = 4;
      nvars = 5;
      k = 2;
      couplings = 1;
      g_max_outer = 0;
      g_inner_iters = 100;
      x_diag =
        "0x1.b7d00c931fd5ap-1 0x1.d92259a42fec1p-3 0x1.b7797d48e554bp-2 \
         0x1.93b7465b63172p-1 0x1.11aee5ee3b13p-3 0x1.5c1c4d26bf3c5p-2 \
         0x1.44137a79cdf3cp-2 0x1.b1f26cad6103fp-2 0x1.939906910b747p-2 \
         0x1.52664e4d7453p-2";
      objective = "0x1.82216fb763a0ap+4";
      max_violation = "0x1.0d861ff1119d2p-1";
      rounds = 0;
    };
    {
      g_seed = 5;
      nvars = 8;
      k = 3;
      couplings = 3;
      g_max_outer = 8;
      g_inner_iters = 15;
      x_diag =
        "0x1.ffdb9b909524ap-1 0x1.81b1356e6024cp-13 \
         0x1.1936ccdf6cec7p-13 0x1.e29f8b3b0c47fp-1 \
         0x1.d456a9436cfcbp-5 0x1.a97d74105a9d6p-13 \
         0x1.1d7222c8e745cp-14 0x1.59bb83a2c427p-39 \
         0x1.00011d6068c0cp+0 0x1.cd17575d0b29dp-1 0x1.941c49ff98b45p-4 \
         0x1.26759a4d90c7ap-24 0x1.72d1ae27c2eddp-26 \
         0x1.fd5791f103371p-1 0x1.51d94dfeb547fp-8 0x1.58156356bcf62p-6 \
         0x1.f518fe400a3d9p-1 0x1.39cf41f0530f1p-12 \
         0x1.aa38384f8b37p-13 0x1.fff838443f843p-1 \
         0x1.5086b217586dcp-15 0x1.fff60f5c4c42p-1 \
         0x1.54391b222ab48p-16 0x1.17fef2be55ccp-15";
      objective = "0x1.a0d480dcb23e5p+3";
      max_violation = "0x1.9474585a2cp-11";
      rounds = 8;
    };
    {
      g_seed = 6;
      nvars = 10;
      k = 4;
      couplings = 3;
      g_max_outer = 12;
      g_inner_iters = 25;
      x_diag =
        "0x1.97cca944cab3cp-24 0x1.f5cbd1e2d0fa5p-1 \
         0x1.460f919291de1p-6 0x1.80e81dc8f8f84p-16 \
         0x1.3dea893625b1cp-7 0x1.fa6141cc6b2a8p-1 \
         0x1.72aa31f4e790bp-13 0x1.2220d36ceb7dap-10 \
         0x1.fff4e8386a215p-1 0x1.3cab719b7437ap-17 \
         0x1.694c232347016p-40 0x1.3d85817016bfp-14 \
         0x1.2f245f20428fcp-9 0x1.3e396092fd84fp-30 \
         0x1.0335b080c91dp-14 0x1.fec9bd28367bp-1 0x1.a9ac6ab3c948fp-24 \
         0x1.67034b090713cp-1 0x1.99af326d39abp-15 0x1.31f0526cf6ab2p-2 \
         0x1.a65c45d099092p-7 0x1.2453eafb5ecd7p-7 \
         0x1.3ab85b79862d7p-47 0x1.f4d4351613005p-1 \
         0x1.ffdfa87887a66p-1 0x1.b53bc6f4c7333p-39 \
         0x1.ad3a247219d6cp-14 0x1.11ce5c9baba94p-13 \
         0x1.466a217942cd3p-22 0x1.dc5f3755b1d4ep-13 \
         0x1.2fc294c45cd56p-4 0x1.d9e63c39ccf6ep-1 \
         0x1.cfbd5310c14e2p-51 0x1.2628e2ed9ff3bp-9 \
         0x1.fed98ba81313ap-1 0x1.78dc5bb36ab81p-40 \
         0x1.f60f38460ec8cp-1 0x1.ae503cf0c0683p-34 \
         0x1.3d9696ebc396dp-6 0x1.416b7e8dd571dp-18";
      objective = "0x1.585279f4da3abp+4";
      max_violation = "0x1.d0837083c8p-16";
      rounds = 6;
    };
  ]

(* The same six problems at rank 2, the rank Config.default solves every
   partition at.  Recorded before the default moved from rank 6 to 2 (the
   kernel code did not change), so these pin the default's arithmetic
   against later kernel edits. *)
let goldens_rank2 =
  List.map2
    (fun g (x_diag, objective, max_violation, rounds) ->
      { g with x_diag; objective; max_violation; rounds })
    goldens
    [
      ( "0x1.72cfe41f5e50fp-8 0x1.fd1a604c09552p-1 \
           0x1.021ff9d280092p-91 0x1.014514e0c252fp-74 \
           0x1.da30497e9c951p-79 0x1.ffffffcc9696cp-1 \
           0x1.2c119f72e9a26p-89 0x1.ffe8dc0b95dd3p-1 \
           0x1.723f95cce18f8p-13",
        "0x1.059ade722f7d2p+3",
        "0x1.9b4b4ap-28",
        2 );
      ( "0x1.9b92941898732p-54 0x1.fffffffd7ecdep-1 \
           0x1.2bb56a31426dfp-51 0x1.066cdea2db3ap-48 \
           0x1.fffffffaeda48p-1 0x1.3de37a414efe9p-60 \
           0x1.f58c63e9dbbd3p-63 0x1.3175bbd341cdcp-73 \
           0x1.7d557e50d5911p-74 0x1.92345e68410f5p-68 \
           0x1.eb826798ef9eep-58 0x1.000000010891cp+0 \
           0x1.337207fa171b4p-67 0x1.44260b89781f7p-62 \
           0x1.fffffff079f03p-1 0x1.69ecf35e83206p-47",
        "0x1.5edb78444135bp+3",
        "0x1.f0c146p-30",
        2 );
      ( "0x1.9de429e19184bp-106 0x1.22347f8ade8a8p-99 \
           0x1.fff9fdc303f14p-1 0x1.ffffffffff2c6p-1 \
           0x1.434fc33c1375ap-98 0x1.98fc344e8d3cap-102 \
           0x1.ddceee51183f5p-1 0x1.255a9a0bb2803p-159 \
           0x1.11886d26e6184p-4 0x1.57ce2075e30fdp-9 \
           0x1.e25c3a6c0e606p-83 0x1.feae365a1c93cp-1 \
           0x1.ff2e4a5cc8cc2p-1 0x1.a36b45cf1da1p-10 \
           0x1.0a12e84cfbf3bp-49 0x1.fcfa7d4b7555dp-7 \
           0x1.f80c160adef68p-1 0x1.8166fe48c8578p-46",
        "0x1.f91b90157f06fp+1",
        "0x1.811ea49dbp-15",
        3 );
      ( "0x1.74681869faf35p-3 0x1.f11efa0f9bad6p-6 0x1.4b2d0ea8243b6p-1 \
           0x1.0075f347f45e7p-5 0x1.4e5f235928715p-8 0x1.8e91e3b76990ep-3 \
           0x1.5b2cf4497ae7fp-2 0x1.2e82b05fdc139p-6 0x1.259177e5b2adfp-4 \
           0x1.cac5bcf4df6d2p-2",
        "0x1.23a04b420d697p+3",
        "0x1.99bec8cb734aep-1",
        0 );
      ( "0x1.fff408858b29ep-1 0x1.36d0614813ebap-13 \
           0x1.7103dfc5ff23ep-13 0x1.e1ee20ebf633ep-1 \
           0x1.dbfae7265184bp-5 0x1.8b3896176861ap-13 \
           0x1.3e42b016a06c1p-16 0x1.ad2d00e93e052p-25 \
           0x1.ffda9a1853709p-1 0x1.ccbda72673c04p-1 0x1.9a38db595bc59p-4 \
           0x1.93b9007825b92p-31 0x1.a3e5a5ec67633p-21 \
           0x1.fd524ae3d5e26p-1 0x1.5db1687afc968p-8 0x1.4dd890b773917p-6 \
           0x1.f5665642ec796p-1 0x1.1a2ea3491dfb6p-12 \
           0x1.e4777acf92d7ap-19 0x1.fff013b47603ap-1 \
           0x1.c97bd86716a6cp-22 0x1.ffece14d51167p-1 \
           0x1.ef094079e362dp-21 0x1.0c822c26662f5p-15",
        "0x1.a3598eec735d1p+3",
        "0x1.cbe8c219ea8p-12",
        8 );
      ( "0x1.08b333c15da1dp-33 0x1.f5ba900aa8ce1p-1 0x1.4819a5b58476p-6 \
           0x1.78abaa5d522e5p-16 0x1.3e3485dbd995ap-7 0x1.fa5ae24e2b7cp-1 \
           0x1.73638014c6e24p-13 0x1.25292acee59b8p-10 \
           0x1.fff4f7e9bc26ep-1 0x1.3951a7c88b8ap-17 \
           0x1.f2ee798312febp-26 0x1.3abe6330c4efep-14 \
           0x1.2f78c53764d65p-9 0x1.180b60af60eddp-23 \
           0x1.fedcb10ab732p-15 0x1.fec4892640ef1p-1 \
           0x1.17fed7f0cdc5fp-25 0x1.683165418d6bdp-1 \
           0x1.9db32613951ecp-15 0x1.2f813828a447p-2 0x1.9c493f0d83b58p-7 \
           0x1.24bf30a742bb5p-7 0x1.aa14a3c5229b2p-64 \
           0x1.f501c750bb1cfp-1 0x1.ffe2875784c43p-1 \
           0x1.322885d4a2c1bp-32 0x1.a8da79f717fecp-14 \
           0x1.256b85bf6b18ep-13 0x1.352c963ead9e4p-22 \
           0x1.0cc61b5cee2f8p-12 0x1.301406aae5e0ap-4 \
           0x1.d9dc15f52744dp-1 0x1.8076bc177fc52p-47 \
           0x1.f372c02a668e8p-10 0x1.ff09fa492a4b3p-1 \
           0x1.e5d411eea217ap-28 0x1.f6153ddd95d6cp-1 \
           0x1.e85d9719be0e9p-24 0x1.3d7876a012976p-6 \
           0x1.4d981507b52ecp-18",
        "0x1.5859615677812p+4",
        "0x1.e1b162529cp-15",
        7 );
    ]

let test_kernel_golden ~rank goldens () =
  List.iter
    (fun g ->
      let rng = Cpla_util.Rng.create (20161 + g.g_seed) in
      let p = random_sdp ~couplings:g.couplings rng ~nvars:g.nvars ~k:g.k in
      let options =
        {
          Kernel.max_outer = g.g_max_outer;
          inner_iters = g.g_inner_iters;
          sigma0 = 10.0;
          sigma_growth = 4.0;
          feas_tol = 1e-4;
          seed = 7;
        }
      in
      let c = Kernel.compile ~rank p in
      let dim, _ = Kernel.dims c in
      let ws = Kernel.ws_create () in
      let x = Array.make dim 0.0 in
      Kernel.solve_into ws c ~options ~x_diag:x;
      let hex = Printf.sprintf "%h" in
      let name s = Printf.sprintf "seed %d: %s" g.g_seed s in
      Alcotest.(check (list string))
        (name "x_diag")
        (String.split_on_char ' ' g.x_diag)
        (Array.to_list (Array.map hex x));
      Alcotest.(check string) (name "objective") g.objective (hex (Kernel.objective ws));
      Alcotest.(check string) (name "max_violation") g.max_violation
        (hex (Kernel.max_violation ws));
      Alcotest.(check int) (name "outer rounds") g.rounds (Kernel.outer_rounds ws);
      Alcotest.(check bool) (name "no ranked exit without groups") false (Kernel.ranked_exit ws))
    goldens

(* ---- static/dynamic agreement ----------------------------------------------- *)

(* Every [@@cpla.zero_alloc] annotation in the tree must be covered by a
   dynamic [Gc.allocated_bytes] budget above, and vice versa: this census
   pins the per-file annotation counts so adding or removing an annotation
   without updating the corresponding budget test fails here.  The static
   verdict (cpla-lint's alloc-in-kernel pass, enforced at 0 findings by the
   @lint alias) and the dynamic budgets then agree on the same set of
   functions.  Runs against the source copies dune places next to the test
   binary; skipped when they are absent (e.g. installed-package runs). *)
let test_zero_alloc_census () =
  let root = "../lib" in
  if not (Sys.file_exists root && Sys.is_directory root) then ()
  else begin
    let count_in path =
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      let needle = "[@@cpla.zero_alloc]" in
      let n = String.length needle in
      let rec go i acc =
        if i + n > String.length s then acc
        else if String.sub s i n = needle then go (i + n) (acc + 1)
        else go (i + 1) acc
      in
      go 0 0
    in
    let expected =
      [
        ("numeric/vec.ml", 7);
        ("numeric/lbfgs.ml", 3);
        ("numeric/simplex.ml", 3);
        ("sdp/kernel.ml", 1);
        ("net/frame.ml", 3);
        ("util/heap.ml", 4);
        ("route/maze.ml", 1);
        ("route/router.ml", 4);
      ]
    in
    List.iter
      (fun (rel, n) ->
        let path = Filename.concat root rel in
        Alcotest.(check int)
          (Printf.sprintf "zero_alloc annotations in %s" rel)
          n (count_in path))
      expected;
    (* and no annotated file outside the census *)
    let rec walk dir acc =
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then walk p acc
          else if Filename.check_suffix name ".ml" && count_in p > 0 then p :: acc
          else acc)
        acc (Sys.readdir dir)
    in
    let annotated = List.sort compare (walk root []) in
    let expected_files =
      List.sort compare (List.map (fun (rel, _) -> Filename.concat root rel) expected)
    in
    Alcotest.(check (list string)) "annotated files all have budget tests"
      expected_files annotated
  end

(* Minor words of one [Router.route_all] over the adaptec1 suite design,
   from a fresh copy of its grid.  It was 27.4M before the router's pattern
   scoring, covered set and heap stopped allocating per tile; what remains
   is mostly the per-net tree build (an edge list through [Stree.of_edges]
   and [Stree.compress]).  The maze loop and the pattern walk are also
   [@cpla.zero_alloc], so this budget (1.25x the 5.30M measured after)
   catches allocation creeping back into what the static pass cannot see:
   boxed floats and per-tile structures. *)
let test_route_all_alloc_budget () =
  let spec = (Cpla_expt.Suite.find "adaptec1").Cpla_expt.Suite.spec in
  let graph0, nets = Cpla_route.Synth.generate spec in
  let graph = Cpla_grid.Graph.clone graph0 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  let r = Cpla_route.Router.route_all ~graph nets in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "adaptec1 routes as recorded" 481 r.Cpla_route.Router.overflow_2d;
  Alcotest.(check bool)
    (Printf.sprintf "route_all allocates %.2fM minor words (budget 6.63M)" (words /. 1e6))
    true (words < 6.63e6)

(* The fig7 ILP kernel's partition: adaptec1's most coupled leaf at the
   bench micro section's settings (0.5% released, k = 4, at most 10
   segments per leaf), formulated with its segments unassigned. *)
let fig7_formulation () =
  let prep = Cpla_expt.Suite.prepare (Cpla_expt.Suite.find "adaptec1") in
  let released = Cpla_expt.Experiments.released_at prep ~ratio:0.005 in
  let asg = prep.Cpla_expt.Suite.asg in
  let infos = Hashtbl.create 32 in
  Array.iter
    (fun net -> Hashtbl.replace infos net (Cpla_timing.Critical.path_info asg net))
    released;
  let items =
    Array.to_list released
    |> List.concat_map (fun net ->
           Array.to_list
             (Array.mapi
                (fun seg s -> { Cpla.Partition.net; seg; mid = Cpla_route.Segment.midpoint s })
                (Cpla_route.Assignment.segments asg net)))
  in
  let graph = Cpla_route.Assignment.graph asg in
  let leaves =
    Cpla.Partition.build ~width:(Cpla_grid.Graph.width graph)
      ~height:(Cpla_grid.Graph.height graph) ~k:4 ~max_segments:10 items
  in
  let size leaf = List.length leaf.Cpla.Partition.items in
  let leaf =
    List.fold_left (fun b leaf -> if size leaf > size b then leaf else b) (List.hd leaves) leaves
  in
  List.iter
    (fun it ->
      Cpla_route.Assignment.unassign asg ~net:it.Cpla.Partition.net ~seg:it.Cpla.Partition.seg)
    leaf.Cpla.Partition.items;
  Cpla.Formulation.build asg ~infos:(Hashtbl.find infos) ~items:leaf.Cpla.Partition.items

(* Minor words of the fig7 ILP kernel: build the partition's 0/1 model and
   branch-and-bound it on a fresh workspace.  The partition is infeasible
   under the ILP's hard (4c) capacity rows, so the kernel is one LP solve;
   the same partition with room for every member on every edge branches
   through 17 nodes and offers incumbents.  Before the simplex went sparse
   (dense model rows, and a dense relaxation rebuilt by every incumbent
   check) the two took 20.1 k and 622 k words per run; the budgets are
   1.25x the 14.2 k and 50.5 k measured after. *)
let test_ilp_alloc_budget () =
  let f = fig7_formulation () in
  let roomy =
    {
      f with
      Cpla.Formulation.cap_rows =
        Array.map
          (fun (r : Cpla.Formulation.cap_row) ->
            { r with Cpla.Formulation.limit = List.length r.Cpla.Formulation.members })
          f.Cpla.Formulation.cap_rows;
    }
  in
  let options = { Cpla_ilp.Solver.default_options with Cpla_ilp.Solver.time_limit_s = 5.0 } in
  let measure name f ~nodes ~incumbent ~budget =
    let run () = Cpla_ilp.Solver.search ~options (Cpla.Ilp_method.build_model ~alpha:2000.0 f) in
    let s = run () in
    Alcotest.(check int) (name ^ ": nodes") nodes s.Cpla_ilp.Solver.nodes;
    Alcotest.(check bool) (name ^ ": incumbent") incumbent (s.Cpla_ilp.Solver.best <> None);
    let runs = 10 in
    let before = Gc.minor_words () in
    for _ = 1 to runs do
      ignore (run ())
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int runs in
    Alcotest.(check bool)
      (Printf.sprintf "%s: ilp solve allocates %.0f minor words (budget %.0f)" name words budget)
      true (words < budget)
  in
  measure "fig7" f ~nodes:1 ~incumbent:false ~budget:17.7e3;
  measure "fig7 with room" roomy ~nodes:17 ~incumbent:true ~budget:63.1e3

let suite =
  [
    Alcotest.test_case "sdp: ws reuse bitwise across buckets" `Quick test_sdp_ws_reuse;
    Alcotest.test_case "simplex: ws reuse bitwise" `Quick test_simplex_ws_reuse;
    Alcotest.test_case "simplex: fixes = appended rows" `Quick test_simplex_fixes;
    Alcotest.test_case "ilp: ws reuse bitwise" `Quick test_ilp_ws_reuse;
    Alcotest.test_case "sdp kernel allocation budget" `Quick test_sdp_alloc_budget;
    Alcotest.test_case "simplex allocation budget" `Quick test_simplex_alloc_budget;
    Alcotest.test_case "vec prefix-op allocation budget" `Quick test_vec_alloc_budget;
    Alcotest.test_case "lbfgs ws allocation budget" `Quick test_lbfgs_alloc_budget;
    Alcotest.test_case "frame decode allocation budget" `Quick test_frame_alloc_budget;
    Alcotest.test_case "zero_alloc census: static = dynamic" `Quick test_zero_alloc_census;
    Alcotest.test_case "sdp kernel golden (no groups)" `Quick
      (test_kernel_golden ~rank:6 goldens);
    Alcotest.test_case "heap allocation budget" `Quick test_heap_alloc_budget;
    Alcotest.test_case "sdp kernel golden rank 2 (no groups)" `Quick
      (test_kernel_golden ~rank:2 goldens_rank2);
    Alcotest.test_case "route_all allocation budget" `Quick test_route_all_alloc_budget;
    Alcotest.test_case "ilp solve allocation budget" `Quick test_ilp_alloc_budget;
  ]
