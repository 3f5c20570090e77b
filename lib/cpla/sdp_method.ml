open Cpla_sdp

type built = { problem : Problem.t; index : int -> int -> int; groups : int array }

let build_problem ~alpha (f : Formulation.t) =
  let x_base = Array.make (Array.length f.Formulation.vars) 0 in
  let next = ref 0 in
  Array.iteri
    (fun vi v ->
      x_base.(vi) <- !next;
      next := !next + Array.length v.Formulation.cands)
    f.Formulation.vars;
  let slack_base = !next in
  let overflow_base = slack_base + Array.length f.Formulation.cap_rows in
  let dim = overflow_base + Array.length f.Formulation.cap_rows in
  let index vi ci = x_base.(vi) + ci in
  (* Normalise T to unit scale: Elmore costs are in the thousands while the
     augmented-Lagrangian penalty starts at O(10), and an unscaled objective
     would crush the feasibility terms.  Scaling the objective does not
     change the relaxation's argmin. *)
  let scale =
    let m = ref 1e-12 in
    Array.iter
      (fun (v : Formulation.var) ->
        Array.iter (fun ts -> m := Float.max !m (Float.abs ts)) v.Formulation.ts)
      f.Formulation.vars;
    Array.iter
      (fun (p : Formulation.pair) ->
        Array.iteri
          (fun ca row ->
            Array.iteri
              (fun cb tv ->
                m := Float.max !m (Float.abs (tv +. p.Formulation.lambda.(ca).(cb))))
              row)
          p.Formulation.tv)
      f.Formulation.pairs;
    !m
  in
  (* T: diagonal ts, off-diagonal (tv + λ)/2 so that ⟨T,X⟩ charges tv + λ
     against the y entry (the inner product doubles off-diagonals). *)
  let cost = ref [] in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      Array.iteri
        (fun ci ts ->
          cost := { Problem.i = index vi ci; j = index vi ci; v = ts /. scale } :: !cost)
        v.Formulation.ts)
    f.Formulation.vars;
  Array.iter
    (fun (p : Formulation.pair) ->
      Array.iteri
        (fun ca row ->
          Array.iteri
            (fun cb tv ->
              let i = index p.Formulation.a ca and j = index p.Formulation.b cb in
              let lo = min i j and hi = max i j in
              if lo <> hi then begin
                let v = (tv +. p.Formulation.lambda.(ca).(cb)) /. (2.0 *. scale) in
                if v <> 0.0 then cost := { Problem.i = lo; j = hi; v } :: !cost
              end)
            row)
        p.Formulation.tv)
    f.Formulation.pairs;
  (* V_o of (4c): each capacity row's overflow costs α, the ILP's weight,
     in the normalised units of T. *)
  Array.iteri
    (fun ri _ ->
      let o = overflow_base + ri in
      cost := { Problem.i = o; j = o; v = alpha /. scale } :: !cost)
    f.Formulation.cap_rows;
  (* (4b): Σ_j x_ij = 1 per segment. *)
  let constraints = ref [] in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      let terms =
        Array.to_list
          (Array.mapi (fun ci _ -> { Problem.i = index vi ci; j = index vi ci; v = 1.0 }) v.Formulation.cands)
      in
      constraints := { Problem.terms; b = 1.0 } :: !constraints)
    f.Formulation.vars;
  (* (4c) with a PSD slack and an overflow: Σ x + s − o = limit.  The
     overflow keeps a partition whose edges other nets already fill
     feasible; without it the augmented Lagrangian grinds to its round cap
     on a problem with no answer. *)
  Array.iteri
    (fun ri (r : Formulation.cap_row) ->
      let slack = slack_base + ri and o = overflow_base + ri in
      let terms =
        { Problem.i = slack; j = slack; v = 1.0 }
        :: { Problem.i = o; j = o; v = -1.0 }
        :: List.map
             (fun (vi, ci) -> { Problem.i = index vi ci; j = index vi ci; v = 1.0 })
             r.Formulation.members
      in
      constraints := { Problem.terms; b = float_of_int r.Formulation.limit } :: !constraints)
    f.Formulation.cap_rows;
  (* ranking groups: Post_map ranks a layer's candidates against each
     other, so each candidate index is grouped by its layer; slacks and
     overflows are never ranked.  The kernel breaks ties by ascending
     index, which is Post_map's ascending var index: a var's candidates
     have distinct layers and [x_base] grows with the var. *)
  let groups = Array.make dim (-1) in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      Array.iteri (fun ci layer -> groups.(index vi ci) <- layer) v.Formulation.cands)
    f.Formulation.vars;
  { problem = Problem.create ~dim ~cost:!cost ~constraints:!constraints; index; groups }

type solution = { frac : float array array; factor : float array }

let fractional_table (f : Formulation.t) index x_diag =
  Array.mapi
    (fun vi (v : Formulation.var) ->
      Array.mapi
        (fun ci _ ->
          let x = x_diag.(index vi ci) in
          Float.max 0.0 (Float.min 1.0 x))
        v.Formulation.cands)
    f.Formulation.vars

(* A final residual above 100·feas_tol (or non-finite) is a stall: the
   augmented Lagrangian ended far from feasible.  The kernel's ranked exit
   requires a violation within the same bound, so it never produces one. *)
let stalled ~(options : Solver.options) ws =
  let viol = Kernel.max_violation ws in
  (not (Float.is_finite viol)) || viol > 100.0 *. options.Solver.feas_tol

(* Per kernel run (a warm attempt and its cold retry are two runs). *)
let record_telemetry ~(options : Solver.options) ws =
  let open Cpla_obs in
  Metrics.observe ~lo:(-0.5) ~hi:15.5 ~bins:16 "sdp/outer-rounds"
    (float_of_int (Kernel.outer_rounds ws));
  Metrics.observe ~lo:0.0 ~hi:2000.0 ~bins:20 "sdp/lbfgs-iters"
    (float_of_int (Kernel.lbfgs_iters ws));
  (* log10, in half-decade bins up to the stall threshold, so the overflow
     count is the stalled runs *)
  Metrics.observe ~lo:(-10.0)
    ~hi:(Float.log10 (100.0 *. options.Solver.feas_tol))
    ~bins:16 "sdp/final-violation"
    (Float.log10 (Kernel.max_violation ws));
  if Kernel.ranked_exit ws then Metrics.incr "sdp/ranked-exits"

(* Σ o_r: the overflow rows are the trailing |cap_rows| diagonal entries. *)
let overflow_total (f : Formulation.t) x_diag =
  let dim = Array.length x_diag in
  let acc = ref 0.0 in
  for i = dim - Array.length f.Formulation.cap_rows to dim - 1 do
    acc := !acc +. x_diag.(i)
  done;
  !acc

let solve ~options ~alpha ?ws ?v0 ?(check = fun () -> ()) (f : Formulation.t) =
  if Array.length f.Formulation.vars = 0 then { frac = [||]; factor = [||] }
  else
    let ws = match ws with Some w -> w | None -> Kernel.ws_create () in
    let rank = ref 0 and warm = ref false and overflow = ref 0.0 in
    (* the final kernel run's convergence, read only when tracing is on *)
    let result_args _ =
      let flag b = Cpla_obs.Event.Int (Bool.to_int b) in
      [
        ("rank", Cpla_obs.Event.Int !rank);
        ("outer_rounds", Cpla_obs.Event.Int (Kernel.outer_rounds ws));
        ("lbfgs_iters", Cpla_obs.Event.Int (Kernel.lbfgs_iters ws));
        ("warm", flag !warm);
        ("stalled", flag (stalled ~options ws));
        ("overflow", Cpla_obs.Event.Float !overflow);
      ]
    in
    Cpla_obs.Span.with_ ~name:"sdp/solve"
      ~args:[ ("vars", Cpla_obs.Event.Int (Array.length f.Formulation.vars)) ]
      ~result_args
      (fun () ->
        Cpla_obs.Metrics.incr "sdp/solves";
        check ();
        let { problem; index; groups } = build_problem ~alpha f in
        let compiled = Kernel.compile ~groups ~rank:options.Solver.rank problem in
        let dim, r = Kernel.dims compiled in
        rank := r;
        (* the kernel honours a seed only at this problem's shape *)
        warm := (match v0 with Some v -> Array.length v = dim * r | None -> false);
        let kopts = Solver.kernel_options options in
        let x_diag = Array.make dim 0.0 in
        let run ?v0 () =
          check ();
          Kernel.solve_into ?v0 ws compiled ~options:kopts ~x_diag;
          record_telemetry ~options ws
        in
        run ?v0 ();
        (* A warm seed far from this formulation's basin can leave the
           augmented Lagrangian stalled at an infeasible point; retry from
           the deterministic cold start.  A stalled cold solve is kept (its
           ranking still feeds Post_map) and counted. *)
        (match v0 with
        | Some _ when stalled ~options ws ->
            Cpla_obs.Metrics.incr "sdp/warm-retries";
            warm := false;
            run ()
        | _ -> ());
        (* the final run is cold whenever it is stalled *)
        if stalled ~options ws then Cpla_obs.Metrics.incr "sdp/stalled";
        overflow := overflow_total f x_diag;
        if !overflow >= 0.5 then Cpla_obs.Metrics.incr "sdp/overflowed";
        { frac = fractional_table f index x_diag; factor = Array.sub (Kernel.v ws) 0 (dim * r) })
