(* Reference L-BFGS: the list-based minimiser that Lbfgs.Ws replaced, kept
   verbatim together with its result record.  The workspace minimiser
   promises the same floating-point operation sequence, so this copy pins
   its iterates bitwise. *)

open Cpla_numeric

type result = {
  x : Vec.t;
  f : float;
  grad_norm : float;
  iterations : int;
  converged : bool;
}

(* Two-loop recursion computing the search direction -H·g from the stored
   (s, y) curvature pairs; [pairs] is newest-first. *)
let direction pairs g =
  let q = Vec.copy g in
  let alphas =
    List.map
      (fun (s, y, rho) ->
        let alpha = rho *. Vec.dot s q in
        Vec.axpy ~alpha:(-.alpha) y q;
        (s, y, rho, alpha))
      pairs
  in
  (match pairs with
  | [] -> ()
  | (s, y, _) :: _ ->
      let yy = Vec.dot y y in
      if yy > 0.0 then Vec.scale (Vec.dot s y /. yy) q);
  List.iter
    (fun (s, y, rho, alpha) ->
      let beta = rho *. Vec.dot y q in
      Vec.axpy ~alpha:(alpha -. beta) s q)
    (List.rev alphas);
  Vec.scale (-1.0) q;
  q

let minimize ?(memory = 8) ?(max_iter = 500) ?(grad_tol = 1e-6) ~f x0 =
  let x = Vec.copy x0 in
  let fx = ref 0.0 and g = ref (Vec.create (Array.length x0)) in
  let eval v =
    let value, grad = f v in
    fx := value;
    g := grad
  in
  eval x;
  let pairs = ref [] in
  let iter = ref 0 in
  let converged = ref (Vec.norm_inf !g <= grad_tol) in
  while (not !converged) && !iter < max_iter do
    let d = direction !pairs !g in
    let slope = Vec.dot d !g in
    (* Guard against a non-descent direction from stale curvature pairs. *)
    let d, slope =
      if slope < 0.0 then (d, slope)
      else begin
        let d = Vec.copy !g in
        Vec.scale (-1.0) d;
        (d, -.Vec.dot !g !g)
      end
    in
    let f0 = !fx and x0' = Vec.copy x and g0 = Vec.copy !g in
    (* Armijo backtracking line search. *)
    let step = ref 1.0 and accepted = ref false and tries = ref 0 in
    while (not !accepted) && !tries < 30 do
      let xt = Vec.copy x0' in
      Vec.axpy ~alpha:!step d xt;
      let value, grad = f xt in
      if value <= f0 +. (1e-4 *. !step *. slope) then begin
        Array.blit xt 0 x 0 (Array.length x);
        fx := value;
        g := grad;
        accepted := true
      end
      else begin
        step := !step *. 0.5;
        incr tries
      end
    done;
    if not !accepted then converged := true (* line search stalled: local flat *)
    else begin
      let s = Vec.sub x x0' in
      let y = Vec.sub !g g0 in
      let sy = Vec.dot s y in
      if sy > 1e-12 then begin
        let pair = (s, y, 1.0 /. sy) in
        pairs := pair :: (if List.length !pairs >= memory then List.filteri (fun i _ -> i < memory - 1) !pairs else !pairs)
      end;
      if Vec.norm_inf !g <= grad_tol then converged := true
    end;
    incr iter
  done;
  { x; f = !fx; grad_norm = Vec.norm_inf !g; iterations = !iter; converged = !converged }
