(* ---- workspace minimiser ---------------------------------------------------

   Allocation-free L-BFGS over the first [n] cells of preallocated buffers:
   the curvature memory is a ring of reusable rows instead of a cons list,
   the evaluator writes its value and gradient into caller-provided storage
   (a float returned from an unknown closure would be boxed per call), and
   every vector op is a Vec prefix variant or a fused pass doing the same
   per-cell arithmetic.  The floating-point operation sequence mirrors the
   list-based minimiser kept in test/lbfgs_reference.ml exactly, so on
   identical inputs the two produce bitwise-equal iterates (a QCheck
   property in test/test_numeric_props.ml). *)

module Ws = struct
  type t = {
    memory : int;
    mutable cap : int;        (* buffer capacity; grows on demand *)
    mutable g : float array;        (* current gradient *)
    mutable gt : float array;       (* line-search trial gradient *)
    mutable d : float array;        (* search direction *)
    mutable x0 : float array;       (* iterate at line-search entry *)
    mutable g0 : float array;       (* gradient at line-search entry *)
    mutable xt : float array;       (* line-search trial point *)
    mutable s_mem : float array array;  (* ring rows: x-step *)
    mutable y_mem : float array array;  (* ring rows: gradient step *)
    mutable s_new : float array;    (* candidate pair, swapped into the ring *)
    mutable y_new : float array;    (* only once its curvature is accepted *)
    rho : float array;        (* per ring slot: 1 / sᵀy *)
    sy : float array;         (* per ring slot: sᵀy and yᵀy, computed once *)
    yy : float array;         (* when the pair is accepted *)
    alpha : float array;
    fx_out : float array;     (* evaluator writes f here (cell 0) *)
    mutable iterations : int; (* of the last [minimize] *)
  }

  let create ?(memory = 8) () =
    if memory < 1 then invalid_arg "Lbfgs.Ws.create: memory must be >= 1";
    {
      memory;
      cap = 0;
      g = [||];
      gt = [||];
      d = [||];
      x0 = [||];
      g0 = [||];
      xt = [||];
      s_mem = Array.make memory [||];
      y_mem = Array.make memory [||];
      s_new = [||];
      y_new = [||];
      rho = Array.make memory 0.0;
      sy = Array.make memory 0.0;
      yy = Array.make memory 0.0;
      alpha = Array.make memory 0.0;
      fx_out = Array.make 1 0.0;
      iterations = 0;
    }

  let reserve ws n =
    if n > ws.cap then
      begin
        (* amortised growth: the only sanctioned allocation under the
           zero-alloc entry points, doubling so steady-state solves never
           re-enter this branch *)
        let cap = max n (max 16 (2 * ws.cap)) in
        ws.g <- Array.make cap 0.0;
        ws.gt <- Array.make cap 0.0;
        ws.d <- Array.make cap 0.0;
        ws.x0 <- Array.make cap 0.0;
        ws.g0 <- Array.make cap 0.0;
        ws.xt <- Array.make cap 0.0;
        for i = 0 to ws.memory - 1 do
          ws.s_mem.(i) <- Array.make cap 0.0;
          ws.y_mem.(i) <- Array.make cap 0.0
        done;
        ws.s_new <- Array.make cap 0.0;
        ws.y_new <- Array.make cap 0.0;
        ws.cap <- cap
      end [@cpla.allow "alloc-in-kernel"]

  (* Ring index of the [k]-th newest pair when the newest lives at
     [head - 1]; hoisted to top level so [direction_ws] closes over
     nothing. *)
  let ring_slot memory head k = (head - 1 - k + (2 * memory)) mod memory
  [@@cpla.zero_alloc]

  (* [d <- d + alpha·x] over the first [n] cells, returning [z·d] of the
     updated [d] from the same pass: one pair's update fused with the next
     pair's inner product, each in [axpy_n] / [dot_n]'s own operation
     order.  Callers pass buffers of >= n cells. *)
  let axpy_dot n alpha x d z =
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      let dj = Array.unsafe_get d j +. (alpha *. Array.unsafe_get x j) in
      Array.unsafe_set d j dj;
      acc := !acc +. (Array.unsafe_get z j *. dj)
    done;
    !acc

  (* Two-loop recursion into [ws.d]; the ring holds [count] pairs, newest at
     slot [head - 1].  Identical arithmetic to the reference's [direction]:
     newest pair first, gamma scaling from the newest pair, reverse pass
     oldest first, final negation.  Each pass over [d] applies one pair's
     update and takes the next pair's inner product ([axpy_dot]); the
     newest pair's sᵀy and yᵀy come from the ring instead of being
     recomputed. *)
  let direction_ws ws ~n ~head ~count =
    Vec.copy_n n ws.g ws.d;
    if count > 0 then begin
      let i0 = ring_slot ws.memory head 0 in
      let a = ref (ws.rho.(i0) *. Vec.dot_n n ws.s_mem.(i0) ws.d) in
      for k = 0 to count - 1 do
        let i = ring_slot ws.memory head k in
        ws.alpha.(i) <- !a;
        if k < count - 1 then begin
          let next = ring_slot ws.memory head (k + 1) in
          a := ws.rho.(next) *. axpy_dot n (-. !a) ws.y_mem.(i) ws.d ws.s_mem.(next)
        end
        else Vec.axpy_n ~alpha:(-. !a) n ws.y_mem.(i) ws.d
      done;
      if ws.yy.(i0) > 0.0 then Vec.scale_n (ws.sy.(i0) /. ws.yy.(i0)) n ws.d;
      let oldest = ring_slot ws.memory head (count - 1) in
      let beta = ref (ws.rho.(oldest) *. Vec.dot_n n ws.y_mem.(oldest) ws.d) in
      for k = count - 1 downto 0 do
        let i = ring_slot ws.memory head k in
        let c = ws.alpha.(i) -. !beta in
        if k > 0 then begin
          let next = ring_slot ws.memory head (k - 1) in
          beta := ws.rho.(next) *. axpy_dot n c ws.s_mem.(i) ws.d ws.y_mem.(next)
        end
        else Vec.axpy_n ~alpha:c n ws.s_mem.(i) ws.d
      done
    end;
    Vec.scale_n (-1.0) n ws.d
  [@@cpla.zero_alloc]

  (* [eval x grad_out] must write f(x) into [ws.fx_out.(0)] and ∇f(x) into
     [grad_out] (first [n] cells); [x] is updated in place. *)
  let minimize ws ~n ?(max_iter = 500) ?(grad_tol = 1e-6) ~eval x =
    if n > Array.length x then invalid_arg "Lbfgs.Ws.minimize: x shorter than n";
    reserve ws n;
    eval x ws.g;
    let fx = ref ws.fx_out.(0) in
    let head = ref 0 and count = ref 0 in
    let iter = ref 0 in
    let converged = ref (Vec.norm_inf_n n ws.g <= grad_tol) in
    while (not !converged) && !iter < max_iter do
      direction_ws ws ~n ~head:!head ~count:!count;
      let slope = Vec.dot_n n ws.d ws.g in
      let slope =
        if slope < 0.0 then slope
        else begin
          (* non-descent direction from stale curvature: fall back to -g *)
          Vec.copy_n n ws.g ws.d;
          Vec.scale_n (-1.0) n ws.d;
          -.Vec.dot_n n ws.g ws.g
        end
      in
      let f0 = !fx in
      Vec.copy_n n x ws.x0;
      Vec.copy_n n ws.g ws.g0;
      let step = ref 1.0 and accepted = ref false and tries = ref 0 in
      while (not !accepted) && !tries < 30 do
        (* xt <- x0 + step·d in one pass: the reference's [copy; axpy]
           pair fused, same per-cell arithmetic; every buffer holds >= n
           cells after [reserve] *)
        let alpha = !step in
        for i = 0 to n - 1 do
          Array.unsafe_set ws.xt i
            (Array.unsafe_get ws.x0 i +. (alpha *. Array.unsafe_get ws.d i))
        done;
        eval ws.xt ws.gt;
        let value = ws.fx_out.(0) in
        if value <= f0 +. (1e-4 *. !step *. slope) then begin
          Vec.copy_n n ws.xt x;
          fx := value;
          Vec.copy_n n ws.gt ws.g;
          accepted := true
        end
        else begin
          step := !step *. 0.5;
          incr tries
        end
      done;
      if not !accepted then converged := true (* line search stalled: local flat *)
      else begin
        (* s = x - x0, y = g - g0, sᵀy and yᵀy in one pass, each in
           [sub_n] / [dot_n]'s operation order *)
        let sy_acc = ref 0.0 and yy_acc = ref 0.0 in
        for j = 0 to n - 1 do
          let sj = Array.unsafe_get x j -. Array.unsafe_get ws.x0 j in
          let yj = Array.unsafe_get ws.g j -. Array.unsafe_get ws.g0 j in
          Array.unsafe_set ws.s_new j sj;
          Array.unsafe_set ws.y_new j yj;
          sy_acc := !sy_acc +. (sj *. yj);
          yy_acc := !yy_acc +. (yj *. yj)
        done;
        let sy = !sy_acc in
        if sy > 1e-12 then begin
          (* the pair enters the ring by a row swap, so a rejected pair
             never overwrites the oldest live one (the reference drops it) *)
          let i = !head in
          let s_old = ws.s_mem.(i) and y_old = ws.y_mem.(i) in
          ws.s_mem.(i) <- ws.s_new;
          ws.y_mem.(i) <- ws.y_new;
          ws.s_new <- s_old;
          ws.y_new <- y_old;
          ws.rho.(i) <- 1.0 /. sy;
          ws.sy.(i) <- sy;
          ws.yy.(i) <- !yy_acc;
          head := (!head + 1) mod ws.memory;
          count := min (!count + 1) ws.memory
        end;
        if Vec.norm_inf_n n ws.g <= grad_tol then converged := true
      end;
      incr iter
    done;
    ws.iterations <- !iter
  [@@cpla.zero_alloc]

  let fx_out ws = ws.fx_out
  let iterations ws = ws.iterations
end
