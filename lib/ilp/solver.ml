open Cpla_numeric

type options = {
  max_nodes : int;
  time_limit_s : float;
  gap_tol : float;
}

let default_options = { max_nodes = 5000; time_limit_s = 30.0; gap_tol = 1e-6 }

type outcome = {
  x : float array;
  objective : float;
  proven_optimal : bool;
  nodes_explored : int;
}

(* A node is a set of fixed binaries, newest fix first:
   [(int * float) list] as pushed on the DFS stack. *)

type ws = Simplex.ws

let ws_create = Simplex.ws_create

(* [fixed.(i) = node] marks binary i as fixed at the current node. *)
let most_fractional model x ~fixed ~node =
  let binary = model.Model.binary in
  let best = ref (-1) and best_frac = ref 0.0 in
  for i = 0 to Array.length binary - 1 do
    if binary.(i) && fixed.(i) <> node then begin
      let f = Float.abs (x.(i) -. Float.round x.(i)) in
      if f > !best_frac +. 1e-9 then begin
        best_frac := f;
        best := i
      end
    end
  done;
  if !best_frac > 1e-6 then Some !best else None

(* Round every binary to the nearest integer and keep continuous values;
   feasible roundings give quick incumbents.  Writes into [dst] (the
   per-solve scratch — [offer] copies on acceptance). *)
let rounded_into model x dst =
  Array.iteri
    (fun i v ->
      dst.(i) <- (if model.Model.binary.(i) then Float.round v else Float.max 0.0 v))
    x

type search = { best : outcome option; nodes : int; complete : bool }

let search ?(options = default_options) ?ws model =
  let ws = match ws with Some w -> w | None -> Simplex.ws_create () in
  let n = Model.num_vars model in
  let base = Model.relaxation model in
  let rounded_scratch = Array.make n 0.0 in
  let fixed = Array.make n 0 in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  (* wall clock, as documented for [time_limit_s]: with jobs running on a
     domain pool, CPU time advances once per running domain and would shrink
     every concurrent solver's budget by the worker count *)
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
      List.iter (fun (i, _) -> fixed.(i) <- !nodes) fixes;
      (* fixing rows go straight into the reused tableau — same rows, same
         order as the dense Array.append construction this replaces *)
      match Simplex.solve ~ws ~fixes base with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
          (* A bounded 0/1 model cannot be unbounded unless continuous
             variables are; treat as a dead branch. *)
          ()
      | Simplex.Iteration_limit -> proven := false
      | Simplex.Optimal sol ->
          if sol.Simplex.objective >= !incumbent_obj -. options.gap_tol then ()
          else begin
            rounded_into model sol.Simplex.x rounded_scratch;
            offer rounded_scratch;
            match most_fractional model sol.Simplex.x ~fixed ~node:!nodes with
            | None ->
                (* integral on all binaries *)
                offer sol.Simplex.x
            | Some i ->
                let v = sol.Simplex.x.(i) in
                let first = Float.round v in
                let second = 1.0 -. first in
                (* push the less promising branch first so DFS explores the
                   rounding-preferred side next *)
                Stack.push ((i, second) :: fixes) stack;
                Stack.push ((i, first) :: fixes) stack
          end
    end
  done;
  let best =
    Option.map
      (fun x -> { x; objective = !incumbent_obj; proven_optimal = !proven; nodes_explored = !nodes })
      !incumbent
  in
  { best; nodes = !nodes; complete = !proven }

let solve ?options ?ws model = (search ?options ?ws model).best
