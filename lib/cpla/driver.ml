open Cpla_route
open Cpla_timing

type report = {
  released : int array;
  iterations : int;
  partitions_solved : int;
  avg_tcp : float;
  max_tcp : float;
}

let snapshot asg released =
  Array.map
    (fun net ->
      (net, Array.mapi (fun seg _ -> Assignment.layer asg ~net ~seg) (Assignment.segments asg net)))
    released

let restore asg snap =
  Array.iter
    (fun (net, layers) ->
      Array.iteri (fun seg layer -> if layer >= 0 then Assignment.set_layer asg ~net ~seg ~layer) layers)
    snap

let score eng released =
  let avg, mx = Incremental.avg_max_tcp eng released in
  (* the paper optimises each net's critical path; the sum of path delays
     (= avg up to scale) with a max tiebreaker captures both columns *)
  avg +. (0.05 *. mx)

(* Greedy single-variable descent on the partition's own objective
   (ts + pairwise tv), respecting live edge capacity.  Cleans up the
   rounding slack the fractional→integral mapping leaves behind. *)
let local_refine asg (f : Formulation.t) =
  let graph = Assignment.graph asg in
  let nvars = Array.length f.Formulation.vars in
  let cand_index = Array.map (fun (_ : Formulation.var) -> -1) f.Formulation.vars in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      let current = Assignment.layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg in
      Array.iteri (fun ci l -> if l = current then cand_index.(vi) <- ci) v.Formulation.cands)
    f.Formulation.vars;
  let pairs_of = Array.make nvars [] in
  Array.iteri
    (fun pi (p : Formulation.pair) ->
      pairs_of.(p.Formulation.a) <- (pi, true) :: pairs_of.(p.Formulation.a);
      pairs_of.(p.Formulation.b) <- (pi, false) :: pairs_of.(p.Formulation.b))
    f.Formulation.pairs;
  let var_cost vi ci =
    let v = f.Formulation.vars.(vi) in
    v.Formulation.ts.(ci)
    +. List.fold_left
         (fun acc (pi, is_a) ->
           let p = f.Formulation.pairs.(pi) in
           let other = if is_a then p.Formulation.b else p.Formulation.a in
           let oc = cand_index.(other) in
           if oc < 0 then acc
           else if is_a then acc +. p.Formulation.tv.(ci).(oc)
           else acc +. p.Formulation.tv.(oc).(ci))
         0.0 pairs_of.(vi)
  in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 4 do
    changed := false;
    Array.iteri
      (fun vi (v : Formulation.var) ->
        if cand_index.(vi) >= 0 then begin
          let here = var_cost vi cand_index.(vi) in
          let best = ref cand_index.(vi) and best_cost = ref here in
          Array.iteri
            (fun ci l ->
              if ci <> cand_index.(vi) then begin
                let room =
                  Array.for_all (fun e -> Cpla_grid.Graph.free graph e ~layer:l >= 1) v.Formulation.edges
                in
                if room then begin
                  let c = var_cost vi ci in
                  if c < !best_cost -. 1e-9 then begin
                    best := ci;
                    best_cost := c
                  end
                end
              end)
            v.Formulation.cands;
          if !best <> cand_index.(vi) then begin
            cand_index.(vi) <- !best;
            Assignment.set_layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg
              ~layer:v.Formulation.cands.(!best);
            changed := true
          end
        end)
      f.Formulation.vars;
    incr rounds
  done

(* One solver-workspace pair per domain, shared by every run on that domain
   (the serve pool runs one job per domain).  Workspaces grow to the
   largest partition they have seen and make the partition solves
   allocation-free in steady state; solver results are independent of
   workspace reuse, so this is invisible to everything downstream. *)
let solver_slot =
  Cpla_util.Pool.Slot.create (fun () ->
      (Cpla_sdp.Solver.ws_create (), Cpla_ilp.Solver.ws_create ()))

(* Span payload for one partition-cell solve: where the cell sits in the
   quadtree and how much work it carries. *)
let cell_args (leaf : Partition.leaf) =
  [
    ("x0", Cpla_obs.Event.Int leaf.Partition.x0);
    ("y0", Cpla_obs.Event.Int leaf.Partition.y0);
    ("depth", Cpla_obs.Event.Int leaf.Partition.depth);
    ("segments", Cpla_obs.Event.Int (List.length leaf.Partition.items));
  ]

let poll_check check = match check with Some f -> f () | None -> ()

(* Uncoupled partitions (no shared capacity rows, no intra-partition via
   pairs) decompose exactly: each segment independently takes its cheapest
   layer.  This covers the many sparse leaves quickly for both methods. *)
let uncoupled (f : Formulation.t) =
  Array.length f.Formulation.pairs = 0 && Array.length f.Formulation.cap_rows = 0

let argmin_layers (f : Formulation.t) =
  Array.map
    (fun (v : Formulation.var) ->
      let best = ref 0 in
      Array.iteri (fun ci ts -> if ts < v.Formulation.ts.(!best) then best := ci) v.Formulation.ts;
      v.Formulation.cands.(!best))
    f.Formulation.vars

(* ---- incremental sweeps ---------------------------------------------------

   The dirty-partition scheduler.  The partition structure is a pure
   function of the released segments' midpoints, which never move (2-D
   routes are fixed; only layers change), so the quadtree is built once per
   run and leaves keep stable indices.  A leaf's subproblem inputs are

     - its nets' path coefficients (per-net Elmore state: a function of
       that net's own layers),
     - free capacity on the grid edges its segments cover, and via
       pressure at the tiles those edges touch (changed only by segments
       covering the same edges/tiles — 2-D coverage is fixed, so the
       edge/tile footprint of every leaf is static), and
     - the layers of same-net tree-adjacent segments outside the leaf
       (boundary coupling).

   Hence after a sweep commits, the only leaves whose next solve could
   differ from their previous one are: leaves sharing a net with a changed
   net, plus leaves sharing a grid tile (which subsumes sharing an edge)
   with a leaf whose own segments changed.  Everything else is skipped and
   keeps its layers verbatim — with warm starts off, the committed layers
   are identical to those of a sweep that re-solves every leaf, partition
   by partition.  The first sweep finds every leaf dirty.

   Warm starts keep each leaf's previous Burer–Monteiro factor (leaf-keyed,
   written only between solves) and seed the next SDP solve from it; a
   stalled warm solve retries cold inside Sdp_method.

   The optional solve cache is looked up before every coupled SDP solve
   and fed with cold-start solves only (a warm-started result depends on
   solve history and would make cache contents order-dependent).  A hit
   returns exactly what a cold solve of the canonically identical problem
   would, so with warm starts off the cache is invisible to results. *)
module Incr = struct
  type sol = Frac of float array array | Lay of int array option

  type t = {
    config : Config.t;
    eng : Incremental.t;
    asg : Assignment.t;
    leaves : Partition.leaf array;
    net_leaves : (int, int list) Hashtbl.t;
    adj : int array array;  (* leaves sharing a grid tile, self excluded *)
    dirty : bool array;
    factors : float array option array;  (* leaf-keyed warm-start factors *)
    cache : Solve_cache.t option;
  }

  let leaf_count t = Array.length t.leaves
  let dirty_count t = Array.fold_left (fun a d -> if d then a + 1 else a) 0 t.dirty

  let create ?solve_cache ~config ~engine asg ~released =
    let graph = Assignment.graph asg in
    let width = Cpla_grid.Graph.width graph and height = Cpla_grid.Graph.height graph in
    let items =
      Array.to_list released
      |> List.concat_map (fun net ->
             Array.to_list
               (Array.mapi
                  (fun seg s -> { Partition.net; seg; mid = Segment.midpoint s })
                  (Assignment.segments asg net)))
    in
    let leaves =
      Array.of_list
        (Cpla_obs.Span.with_ ~name:"driver/partition"
           ~args:[ ("items", Cpla_obs.Event.Int (List.length items)) ]
           (fun () ->
             Partition.build ~width ~height ~k:config.Config.k_div
               ~max_segments:config.Config.max_segments_per_partition items))
    in
    let n = Array.length leaves in
    let net_leaves = Hashtbl.create 64 in
    Array.iteri
      (fun li (leaf : Partition.leaf) ->
        List.iter
          (fun it ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt net_leaves it.Partition.net)
            in
            if not (List.mem li prev) then
              Hashtbl.replace net_leaves it.Partition.net (li :: prev))
          leaf.Partition.items)
      leaves;
    (* Static tile footprint per leaf: the endpoints of every grid edge its
       segments cover.  Leaves cohabiting a tile are capacity/via
       neighbours (sharing an edge implies sharing its endpoint tiles, so
       tile cohabitation subsumes edge sharing). *)
    let tile_leaves = Hashtbl.create 256 in
    Array.iteri
      (fun li (leaf : Partition.leaf) ->
        List.iter
          (fun it ->
            let s = (Assignment.segments asg it.Partition.net).(it.Partition.seg) in
            Array.iter
              (fun (e : Cpla_grid.Graph.edge2d) ->
                let add tile =
                  (* leaves are visited in ascending order, so a bucket
                     headed by [li] already records this leaf *)
                  match Hashtbl.find_opt tile_leaves tile with
                  | Some (l :: _) when l = li -> ()
                  | prev ->
                      Hashtbl.replace tile_leaves tile
                        (li :: Option.value ~default:[] prev)
                in
                add (e.Cpla_grid.Graph.x, e.Cpla_grid.Graph.y);
                add
                  (match e.Cpla_grid.Graph.dir with
                  | Cpla_grid.Tech.Horizontal ->
                      (e.Cpla_grid.Graph.x + 1, e.Cpla_grid.Graph.y)
                  | Cpla_grid.Tech.Vertical -> (e.Cpla_grid.Graph.x, e.Cpla_grid.Graph.y + 1)))
              s.Segment.edges)
          leaf.Partition.items)
      leaves;
    let adj_sets = Array.make n [] in
    Hashtbl.iter
      (fun _ ls ->
        List.iter
          (fun a -> List.iter (fun b -> if a <> b then adj_sets.(a) <- b :: adj_sets.(a)) ls)
          ls)
      tile_leaves;
    let adj = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) adj_sets in
    {
      config;
      eng = engine;
      asg;
      leaves;
      net_leaves;
      adj;
      dirty = Array.make n true;
      factors = Array.make n None;
      cache = solve_cache;
    }

  (* [leaf]'s commit moved segments of [changed_nets]: re-dirty every leaf
     of those nets and [leaf]'s tile neighbours *)
  let mark_changes t ~leaf ~changed_nets =
    List.iter
      (fun net ->
        List.iter
          (fun li -> t.dirty.(li) <- true)
          (Option.value ~default:[] (Hashtbl.find_opt t.net_leaves net)))
      changed_nets;
    Array.iter (fun k -> t.dirty.(k) <- true) t.adj.(leaf)

  let mark_net_dirty t net =
    match Hashtbl.find_opt t.net_leaves net with
    | None -> ()
    | Some ls ->
        List.iter
          (fun li ->
            t.dirty.(li) <- true;
            Array.iter (fun k -> t.dirty.(k) <- true) t.adj.(li))
          ls

  (* Solve one coupled-or-not formulation: cache lookup first, then a
     (possibly warm-started) solve.  Returns the solution, the fresh warm
     factor if one was produced, and the cache entry to store if the solve
     was cold. *)
  let solve_formulation config cache ?check ~sdp_ws ~ilp_ws ~v0 (f : Formulation.t) =
    if uncoupled f then begin
      (* even a sweep dominated by sparse leaves must stay cancellable *)
      poll_check check;
      (Lay (Some (argmin_layers f)), None, None)
    end
    else
      match config.Config.method_ with
      | Config.Sdp -> (
          let options = config.Config.sdp_options and alpha = config.Config.alpha in
          let key =
            match cache with
            | Some _ -> Some (Solve_cache.key ~options ~alpha (Formulation.digest f))
            | None -> None
          in
          let hit =
            match (cache, key) with
            | Some c, Some k -> Solve_cache.find c k
            | _ -> None
          in
          match hit with
          | Some frac -> (Frac frac, None, None)
          | None ->
              let sol = Sdp_method.solve ~options ~alpha ~ws:sdp_ws ?v0 ?check f in
              let store =
                match (key, v0) with
                | Some k, None -> Some (k, sol.Sdp_method.frac)
                | _ -> None
              in
              (Frac sol.Sdp_method.frac, Some sol.Sdp_method.factor, store))
      | Config.Ilp ->
          ( Lay
              (Ilp_method.solve ~options:config.Config.ilp_options ~alpha:config.Config.alpha
                 ~ws:ilp_ws ?check f),
            None,
            None )

  let commit config asg (f : Formulation.t) = function
    | Frac frac ->
        Post_map.run asg ~vars:f.Formulation.vars ~x:(fun vi ci -> frac.(vi).(ci));
        if config.Config.local_refinement then local_refine asg f
    | Lay (Some layers) ->
        Array.iteri
          (fun vi layer ->
            let v = f.Formulation.vars.(vi) in
            Assignment.set_layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg ~layer)
          layers
    | Lay None ->
        (* budget exhausted with no incumbent: fall back to the mapping
           with uniform fractional values (capacity-driven greedy) *)
        Post_map.run asg ~vars:f.Formulation.vars ~x:(fun _ _ -> 0.5)

  (* The sweep (Gauss–Seidel): dirty leaves are released and re-solved one
     at a time against the live grid; clean leaves are not touched at all.
     Each leaf freezes its nets' coefficients at the current assignment, so
     later leaves see the effect of earlier ones within the same sweep
     (Section 3.2: "newly updated assignment results of neighboring
     partitions benefit each current partition").  A leaf whose commit
     changed layers immediately re-dirties its net and tile neighbours, so
     leaves later in the order are re-solved within this very sweep;
     earlier ones wait for the next sweep, where an every-leaf sweep would
     first see the change too. *)
  let sweep ?check t =
    let config = t.config in
    let solved = ref 0 in
    Array.iteri
      (fun li (leaf : Partition.leaf) ->
        if t.dirty.(li) then begin
          poll_check check;
          let pre =
            List.map
              (fun it -> Assignment.layer t.asg ~net:it.Partition.net ~seg:it.Partition.seg)
              leaf.Partition.items
          in
          Cpla_obs.Span.with_ ~name:"driver/cell" ~args:(cell_args leaf) (fun () ->
              (* freeze before the release below unassigns this leaf's
                 segments; the engine re-analyses only nets dirtied by
                 earlier leaves *)
              let infos = Hashtbl.create 16 in
              List.sort_uniq compare
                (List.map (fun it -> it.Partition.net) leaf.Partition.items)
              |> List.iter (fun net ->
                     Hashtbl.replace infos net (Incremental.path_info t.eng net));
              List.iter
                (fun { Partition.net; seg; _ } -> Assignment.unassign t.asg ~net ~seg)
                leaf.Partition.items;
              let f =
                Formulation.build ~boundary_coupling:config.Config.boundary_coupling t.asg
                  ~infos:(Hashtbl.find infos) ~items:leaf.Partition.items
              in
              let v0 = if config.Config.warm_start then t.factors.(li) else None in
              let sdp_ws, ilp_ws = Cpla_util.Pool.Slot.get solver_slot in
              let sol, factor, store =
                solve_formulation config t.cache ?check ~sdp_ws ~ilp_ws ~v0 f
              in
              commit config t.asg f sol;
              (match factor with Some _ -> t.factors.(li) <- factor | None -> ());
              match (store, t.cache) with
              | Some (k, frac), Some c -> Solve_cache.store c k frac
              | _ -> ());
          incr solved;
          t.dirty.(li) <- false;
          let changed_nets =
            List.map2
              (fun it pre_layer ->
                if Assignment.layer t.asg ~net:it.Partition.net ~seg:it.Partition.seg
                   <> pre_layer
                then Some it.Partition.net
                else None)
              leaf.Partition.items pre
            |> List.filter_map Fun.id |> List.sort_uniq compare
          in
          if changed_nets <> [] then mark_changes t ~leaf:li ~changed_nets
        end)
      t.leaves;
    !solved
end

let optimize_released ?(config = Config.default) ?engine ?solve_cache ?check asg ~released =
  if not (Assignment.fully_assigned asg) then
    invalid_arg "Driver.optimize: initial assignment incomplete";
  if Array.length released = 0 then
    (* nothing to optimise; avoid seeding scores/metrics from an empty set *)
    { released; iterations = 0; partitions_solved = 0; avg_tcp = 0.0; max_tcp = 0.0 }
  else begin
    let eng =
      match engine with
      | Some e ->
          if Incremental.assignment e != asg then
            invalid_arg "Driver.optimize: engine bound to a different assignment";
          e
      | None -> Incremental.create asg
    in
    let st = Incr.create ?solve_cache ~config ~engine:eng asg ~released in
    let iterations = ref 0 and partitions = ref 0 in
    let best_score = ref (score eng released) in
    let stop = ref false in
    while (not !stop) && !iterations < config.Config.max_outer_iters do
      poll_check check;
      (* an empty dirty set means the next sweep would commit every layer
         verbatim: converged *)
      if Incr.dirty_count st = 0 then stop := true
      else
        Cpla_obs.Span.with_ ~name:"driver/iteration"
          ~args:[ ("iter", Cpla_obs.Event.Int !iterations) ]
          (fun () ->
            let snap = snapshot asg released in
            (* Cancellation (or any solver failure) mid-iteration can leave
               released segments between unassign and re-assign; restoring
               the iteration-entry snapshot before re-raising hands the
               caller a consistent state it can still measure. *)
            let solved =
              try Incr.sweep ?check st
              with e ->
                restore asg snap;
                raise e
            in
            incr iterations;
            Cpla_obs.Metrics.incr "driver/iterations";
            (* only nets the leaves actually moved are re-analysed here *)
            let s = score eng released in
            Cpla_obs.Metrics.set "driver/score" s;
            (* A non-finite score is a regression, not a tie: NaN fails
               both orderings, and without this clause the loop would stop
               *keeping* a NaN-scored assignment. *)
            if (not (Float.is_finite s)) || s > !best_score then begin
              restore asg snap;
              stop := true
            end
            else begin
              (* the sweep is kept — only committed sweeps count as work *)
              partitions := !partitions + solved;
              Cpla_obs.Metrics.incr ~by:solved "driver/cells";
              if s < !best_score -. (1e-6 *. Float.abs !best_score) then best_score := s
              else stop := true
            end)
    done;
    let avg_tcp, max_tcp = Incremental.avg_max_tcp eng released in
    { released; iterations = !iterations; partitions_solved = !partitions; avg_tcp; max_tcp }
  end

let optimize ?(config = Config.default) ?solve_cache ?check asg =
  let engine = Incremental.create asg in
  let released = Incremental.select engine ~ratio:config.Config.critical_ratio in
  optimize_released ~config ~engine ?solve_cache ?check asg ~released
