open Cpla_grid

type point = int * int

type result = {
  trees : Stree.t option array;
  overflow_2d : int;
  maze_routes : int;
}

(* ---- 2-D demand and cost planes -------------------------------------- *)

(* One direction's edges in the grid's edge layout (horizontal edges
   indexed y*(w-1)+x, vertical y*w+x): the layer-aggregated capacity, fixed
   for a routing run; the demand; and the congestion cost of crossing the
   edge, kept in step with the demand by [demand_add] so path scoring and
   the maze read it instead of re-deriving it per edge visit. *)
type plane = {
  cap : int array;
  dem : int array;
  cost : float array;
}

type planes = {
  ph : plane;
  pv : plane;
  costs : Maze.costs;  (** views [ph.cost] and [pv.cost] *)
}

(* Congestion cost of crossing one 2-D edge given current demand: unit wire
   cost plus a steeply rising penalty as demand approaches capacity, and a
   large linear term once overflowed so the maze router detours. *)
let edge_cost ~cap ~demand =
  if cap <= 0 then 1.0 +. 200.0
  else begin
    let r = float_of_int (demand + 1) /. float_of_int cap in
    if r <= 1.0 then 1.0 +. (4.0 *. (r ** 5.0))
    else 1.0 +. 30.0 +. (20.0 *. (r -. 1.0) *. float_of_int cap)
  end

let make_planes graph ~demand =
  let w = Graph.width graph and h = Graph.height graph in
  let plane dir ~n ~row =
    let edge i = { Graph.dir; x = i mod row; y = i / row } in
    let cap = Array.init n (fun i -> Graph.capacity_2d graph (edge i)) in
    let dem = Array.init n (fun i -> demand (edge i)) in
    { cap; dem; cost = Array.init n (fun i -> edge_cost ~cap:cap.(i) ~demand:dem.(i)) }
  in
  let ph = plane Tech.Horizontal ~n:((w - 1) * h) ~row:(w - 1) in
  let pv = plane Tech.Vertical ~n:(w * (h - 1)) ~row:w in
  { ph; pv; costs = { Maze.width = w; height = h; h = ph.cost; v = pv.cost } }

(* The plane holding [e] and [e]'s index in it. *)
let locate p (e : Graph.edge2d) =
  let w = p.costs.Maze.width in
  match e.dir with
  | Tech.Horizontal -> (p.ph, (e.y * (w - 1)) + e.x)
  | Tech.Vertical -> (p.pv, (e.y * w) + e.x)

let demand_add p e delta =
  let pl, i = locate p e in
  pl.dem.(i) <- pl.dem.(i) + delta;
  pl.cost.(i) <- edge_cost ~cap:pl.cap.(i) ~demand:pl.dem.(i)

let is_overflowed p e =
  let pl, i = locate p e in
  pl.dem.(i) > pl.cap.(i)

let overflow_2d p =
  let over pl = Array.fold_left ( + ) 0 (Array.mapi (fun i u -> max 0 (u - pl.cap.(i))) pl.dem) in
  over p.ph + over p.pv

(* ---- path utilities ---------------------------------------------------- *)

let unit_edges_of_path path =
  let rec go acc = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
        let e =
          if y0 = y1 then { Graph.dir = Tech.Horizontal; x = min x0 x1; y = y0 }
          else { Graph.dir = Tech.Vertical; x = x0; y = min y0 y1 }
        in
        go (e :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] path

(* Straight-line tile walk between two points sharing a coordinate. *)
let straight (x0, y0) (x1, y1) =
  if x0 = x1 then begin
    let step = if y1 >= y0 then 1 else -1 in
    List.init (abs (y1 - y0) + 1) (fun i -> (x0, y0 + (i * step)))
  end
  else begin
    let step = if x1 >= x0 then 1 else -1 in
    List.init (abs (x1 - x0) + 1) (fun i -> (x0 + (i * step), y0))
  end

let join_paths a b =
  (* concatenate tile paths where a ends at b's head *)
  match b with [] -> a | _ :: tl -> a @ tl

(* Candidate pattern paths from [a] to [b]: two Ls and three Zs. *)
let pattern_paths (ax, ay) (bx, by) =
  if ax = bx || ay = by then [ straight (ax, ay) (bx, by) ]
  else begin
    let l1 = join_paths (straight (ax, ay) (bx, ay)) (straight (bx, ay) (bx, by)) in
    let l2 = join_paths (straight (ax, ay) (ax, by)) (straight (ax, by) (bx, by)) in
    let zs =
      List.concat_map
        (fun frac ->
          let mx = ax + ((bx - ax) * frac / 4) in
          let my = ay + ((by - ay) * frac / 4) in
          let zx =
            if mx = ax || mx = bx then []
            else
              [ join_paths
                  (join_paths (straight (ax, ay) (mx, ay)) (straight (mx, ay) (mx, by)))
                  (straight (mx, by) (bx, by)) ]
          in
          let zy =
            if my = ay || my = by then []
            else
              [ join_paths
                  (join_paths (straight (ax, ay) (ax, my)) (straight (ax, my) (bx, my)))
                  (straight (bx, my) (bx, by)) ]
          in
          zx @ zy)
        [ 2; 1; 3 ]
    in
    l1 :: l2 :: zs
  end

(* Σ of edge costs along a tile path, accumulated in path order. *)
let path_cost (c : Maze.costs) path =
  let rec go acc = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
        let e =
          if y0 = y1 then c.Maze.h.((y0 * (c.Maze.width - 1)) + min x0 x1)
          else c.Maze.v.((min y0 y1 * c.Maze.width) + x0)
        in
        go (acc +. e) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 path

(* ---- per-net routing --------------------------------------------------- *)

let canonical_edge (e : Graph.edge2d) = (e.dir = Tech.Horizontal, e.x, e.y)

(* Connect all pin tiles of [net] into a set of unit edges using pattern
   routing with a maze fallback, scoring unit edges by the cost planes
   [costs]; [ws] is the maze workspace.  Returns the unit-edge list (empty
   when all pins share a tile) and the maze-call count. *)
let build_topology ?(steiner = false) ~costs ~ws net =
  let pins = Net.dedup_pins net.Net.pins in
  let pts = Array.map (fun p -> (p.Net.px, p.Net.py)) pins in
  (* optional topology refinement: Hanan-grid Steiner points join the pin
     set as extra connection targets (they survive tree compression only
     where they actually carry a junction) *)
  let pts =
    if steiner && Array.length pts >= 3 then
      Array.append pts (Array.of_list (Steiner.refine (Array.to_list pts)))
    else pts
  in
  if Array.length pts <= 1 then ([], 0)
  else begin
    let covered = Hashtbl.create 64 in
    let edges = Hashtbl.create 64 in
    let mazes = ref 0 in
    let cover_path path =
      List.iter (fun p -> Hashtbl.replace covered p ()) path;
      List.iter
        (fun e ->
          let key = canonical_edge e in
          if not (Hashtbl.mem edges key) then Hashtbl.replace edges key e)
        (unit_edges_of_path path)
    in
    Hashtbl.replace covered pts.(0) ();
    let remaining = ref (Array.to_list (Array.sub pts 1 (Array.length pts - 1))) in
    (* Pattern path cost also rejects paths that would touch the tree before
       their end (they are truncated at the first touch instead). *)
    let truncate_at_tree path =
      let rec go acc = function
        | [] -> List.rev acc
        | p :: rest ->
            if Hashtbl.mem covered p then List.rev (p :: acc) else go (p :: acc) rest
      in
      go [] path
    in
    while !remaining <> [] do
      (* nearest unconnected pin to the covered set (Manhattan) *)
      let dist_to_tree (x, y) =
        Hashtbl.fold (fun (cx, cy) () acc -> min acc (abs (cx - x) + abs (cy - y))) covered max_int
      in
      let next =
        List.fold_left
          (fun best p ->
            match best with
            | None -> Some (p, dist_to_tree p)
            | Some (_, bd) ->
                let d = dist_to_tree p in
                if d < bd then Some (p, d) else best)
          None !remaining
      in
      let pin, _ =
        match next with Some v -> v | None -> assert false
      in
      remaining := List.filter (fun p -> p <> pin) !remaining;
      if not (Hashtbl.mem covered pin) then begin
        (* closest covered tile as the pattern target *)
        let target =
          Hashtbl.fold
            (fun p () best ->
              let d (x, y) (x', y') = abs (x - x') + abs (y - y') in
              match best with
              | None -> Some p
              | Some q -> if d p pin < d q pin then Some p else best)
            covered None
        in
        let target = match target with Some t -> t | None -> assert false in
        let candidates = List.map truncate_at_tree (pattern_paths pin target) in
        let scored =
          List.map (fun path -> (path_cost costs path, path)) candidates
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let best_cost, best_path =
          match scored with best :: _ -> best | [] -> assert false
        in
        (* A pattern path whose average per-edge cost signals overflow gets
           replaced by a maze search against the whole tree. *)
        let len = max 1 (List.length best_path - 1) in
        let path =
          if best_cost /. float_of_int len <= 8.0 then best_path
          else begin
            incr mazes;
            let targets = Hashtbl.fold (fun p () acc -> p :: acc) covered [] in
            match Maze.route ws costs ~sources:[ pin ] ~targets with
            | Some p -> p
            | None -> best_path
          end
        in
        cover_path path
      end
    done;
    (Hashtbl.fold (fun _ e acc -> e :: acc) edges [], !mazes)
  end

let tree_of_unit_edges net unit_edges =
  match unit_edges with
  | [] -> None
  | edges ->
      let seg_edges =
        List.map
          (fun (e : Graph.edge2d) ->
            match e.dir with
            | Tech.Horizontal -> (((e.x, e.y) : point), ((e.x + 1, e.y) : point))
            | Tech.Vertical -> ((e.x, e.y), (e.x, e.y + 1)))
          edges
      in
      let src = Net.source net in
      let tree = Stree.of_edges ~root:(src.Net.px, src.Net.py) seg_edges in
      let keep = Array.to_list (Array.map (fun p -> (p.Net.px, p.Net.py)) net.Net.pins) in
      Some (Stree.compress ~keep tree)

let cost_planes ~graph ~demand = (make_planes graph ~demand).costs

let route_net ?(steiner = false) ~graph ~demand net =
  let costs = cost_planes ~graph ~demand in
  let unit_edges, _ = build_topology ~steiner ~costs ~ws:(Maze.ws_create ()) net in
  tree_of_unit_edges net unit_edges

(* ---- full design ------------------------------------------------------- *)

let tree_unit_edges tree =
  let acc = ref [] in
  Array.iteri
    (fun i parent ->
      if parent >= 0 then begin
        let path = straight (Stree.node tree i) (Stree.node tree parent) in
        acc := unit_edges_of_path path @ !acc
      end)
    tree.Stree.parent;
  !acc

let route_all ?(rrr_passes = 1) ?(steiner = false) ~graph nets =
  let result_args r =
    [
      ("maze_routes", Cpla_obs.Event.Int r.maze_routes);
      ("overflow_2d", Cpla_obs.Event.Int r.overflow_2d);
    ]
  in
  Cpla_obs.Span.with_ ~name:"route/route_all"
    ~args:[ ("nets", Cpla_obs.Event.Int (Array.length nets)) ]
    ~result_args
  @@ fun () ->
  let planes = make_planes graph ~demand:(fun _ -> 0) in
  let ws = Maze.ws_create () in
  let trees = Array.make (Array.length nets) None in
  let maze_count = ref 0 in
  let order = Array.mapi (fun i n -> (Net.hpwl n, i)) nets in
  Array.sort compare order;
  let route_one i =
    let net = nets.(i) in
    let unit_edges, mazes = build_topology ~steiner ~costs:planes.costs ~ws net in
    maze_count := !maze_count + mazes;
    List.iter (fun e -> demand_add planes e 1) unit_edges;
    trees.(i) <- tree_of_unit_edges net unit_edges
  in
  Array.iter (fun (_, i) -> route_one i) order;
  (* Rip-up and reroute nets that cross overflowed 2-D edges. *)
  for _pass = 1 to rrr_passes do
    if overflow_2d planes > 0 then begin
      Array.iteri
        (fun i tree_opt ->
          match tree_opt with
          | None -> ()
          | Some tree ->
              let edges = tree_unit_edges tree in
              if List.exists (is_overflowed planes) edges then begin
                List.iter (fun e -> demand_add planes e (-1)) edges;
                route_one i
              end)
        trees
    end
  done;
  Cpla_obs.Metrics.incr ~by:!maze_count "route/maze-calls";
  { trees; overflow_2d = overflow_2d planes; maze_routes = !maze_count }
