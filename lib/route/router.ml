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
let[@inline] edge_cost ~cap ~demand =
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

(* A unit edge is named by its code: horizontal edge i of the plane layout
   is code i, vertical edge i is code [nh + i] with [nh] the number of
   horizontal edges. *)
let num_h p = Array.length p.ph.dem

let bump pl i delta =
  pl.dem.(i) <- pl.dem.(i) + delta;
  pl.cost.(i) <- edge_cost ~cap:pl.cap.(i) ~demand:pl.dem.(i)

let demand_add p code delta =
  let nh = num_h p in
  if code < nh then bump p.ph code delta else bump p.pv (code - nh) delta

let is_overflowed p code =
  let nh = num_h p in
  if code < nh then p.ph.dem.(code) > p.ph.cap.(code)
  else p.pv.dem.(code - nh) > p.pv.cap.(code - nh)

let overflow_2d p =
  let over pl =
    let acc = ref 0 in
    Array.iteri (fun i u -> acc := !acc + max 0 (u - pl.cap.(i))) pl.dem;
    !acc
  in
  over p.ph + over p.pv

(* ---- per-net routing --------------------------------------------------- *)

(* Routing state reused across the nets of one grid.  A tile is covered
   (on the current net's tree) when [tile.(t) = stamp] and a unit edge is
   on it when [edge.(code) = stamp], so bumping [stamp] clears both for the
   next net.

   Two hash tables stay because their iteration order is observable:
   - [covered]: the pattern target is the first covered tile, in
     [Hashtbl.iter] order, at the smallest Manhattan distance from the pin;
   - [edges]: the unit edges reach [Stree.of_edges] in (reversed)
     [Hashtbl.fold] order, which fixes the tree's node numbering.
   Both get exactly the insertions a fresh [Hashtbl.create 64] per net got,
   and [Hashtbl.reset] returns a table to that fresh state, so the orders
   (and every tie they break) are unchanged. *)
type ws = {
  maze : Maze.ws;
  width : int;
  height : int;
  nh : int;
  mutable stamp : int;
  tile : int array;
  edge : int array;
  pin : int array;  (* pin tile of the current net when = stamp *)
  covered : (point, unit) Hashtbl.t;
  edges : (bool * int * int, int) Hashtbl.t;
  mutable cov_list : point list;  (* covered tiles, newest first *)
  (* connection targets after the first pin: tile, distance to the nearest
     covered tile, and whether still unconnected *)
  mutable rx : int array;
  mutable ry : int array;
  mutable near : int array;
  mutable live : bool array;
  mutable n_rem : int;
  mutable n_live : int;
  (* the cheapest pattern candidate so far: corner count (0 = none), inner
     corners, tiles walked up to the first covered one *)
  mutable b_corners : int;
  mutable b1x : int;
  mutable b1y : int;
  mutable b2x : int;
  mutable b2y : int;
  mutable b_tiles : int;
  score : float array;  (* [|last walked cost; best cost|] *)
  mutable codes : int array;  (* the net's unit-edge codes, tree order *)
  mutable n_codes : int;
}

let ws_create ~width ~height =
  let nh = (width - 1) * height in
  {
    maze = Maze.ws_create ();
    width;
    height;
    nh;
    stamp = 0;
    tile = Array.make (width * height) 0;
    edge = Array.make (nh + (width * (height - 1))) 0;
    pin = Array.make (width * height) 0;
    covered = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    cov_list = [];
    rx = Array.make 16 0;
    ry = Array.make 16 0;
    near = Array.make 16 0;
    live = Array.make 16 false;
    n_rem = 0;
    n_live = 0;
    b_corners = 0;
    b1x = 0;
    b1y = 0;
    b2x = 0;
    b2y = 0;
    b_tiles = 0;
    score = [| 0.0; 0.0 |];
    codes = Array.make 64 0;
    n_codes = 0;
  }

let add_target ws x y =
  if ws.n_rem = Array.length ws.rx then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 ws.n_rem;
      b
    in
    ws.rx <- grow ws.rx 0;
    ws.ry <- grow ws.ry 0;
    ws.near <- grow ws.near 0;
    ws.live <- grow ws.live false
  end;
  ws.rx.(ws.n_rem) <- x;
  ws.ry.(ws.n_rem) <- y;
  ws.near.(ws.n_rem) <- max_int;
  ws.live.(ws.n_rem) <- true;
  ws.n_rem <- ws.n_rem + 1;
  ws.n_live <- ws.n_live + 1

(* Put tile (x, y) on the tree; each unconnected target's distance to the
   tree can only shrink to its distance from this tile. *)
let cover_tile ws x y =
  let t = (y * ws.width) + x in
  if ws.tile.(t) <> ws.stamp then begin
    ws.tile.(t) <- ws.stamp;
    let p = (x, y) in
    Hashtbl.add ws.covered p ();
    ws.cov_list <- p :: ws.cov_list;
    for j = 0 to ws.n_rem - 1 do
      if ws.live.(j) then begin
        let d = abs (ws.rx.(j) - x) + abs (ws.ry.(j) - y) in
        if d < ws.near.(j) then ws.near.(j) <- d
      end
    done
  end

(* Put the unit edge between neighbouring tiles (x0, y0) and (x1, y1) on
   the tree. *)
let cover_edge ws x0 y0 x1 y1 =
  let horizontal = y0 = y1 in
  let x = if horizontal && x1 < x0 then x1 else x0 and y = if (not horizontal) && y1 < y0 then y1 else y0 in
  let code = if horizontal then (y * (ws.width - 1)) + x else ws.nh + (y * ws.width) + x in
  if ws.edge.(code) <> ws.stamp then begin
    ws.edge.(code) <- ws.stamp;
    Hashtbl.add ws.edges (horizontal, x, y) code
  end

let cover_path ws path =
  let rec go = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
        cover_tile ws x0 y0;
        cover_edge ws x0 y0 x1 y1;
        go rest
    | [ (x, y) ] -> cover_tile ws x y
    | [] -> ()
  in
  go path

(* Walk the pattern path through corners (ax, ay), (x1, y1), (x2, y2),
   (bx, by) — the first [corners] of them, the last one being (bx, by)
   whatever the count — tile by tile, stopping at the first covered tile.
   Returns the number of tiles walked and leaves the Σ of the crossed edge
   costs, summed in path order, in [ws.score.(0)].  Consecutive corners
   share a coordinate and lie inside the grid. *)
let walk ws (c : Maze.costs) corners ax ay x1 y1 x2 y2 bx by =
  let w = c.Maze.width and h = c.Maze.h and v = c.Maze.v in
  let tile = ws.tile and stamp = ws.stamp in
  let acc = ref 0.0 and n = ref 1 and x = ref ax and y = ref ay in
  let stop = ref (Array.unsafe_get tile ((ay * w) + ax) = stamp) in
  let leg = ref 1 in
  while (not !stop) && !leg < corners do
    let last = !leg = corners - 1 in
    let tx = if last then bx else if !leg = 1 then x1 else x2 in
    let ty = if last then by else if !leg = 1 then y1 else y2 in
    while (not !stop) && (!x <> tx || !y <> ty) do
      if !x < tx then begin
        acc := !acc +. Array.unsafe_get h ((!y * (w - 1)) + !x);
        incr x
      end
      else if !x > tx then begin
        acc := !acc +. Array.unsafe_get h ((!y * (w - 1)) + !x - 1);
        decr x
      end
      else if !y < ty then begin
        acc := !acc +. Array.unsafe_get v ((!y * w) + !x);
        incr y
      end
      else begin
        acc := !acc +. Array.unsafe_get v (((!y - 1) * w) + !x);
        decr y
      end;
      incr n;
      if Array.unsafe_get tile ((!y * w) + !x) = stamp then stop := true
    done;
    incr leg
  done;
  Array.unsafe_set ws.score 0 !acc;
  !n
[@@cpla.zero_alloc]

(* Score one candidate; it becomes the best unless an earlier one is at
   most as cheap under [Float.compare], so the first cheapest candidate
   wins, as in a stable sort by cost. *)
let consider ws c corners ax ay x1 y1 x2 y2 bx by =
  let n = walk ws c corners ax ay x1 y1 x2 y2 bx by in
  let cost = Array.unsafe_get ws.score 0 in
  if ws.b_corners = 0 || Float.compare cost (Array.unsafe_get ws.score 1) < 0 then begin
    Array.unsafe_set ws.score 1 cost;
    ws.b_corners <- corners;
    ws.b1x <- x1;
    ws.b1y <- y1;
    ws.b2x <- x2;
    ws.b2y <- y2;
    ws.b_tiles <- n
  end
[@@cpla.zero_alloc]

(* The two Zs through the [frac]/4 cut between a and b, each skipped when
   its cut falls on a or b's coordinate. *)
let consider_zs ws c ax ay bx by frac =
  let mx = ax + ((bx - ax) * frac / 4) and my = ay + ((by - ay) * frac / 4) in
  if not (mx = ax || mx = bx) then consider ws c 4 ax ay mx ay mx by bx by;
  if not (my = ay || my = by) then consider ws c 4 ax ay ax my bx my bx by
[@@cpla.zero_alloc]

(* Score the pattern candidates from a to b in order — the straight run
   when a and b share a coordinate, else two Ls and up to six Zs — each
   truncated at its first covered tile, and keep the first cheapest. *)
let score_patterns ws c ax ay bx by =
  ws.b_corners <- 0;
  if ax = bx || ay = by then consider ws c 2 ax ay 0 0 0 0 bx by
  else begin
    consider ws c 3 ax ay bx ay 0 0 bx by;
    consider ws c 3 ax ay ax by 0 0 bx by;
    consider_zs ws c ax ay bx by 2;
    consider_zs ws c ax ay bx by 1;
    consider_zs ws c ax ay bx by 3
  end
[@@cpla.zero_alloc]

(* Apply [f] to the best candidate's first [b_tiles] tiles, in path
   order. *)
let iter_best ws ax ay bx by f =
  let corners = ws.b_corners in
  let x = ref ax and y = ref ay and left = ref (ws.b_tiles - 1) and leg = ref 1 in
  f ax ay;
  while !left > 0 do
    let last = !leg = corners - 1 in
    let tx = if last then bx else if !leg = 1 then ws.b1x else ws.b2x in
    let ty = if last then by else if !leg = 1 then ws.b1y else ws.b2y in
    while !left > 0 && (!x <> tx || !y <> ty) do
      if !x < tx then incr x else if !x > tx then decr x else if !y < ty then incr y else decr y;
      f !x !y;
      decr left
    done;
    incr leg
  done

(* Cover the best candidate's tiles and the edges between them. *)
let cover_best ws ax ay bx by =
  let px = ref ax and py = ref ay in
  iter_best ws ax ay bx by (fun x y ->
      cover_tile ws x y;
      if x <> !px || y <> !py then cover_edge ws !px !py x y;
      px := x;
      py := y)

let best_pattern (c : Maze.costs) ~covered (ax, ay) (bx, by) =
  let w = c.Maze.width and hgt = c.Maze.height in
  if Array.length c.Maze.h < (w - 1) * hgt || Array.length c.Maze.v < w * (hgt - 1) then
    invalid_arg "Router.best_pattern: cost planes smaller than the grid";
  let inside x y = x >= 0 && x < w && y >= 0 && y < hgt in
  if not (inside ax ay && inside bx by && List.for_all (fun (x, y) -> inside x y) covered) then
    invalid_arg "Router.best_pattern: point outside the grid";
  let ws = ws_create ~width:w ~height:hgt in
  ws.stamp <- 1;
  List.iter (fun (x, y) -> ws.tile.((y * w) + x) <- 1) covered;
  score_patterns ws c ax ay bx by;
  let path = ref [] in
  iter_best ws ax ay bx by (fun x y -> path := (x, y) :: !path);
  (List.rev !path, ws.score.(1), ws.b_tiles - 1)

exception Target_found

(* The first covered tile, in [covered]'s iteration order, at distance
   [d] — the smallest — from (px, py). *)
let pattern_target ws px py d =
  let target = ref (px, py) in
  (try
     Hashtbl.iter
       (fun ((x, y) as p) () ->
         if abs (x - px) + abs (y - py) = d then begin
           target := p;
           raise_notrace Target_found
         end)
       ws.covered
   with Target_found -> ());
  !target

(* Connect all pin tiles of [net] by unit edges using pattern routing with a
   maze fallback, scoring unit edges by the cost planes [costs].  Leaves
   the unit-edge codes in [ws.codes] (none when all pins share a tile) and
   returns the maze-call count. *)
let build_topology ?(steiner = false) ~costs ws net =
  let w = ws.width and hgt = ws.height in
  ws.stamp <- ws.stamp + 1;
  Hashtbl.reset ws.covered;
  Hashtbl.reset ws.edges;
  ws.cov_list <- [];
  ws.n_rem <- 0;
  ws.n_live <- 0;
  ws.n_codes <- 0;
  (* distinct pin tiles in pin order: the first seeds the tree, the others
     are connection targets *)
  let sx = ref (-1) and sy = ref (-1) in
  Array.iter
    (fun p ->
      let x = p.Net.px and y = p.Net.py in
      if x < 0 || x >= w || y < 0 || y >= hgt then invalid_arg "Router: pin outside the grid";
      let t = (y * w) + x in
      if ws.pin.(t) <> ws.stamp then begin
        ws.pin.(t) <- ws.stamp;
        if !sx < 0 then begin
          sx := x;
          sy := y
        end
        else add_target ws x y
      end)
    net.Net.pins;
  (* optional topology refinement: Hanan-grid Steiner points join the pin
     set as extra connection targets (they survive tree compression only
     where they actually carry a junction) *)
  if steiner && ws.n_rem >= 2 then begin
    let pins = ref [] in
    for j = ws.n_rem - 1 downto 0 do
      pins := (ws.rx.(j), ws.ry.(j)) :: !pins
    done;
    List.iter (fun (x, y) -> add_target ws x y) (Steiner.refine ((!sx, !sy) :: !pins))
  end;
  (* covering the seed sets every target's distance to the tree *)
  cover_tile ws !sx !sy;
  let mazes = ref 0 in
  while ws.n_live > 0 do
    (* nearest unconnected target to the tree (Manhattan), first on ties *)
    let best = ref (-1) in
    for j = 0 to ws.n_rem - 1 do
      if ws.live.(j) && (!best < 0 || ws.near.(j) < ws.near.(!best)) then best := j
    done;
    let px = ws.rx.(!best) and py = ws.ry.(!best) and d = ws.near.(!best) in
    for j = 0 to ws.n_rem - 1 do
      if ws.live.(j) && ws.rx.(j) = px && ws.ry.(j) = py then begin
        ws.live.(j) <- false;
        ws.n_live <- ws.n_live - 1
      end
    done;
    if d > 0 then begin
      (* closest covered tile as the pattern target *)
      let tx, ty = pattern_target ws px py d in
      score_patterns ws costs px py tx ty;
      (* A pattern path whose average per-edge cost signals overflow gets
         replaced by a maze search against the whole tree. *)
      let len = max 1 (ws.b_tiles - 1) in
      if ws.score.(1) /. float_of_int len <= 8.0 then cover_best ws px py tx ty
      else begin
        incr mazes;
        match Maze.route ws.maze costs ~sources:[ (px, py) ] ~targets:ws.cov_list with
        | Some p -> cover_path ws p
        | None -> cover_best ws px py tx ty
      end
    end
  done;
  let m = Hashtbl.length ws.edges in
  if Array.length ws.codes < m then ws.codes <- Array.make (2 * m) 0;
  let codes = ws.codes in
  ignore
    (Hashtbl.fold
       (fun _ code k ->
         codes.(k) <- code;
         k - 1)
       ws.edges (m - 1));
  ws.n_codes <- m;
  !mazes

(* The net's Steiner tree from the unit edges [build_topology] left in
   [ws.codes], in that order, with the pin tiles kept as nodes. *)
let net_tree ws net =
  if ws.n_codes = 0 then None
  else begin
    let w = ws.width and nh = ws.nh in
    let edges = ref [] in
    for k = ws.n_codes - 1 downto 0 do
      let code = ws.codes.(k) in
      let e =
        if code < nh then begin
          let x = code mod (w - 1) and y = code / (w - 1) in
          (((x, y) : point), ((x + 1, y) : point))
        end
        else begin
          let x = (code - nh) mod w and y = (code - nh) / w in
          ((x, y), (x, y + 1))
        end
      in
      edges := e :: !edges
    done;
    let src = Net.source net in
    let tree = Stree.of_edges ~root:(src.Net.px, src.Net.py) !edges in
    let keep = Array.to_list (Array.map (fun p -> (p.Net.px, p.Net.py)) net.Net.pins) in
    Some (Stree.compress ~keep tree)
  end

let cost_planes ~graph ~demand = (make_planes graph ~demand).costs

let route_net ?(steiner = false) ~graph ~demand net =
  let costs = cost_planes ~graph ~demand in
  let ws = ws_create ~width:(Graph.width graph) ~height:(Graph.height graph) in
  ignore (build_topology ~steiner ~costs ws net);
  net_tree ws net

(* ---- full design ------------------------------------------------------- *)

(* Apply [f] to the code of every unit edge under [tree]'s edges. *)
let iter_tree_codes p tree f =
  let w = p.costs.Maze.width and nh = num_h p in
  Array.iteri
    (fun i parent ->
      if parent >= 0 then begin
        let x0, y0 = Stree.node tree i and x1, y1 = Stree.node tree parent in
        if x0 = x1 then
          for y = min y0 y1 to max y0 y1 - 1 do
            f (nh + (y * w) + x0)
          done
        else
          for x = min x0 x1 to max x0 x1 - 1 do
            f ((y0 * (w - 1)) + x)
          done
      end)
    tree.Stree.parent

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
  let ws = ws_create ~width:(Graph.width graph) ~height:(Graph.height graph) in
  let trees = Array.make (Array.length nets) None in
  let maze_count = ref 0 in
  let order = Array.mapi (fun i n -> (Net.hpwl n, i)) nets in
  Array.sort compare order;
  let route_one i =
    let net = nets.(i) in
    maze_count := !maze_count + build_topology ~steiner ~costs:planes.costs ws net;
    for k = 0 to ws.n_codes - 1 do
      demand_add planes ws.codes.(k) 1
    done;
    trees.(i) <- net_tree ws net
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
              let over = ref false in
              iter_tree_codes planes tree (fun code -> if is_overflowed planes code then over := true);
              if !over then begin
                iter_tree_codes planes tree (fun code -> demand_add planes code (-1));
                route_one i
              end)
        trees
    end
  done;
  Cpla_obs.Metrics.incr ~by:!maze_count "route/maze-calls";
  { trees; overflow_2d = overflow_2d planes; maze_routes = !maze_count }
