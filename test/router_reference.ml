(* Reference pattern scorer: the list-building candidate generation and
   scoring that Router's in-place walk replaced, kept verbatim.  Each L/Z
   candidate is materialised as a tile list, cut at its first covered tile,
   costed in path order, and the candidates are stably sorted by cost.  The
   in-place scorer must pick the same path with the same cost on every
   input, ties included, so this copy pins its output. *)

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
let path_cost (c : Cpla_route.Maze.costs) path =
  let rec go acc = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
        let e =
          if y0 = y1 then c.Cpla_route.Maze.h.((y0 * (c.Cpla_route.Maze.width - 1)) + min x0 x1)
          else c.Cpla_route.Maze.v.((min y0 y1 * c.Cpla_route.Maze.width) + x0)
        in
        go (acc +. e) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 path

(* Pattern path cost also rejects paths that would touch the tree before
   their end (they are truncated at the first touch instead). *)
let truncate_at_tree covered path =
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if Hashtbl.mem covered p then List.rev (p :: acc) else go (p :: acc) rest
  in
  go [] path

(* The cheapest truncated candidate from [pin] toward [target] and its
   cost, as the router chose it before the in-place walk. *)
let best_pattern costs ~covered pin target =
  let tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace tbl p ()) covered;
  let candidates = List.map (truncate_at_tree tbl) (pattern_paths pin target) in
  let scored =
    List.map (fun path -> (path_cost costs path, path)) candidates
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  match scored with (cost, path) :: _ -> (path, cost) | [] -> assert false
