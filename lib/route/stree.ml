type point = int * int

type t = {
  nodes : point array;
  parent : int array;
  root : int;
}

let axis_aligned ((x0, y0) : point) ((x1, y1) : point) = x0 = x1 || y0 = y1

(* Point-keyed tables for lookups only (nothing iterates them), hashed
   without the generic hash's C call. *)
module Point_tbl = Hashtbl.Make (struct
  type t = point

  let equal ((x0, y0) : t) (x1, y1) = x0 = x1 && y0 = y1

  let hash ((x, y) : t) = ((x * 65599) + y) land max_int
end)

(* The tree over [nodes], rooted at node 0, whose undirected edges join
   [a.(k)] and [b.(k)], with [of_edges]'s checks.  The parent of every other
   node is its neighbour on the way to the root, so the result does not
   depend on the edge order.  [nodes] becomes the tree's node array. *)
let of_node_edges nodes a b =
  let n = Array.length nodes and m = Array.length a in
  for k = 0 to m - 1 do
    if not (axis_aligned nodes.(a.(k)) nodes.(b.(k))) then
      invalid_arg "Stree.of_edges: edge not axis-aligned";
    if a.(k) = b.(k) then invalid_arg "Stree.of_edges: zero-length edge"
  done;
  if m <> n - 1 then invalid_arg "Stree.of_edges: edge count does not match a tree";
  (* adjacency in compressed-row form: node u's neighbours are
     adj.(start.(u)) .. adj.(start.(u+1)-1) *)
  let start = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    start.(a.(k) + 1) <- start.(a.(k) + 1) + 1;
    start.(b.(k) + 1) <- start.(b.(k) + 1) + 1
  done;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let fill = Array.sub start 0 n and adj = Array.make (2 * m) 0 in
  for k = 0 to m - 1 do
    adj.(fill.(a.(k))) <- b.(k);
    fill.(a.(k)) <- fill.(a.(k)) + 1;
    adj.(fill.(b.(k))) <- a.(k);
    fill.(b.(k)) <- fill.(b.(k)) + 1
  done;
  (* BFS from the root to orient parents and check connectivity; [fill] is
     reused as the queue. *)
  let parent = Array.make n (-2) in
  parent.(0) <- -1;
  let queue = fill in
  queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for j = start.(u) to start.(u + 1) - 1 do
      let v = adj.(j) in
      if parent.(v) = -2 then begin
        parent.(v) <- u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail <> n then invalid_arg "Stree.of_edges: edges are not connected";
  { nodes; parent; root = 0 }

let of_edges ~root edges =
  (* Nodes are numbered in order of first appearance: the root, then each
     edge's endpoints in list order, the second endpoint before the first
     (the order in which the tuple [(intern a, intern b)] used to evaluate
     them). *)
  let m = List.length edges in
  let index = Point_tbl.create 64 in
  let nodes = Array.make ((2 * m) + 1) root and count = ref 0 in
  let intern p =
    match Point_tbl.find_opt index p with
    | Some i -> i
    | None ->
        let i = !count in
        Point_tbl.add index p i;
        nodes.(i) <- p;
        incr count;
        i
  in
  ignore (intern root);
  let a = Array.make m 0 and b = Array.make m 0 in
  List.iteri
    (fun k (p, q) ->
      b.(k) <- intern q;
      a.(k) <- intern p)
    edges;
  of_node_edges (Array.sub nodes 0 !count) a b

let num_nodes t = Array.length t.nodes

let node t i = t.nodes.(i)

let children t =
  let n = num_nodes t in
  let count = Array.make n 0 in
  Array.iter (fun p -> if p >= 0 then count.(p) <- count.(p) + 1) t.parent;
  let kids = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        kids.(p).(count.(p)) <- i;
        count.(p) <- count.(p) + 1
      end)
    t.parent;
  kids

let edge_length t i =
  let p = t.parent.(i) in
  if p < 0 then invalid_arg "Stree.edge_length: root has no parent edge";
  let x0, y0 = t.nodes.(i) and x1, y1 = t.nodes.(p) in
  abs (x1 - x0) + abs (y1 - y0)

let total_wirelength t =
  let acc = ref 0 in
  for i = 0 to num_nodes t - 1 do
    if t.parent.(i) >= 0 then acc := !acc + edge_length t i
  done;
  !acc

let find_node_xy t x y =
  let nodes = t.nodes in
  let rec go i =
    if i = Array.length nodes then -1
    else begin
      let px, py = nodes.(i) in
      if px = x && py = y then i else go (i + 1)
    end
  in
  go 0

let find_node t (x, y) =
  let i = find_node_xy t x y in
  if i < 0 then None else Some i

let on_edge (x, y) (x0, y0) (x1, y1) =
  if x0 = x1 then x = x0 && y >= min y0 y1 && y <= max y0 y1
  else y = y0 && x >= min x0 x1 && x <= max x0 x1

let contains_point t p =
  Array.exists (fun q -> q = p) t.nodes
  ||
  let hit = ref false in
  Array.iteri
    (fun i par -> if par >= 0 && on_edge p t.nodes.(i) t.nodes.(par) then hit := true)
    t.parent;
  !hit

let path_to_root t i =
  let rec go acc j = if j < 0 then List.rev acc else go (j :: acc) t.parent.(j) in
  go [] i

let degree t =
  let d = Array.make (num_nodes t) 0 in
  Array.iteri
    (fun i p ->
      if p >= 0 then begin
        d.(i) <- d.(i) + 1;
        d.(p) <- d.(p) + 1
      end)
    t.parent;
  d

let compress ~keep t =
  let keep_tbl = Point_tbl.create 16 in
  List.iter (fun p -> Point_tbl.replace keep_tbl p ()) keep;
  let d = degree t in
  let n = num_nodes t in
  (* A node is dissolvable when it has exactly one child, one parent, both
     edges are collinear, and it is neither the root nor a kept pin tile. *)
  let nkids = Array.make n 0 and kid = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      nkids.(p) <- nkids.(p) + 1;
      kid.(p) <- i
    end
  done;
  let dissolve = Array.make n false and edges = ref 0 in
  for i = 0 to n - 1 do
    if i <> t.root && d.(i) = 2 && nkids.(i) = 1 && not (Point_tbl.mem keep_tbl t.nodes.(i)) then begin
      let child = kid.(i) and par = t.parent.(i) in
      let cx, cy = t.nodes.(child) and px, py = t.nodes.(par) and x, y = t.nodes.(i) in
      let collinear = (cx = x && px = x) || (cy = y && py = y) in
      if collinear then dissolve.(i) <- true
    end;
    if (not dissolve.(i)) && t.parent.(i) >= 0 then incr edges
  done;
  if !edges = 0 then t
  else begin
    (* Join each kept non-root node to its nearest kept ancestor.  The kept
       nodes are numbered as [of_edges] numbered the edges re-emitted from
       the highest node index down: the root, then each edge's ancestor end
       before the node itself. *)
    let rec kept_ancestor j =
      let p = t.parent.(j) in
      if p >= 0 && dissolve.(p) then kept_ancestor p else p
    in
    let fresh = Array.make n (-1) and nodes = Array.make (!edges + 1) t.nodes.(t.root) and count = ref 0 in
    let number i =
      if fresh.(i) < 0 then begin
        fresh.(i) <- !count;
        nodes.(!count) <- t.nodes.(i);
        incr count
      end;
      fresh.(i)
    in
    ignore (number t.root);
    let a = Array.make !edges 0 and b = Array.make !edges 0 and m = ref 0 in
    for i = n - 1 downto 0 do
      if (not dissolve.(i)) && t.parent.(i) >= 0 then begin
        b.(!m) <- number (kept_ancestor i);
        a.(!m) <- number i;
        incr m
      end
    done;
    of_node_edges nodes a b
  end

let validate t =
  let n = num_nodes t in
  let seen = Hashtbl.create n in
  let dup = ref None in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p && !dup = None then dup := Some p else Hashtbl.replace seen p ())
    t.nodes;
  match !dup with
  | Some (x, y) -> Error (Printf.sprintf "duplicate node coordinate (%d,%d)" x y)
  | None ->
      let roots = ref 0 and bad = ref None in
      Array.iteri
        (fun i p ->
          if p = -1 then incr roots
          else if p < 0 || p >= n then bad := Some (Printf.sprintf "node %d: bad parent" i)
          else begin
            if not (axis_aligned t.nodes.(i) t.nodes.(p)) then
              bad := Some (Printf.sprintf "node %d: edge not axis-aligned" i);
            if t.nodes.(i) = t.nodes.(p) then
              bad := Some (Printf.sprintf "node %d: zero-length edge" i)
          end)
        t.parent;
      if !roots <> 1 then Error (Printf.sprintf "%d roots" !roots)
      else begin
        match !bad with
        | Some msg -> Error msg
        | None ->
            (* acyclicity: walking up from every node must terminate *)
            let ok = ref true in
            for i = 0 to n - 1 do
              let steps = ref 0 and j = ref i in
              while !j >= 0 && !steps <= n do
                j := t.parent.(!j);
                incr steps
              done;
              if !steps > n then ok := false
            done;
            if !ok then Ok () else Error "cycle in parent pointers"
      end
