open Cpla_grid

type t = {
  net_id : int;
  node : int;
  dir : Tech.dir;
  len : int;
  edges : Graph.edge2d array;
}

let edges_between (x0, y0) (x1, y1) =
  if y0 = y1 then
    Array.init (abs (x1 - x0)) (fun i -> { Graph.dir = Tech.Horizontal; x = min x0 x1 + i; y = y0 })
  else
    Array.init (abs (y1 - y0)) (fun i -> { Graph.dir = Tech.Vertical; x = x0; y = min y0 y1 + i })

let extract ~net_id tree =
  let n = Stree.num_nodes tree and parent = tree.Stree.parent in
  (* segment k covers the edge above the k-th non-root node, in node order *)
  let node_to_seg = Array.make n (-1) and seg_node = Array.make n 0 and count = ref 0 in
  for node = 0 to n - 1 do
    if parent.(node) >= 0 then begin
      node_to_seg.(node) <- !count;
      seg_node.(!count) <- node;
      incr count
    end
  done;
  let segs =
    Array.init !count (fun k ->
        let node = seg_node.(k) in
        let (x0, y0) as a = Stree.node tree node in
        let (x1, y1) as b = Stree.node tree parent.(node) in
        let dir = if y0 = y1 then Tech.Horizontal else Tech.Vertical in
        let len = abs (x1 - x0) + abs (y1 - y0) in
        { net_id; node; dir; len; edges = edges_between a b })
  in
  (segs, node_to_seg)

let midpoint seg =
  let e = seg.edges.(Array.length seg.edges / 2) in
  (e.Graph.x, e.Graph.y)

let endpoints seg tree =
  (Stree.node tree seg.node, Stree.node tree tree.Stree.parent.(seg.node))
