open Cpla_grid

type per_net = {
  tree : Stree.t option;
  segs : Segment.t array;
  node_to_seg : int array;
  layers : int array; (* per segment; -1 = unassigned *)
  pins_at_node : int list array; (* per tree node: pin layers at that tile *)
  children : int array array; (* per tree node: child node indices *)
  sink_nodes : (int * int) array; (* per non-source pin: (tree node, pin layer) *)
  mutable generation : int; (* bumped on every layer mutation of this net *)
}

type t = {
  graph : Graph.t;
  nets : Net.t array;
  data : per_net array;
}

let build_per_net net tree_opt =
  match tree_opt with
  | None ->
      {
        tree = None;
        segs = [||];
        node_to_seg = [||];
        layers = [||];
        pins_at_node = [||];
        children = [||];
        sink_nodes = [||];
        generation = 0;
      }
  | Some tree ->
      let segs, node_to_seg = Segment.extract ~net_id:net.Net.id tree in
      let pins_at_node = Array.make (Stree.num_nodes tree) [] in
      Array.iter
        (fun p ->
          match Stree.find_node tree (p.Net.px, p.Net.py) with
          | Some i -> pins_at_node.(i) <- p.Net.pl :: pins_at_node.(i)
          | None ->
              (* Pin tiles are kept as nodes by the router's compress step;
                 a miss means the tree does not belong to this net. *)
              invalid_arg "Assignment.create: pin tile is not a tree node")
        net.Net.pins;
      let children = Stree.children tree in
      let src = Net.source net in
      let sink_nodes =
        Array.to_list net.Net.pins
        |> List.filter_map (fun p ->
               if p.Net.px = src.Net.px && p.Net.py = src.Net.py then None
               else
                 Stree.find_node tree (p.Net.px, p.Net.py)
                 |> Option.map (fun i -> (i, p.Net.pl)))
        |> Array.of_list
      in
      {
        tree = Some tree;
        segs;
        node_to_seg;
        layers = Array.make (Array.length segs) (-1);
        pins_at_node;
        children;
        sink_nodes;
        generation = 0;
      }

let create ~graph ~nets ~trees =
  if Array.length nets <> Array.length trees then
    invalid_arg "Assignment.create: nets/trees length mismatch";
  { graph; nets; data = Array.map2 build_per_net nets trees }

let graph t = t.graph
let tech t = Graph.tech t.graph
let num_nets t = Array.length t.nets
let net t i = t.nets.(i)
let tree t i = t.data.(i).tree
let segments t i = t.data.(i).segs
let node_to_seg t i = t.data.(i).node_to_seg
let children t i = t.data.(i).children
let sink_nodes t i = t.data.(i).sink_nodes
let generation t i = t.data.(i).generation

let layer t ~net ~seg = t.data.(net).layers.(seg)

let pin_layers_at t ~net ~node = t.data.(net).pins_at_node.(node)

(* Tree edges incident to [node]: the node's own parent edge plus every
   child edge. *)
let incident_segs d node =
  let own = if d.node_to_seg.(node) >= 0 then [ d.node_to_seg.(node) ] else [] in
  own @ Array.to_list (Array.map (fun child -> d.node_to_seg.(child)) d.children.(node))

let node_span_of d node =
  let seg_layers =
    incident_segs d node
    |> List.filter_map (fun s -> if d.layers.(s) >= 0 then Some d.layers.(s) else None)
  in
  if seg_layers = [] then None
  else begin
    let all = seg_layers @ d.pins_at_node.(node) in
    let lo = List.fold_left min max_int all and hi = List.fold_left max min_int all in
    if lo = hi then None else Some (lo, hi)
  end

let apply_span t d node delta =
  match (node_span_of d node, d.tree) with
  | None, _ | _, None -> ()
  | Some (lo, hi), Some tr ->
      let x, y = Stree.node tr node in
      for crossing = lo to hi - 1 do
        Graph.add_via_usage t.graph ~x ~y ~crossing delta
      done

let apply_wires t d seg_idx delta =
  let l = d.layers.(seg_idx) in
  if l >= 0 then
    Array.iter (fun e -> Graph.add_usage t.graph e ~layer:l delta) d.segs.(seg_idx).Segment.edges

let set_layer t ~net ~seg ~layer =
  let d = t.data.(net) in
  let s = d.segs.(seg) in
  if Tech.layer_dir (tech t) layer <> s.Segment.dir then
    invalid_arg "Assignment.set_layer: direction mismatch";
  if d.layers.(seg) <> layer then begin
    let tr = match d.tree with Some tr -> tr | None -> assert false in
    let nodes = [ s.Segment.node; tr.Stree.parent.(s.Segment.node) ] in
    List.iter (fun n -> apply_span t d n (-1)) nodes;
    apply_wires t d seg (-1);
    d.layers.(seg) <- layer;
    d.generation <- d.generation + 1;
    apply_wires t d seg 1;
    List.iter (fun n -> apply_span t d n 1) nodes
  end

let unassign t ~net ~seg =
  let d = t.data.(net) in
  if d.layers.(seg) >= 0 then begin
    let s = d.segs.(seg) in
    let tr = match d.tree with Some tr -> tr | None -> assert false in
    let nodes = [ s.Segment.node; tr.Stree.parent.(s.Segment.node) ] in
    List.iter (fun n -> apply_span t d n (-1)) nodes;
    apply_wires t d seg (-1);
    d.layers.(seg) <- -1;
    d.generation <- d.generation + 1;
    List.iter (fun n -> apply_span t d n 1) nodes
  end

let unassign_net t i =
  Array.iteri (fun seg _ -> unassign t ~net:i ~seg) t.data.(i).layers

let fully_assigned t =
  Array.for_all (fun d -> Array.for_all (fun l -> l >= 0) d.layers) t.data

let check_usage t =
  let g = t.graph in
  let nl = Graph.num_layers g in
  (* Recompute the expected usage into a blank graph of the same shape, whose
     flat per-layer edge and per-crossing via arrays count it without a
     boxed key per entry.  Every entry goes through the same [Graph] calls
     as [apply_wires]/[apply_span], so none can fall off the grid. *)
  let expected =
    Graph.create ~tech:(tech t) ~width:(Graph.width g) ~height:(Graph.height g)
      ~layer_capacity:(Array.make nl 0)
  in
  Array.iter
    (fun d ->
      Array.iteri
        (fun i seg ->
          let l = d.layers.(i) in
          if l >= 0 then
            Array.iter (fun e -> Graph.add_usage expected e ~layer:l 1) seg.Segment.edges)
        d.segs;
      match d.tree with
      | None -> ()
      | Some tr ->
          for node = 0 to Stree.num_nodes tr - 1 do
            match node_span_of d node with
            | None -> ()
            | Some (lo, hi) ->
                let x, y = Stree.node tr node in
                for crossing = lo to hi - 1 do
                  Graph.add_via_usage expected ~x ~y ~crossing 1
                done
          done)
    t.data;
  let err = ref None in
  Graph.iter_edges g (fun e ->
      List.iter
        (fun l ->
          let want = Graph.usage expected e ~layer:l in
          let got = Graph.usage g e ~layer:l in
          if want <> got && !err = None then
            err :=
              Some
                (Printf.sprintf "edge (%d,%d) layer %d: expected usage %d, graph says %d"
                   e.Graph.x e.Graph.y l want got))
        (Graph.edge_layers g e));
  for x = 0 to Graph.width g - 1 do
    for y = 0 to Graph.height g - 1 do
      for c = 0 to nl - 2 do
        let want = Graph.via_usage expected ~x ~y ~crossing:c in
        let got = Graph.via_usage g ~x ~y ~crossing:c in
        if want <> got && !err = None then
          err :=
            Some
              (Printf.sprintf "via (%d,%d) crossing %d: expected %d, graph says %d" x y c want
                 got)
      done
    done
  done;
  match !err with None -> Ok () | Some msg -> Error msg
