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
      let n = Stree.num_nodes tree in
      (* Pin tiles are kept as nodes by the router's compress step; a miss
         means the tree does not belong to this net. *)
      let node_of (p : Net.pin) =
        let i = Stree.find_node_xy tree p.Net.px p.Net.py in
        if i < 0 then invalid_arg "Assignment.create: pin tile is not a tree node";
        i
      in
      let pins_at_node = Array.make n [] in
      Array.iter
        (fun p ->
          let i = node_of p in
          pins_at_node.(i) <- p.Net.pl :: pins_at_node.(i))
        net.Net.pins;
      let src = Net.source net in
      let at_source (p : Net.pin) = p.Net.px = src.Net.px && p.Net.py = src.Net.py in
      let sinks = Array.fold_left (fun k p -> if at_source p then k else k + 1) 0 net.Net.pins in
      let sink_nodes = Array.make sinks (0, 0) and k = ref 0 in
      Array.iter
        (fun p ->
          if not (at_source p) then begin
            sink_nodes.(!k) <- (node_of p, p.Net.pl);
            incr k
          end)
        net.Net.pins;
      {
        tree = Some tree;
        segs;
        node_to_seg;
        layers = Array.make (Array.length segs) (-1);
        pins_at_node;
        children = Stree.children tree;
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

(* Add [delta] to the via usage of [node]'s stack: it spans the layers of
   the node's assigned incident tree edges (its own parent edge and every
   child edge) and of its pins, and is empty when no incident edge is
   assigned or the span is a single layer. *)
let add_node_vias graph d tr node delta =
  let lo = ref max_int and hi = ref min_int in
  let own = d.node_to_seg.(node) in
  if own >= 0 && d.layers.(own) >= 0 then begin
    lo := d.layers.(own);
    hi := d.layers.(own)
  end;
  let kids = d.children.(node) in
  for k = 0 to Array.length kids - 1 do
    let l = d.layers.(d.node_to_seg.(kids.(k))) in
    if l >= 0 then begin
      if l < !lo then lo := l;
      if l > !hi then hi := l
    end
  done;
  if !lo <= !hi then begin
    let pins = ref d.pins_at_node.(node) in
    while
      match !pins with
      | [] -> false
      | l :: rest ->
          if l < !lo then lo := l;
          if l > !hi then hi := l;
          pins := rest;
          true
    do
      ()
    done;
    let x, y = Stree.node tr node in
    for crossing = !lo to !hi - 1 do
      Graph.add_via_usage graph ~x ~y ~crossing delta
    done
  end

let apply_wires t d seg_idx delta =
  let l = d.layers.(seg_idx) in
  if l >= 0 then begin
    let edges = d.segs.(seg_idx).Segment.edges in
    for k = 0 to Array.length edges - 1 do
      Graph.add_usage t.graph edges.(k) ~layer:l delta
    done
  end

(* Move segment [seg] to [layer] (-1 unassigns): the via stacks at both of
   its ends and its wires are released, then re-installed. *)
let move t d seg layer =
  let tr = match d.tree with Some tr -> tr | None -> assert false in
  let node = d.segs.(seg).Segment.node in
  let parent = tr.Stree.parent.(node) in
  add_node_vias t.graph d tr node (-1);
  add_node_vias t.graph d tr parent (-1);
  apply_wires t d seg (-1);
  d.layers.(seg) <- layer;
  d.generation <- d.generation + 1;
  apply_wires t d seg 1;
  add_node_vias t.graph d tr node 1;
  add_node_vias t.graph d tr parent 1

let set_layer t ~net ~seg ~layer =
  let d = t.data.(net) in
  if Tech.layer_dir (tech t) layer <> d.segs.(seg).Segment.dir then
    invalid_arg "Assignment.set_layer: direction mismatch";
  if d.layers.(seg) <> layer then move t d seg layer

let unassign t ~net ~seg =
  let d = t.data.(net) in
  if d.layers.(seg) >= 0 then move t d seg (-1)

let unassign_net t i =
  for seg = 0 to Array.length t.data.(i).layers - 1 do
    unassign t ~net:i ~seg
  done

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
            add_node_vias expected d tr node 1
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
