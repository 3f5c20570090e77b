open Cpla_grid
open Cpla_route

let pin px py = { Net.px; py; pl = 0 }

let mk_graph ?(w = 16) ?(h = 16) ?(layers = 4) ?(cap = 8) () =
  let tech = Tech.default ~num_layers:layers () in
  Graph.create ~tech ~width:w ~height:h ~layer_capacity:(Array.make layers cap)

(* ---- Net ----------------------------------------------------------------- *)

let test_net_basics () =
  let n = Net.create ~id:0 ~name:"n0" ~pins:[| pin 0 0; pin 3 4; pin 1 1 |] in
  Alcotest.(check int) "hpwl" 7 (Net.hpwl n);
  Alcotest.(check int) "pins" 3 (Net.num_pins n);
  Alcotest.(check bool) "source" true (Net.source n = pin 0 0);
  Alcotest.(check int) "sinks" 2 (Array.length (Net.sinks n))

let test_net_dedup () =
  let pins = [| pin 0 0; pin 0 0; pin 1 1 |] in
  Alcotest.(check int) "deduped" 2 (Array.length (Net.dedup_pins pins))

let test_net_too_few () =
  Alcotest.(check bool) "needs 2 pins" true
    (match Net.create ~id:0 ~name:"x" ~pins:[| pin 0 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Stree ---------------------------------------------------------------- *)

let test_stree_of_edges () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)); ((3, 0), (3, 2)) ] in
  Alcotest.(check int) "nodes" 3 (Stree.num_nodes t);
  Alcotest.(check int) "wirelength" 5 (Stree.total_wirelength t);
  Alcotest.(check bool) "valid" true (Stree.validate t = Ok ())

let test_stree_rejects_diagonal () =
  Alcotest.(check bool) "diagonal" true
    (match Stree.of_edges ~root:(0, 0) [ ((0, 0), (1, 1)) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_rejects_cycle () =
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (1, 1)); ((1, 1), (0, 1)); ((0, 1), (0, 0)) ] in
  Alcotest.(check bool) "cycle" true
    (match Stree.of_edges ~root:(0, 0) edges with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_rejects_disconnected () =
  let edges = [ ((0, 0), (1, 0)); ((5, 5), (6, 5)) ] in
  Alcotest.(check bool) "disconnected" true
    (match Stree.of_edges ~root:(0, 0) edges with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_compress () =
  (* chain of unit edges along x then a turn: compress to 2 segments *)
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (2, 0)); ((2, 0), (2, 1)); ((2, 1), (2, 2)) ] in
  let t = Stree.of_edges ~root:(0, 0) edges in
  let c = Stree.compress ~keep:[ (0, 0); (2, 2) ] t in
  Alcotest.(check int) "compressed nodes" 3 (Stree.num_nodes c);
  Alcotest.(check int) "same wirelength" (Stree.total_wirelength t) (Stree.total_wirelength c);
  Alcotest.(check bool) "still valid" true (Stree.validate c = Ok ())

let test_stree_compress_keeps_pins () =
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (2, 0)) ] in
  let t = Stree.of_edges ~root:(0, 0) edges in
  let c = Stree.compress ~keep:[ (1, 0) ] t in
  Alcotest.(check bool) "pin node kept" true (Stree.find_node c (1, 0) <> None)

let test_stree_path_to_root () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (2, 0)); ((2, 0), (2, 3)) ] in
  let leaf = match Stree.find_node t (2, 3) with Some i -> i | None -> Alcotest.fail "leaf" in
  let path = Stree.path_to_root t leaf in
  Alcotest.(check int) "path length" 3 (List.length path);
  Alcotest.(check bool) "ends at root" true (List.nth path 2 = t.Stree.root)

let test_stree_contains_point () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (4, 0)) ] in
  Alcotest.(check bool) "interior point" true (Stree.contains_point t (2, 0));
  Alcotest.(check bool) "off tree" false (Stree.contains_point t (2, 1))

(* ---- Segment ---------------------------------------------------------------- *)

let test_segment_extract () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)); ((3, 0), (3, 2)) ] in
  let segs, node_to_seg = Segment.extract ~net_id:7 t in
  Alcotest.(check int) "two segments" 2 (Array.length segs);
  Alcotest.(check int) "root has no segment" (-1) node_to_seg.(t.Stree.root);
  let total_len = Array.fold_left (fun a s -> a + s.Segment.len) 0 segs in
  Alcotest.(check int) "lengths cover tree" 5 total_len;
  Array.iter
    (fun s ->
      Alcotest.(check int) "edges match len" s.Segment.len (Array.length s.Segment.edges);
      Alcotest.(check int) "net id" 7 s.Segment.net_id)
    segs

let test_segment_direction () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)) ] in
  let segs, _ = Segment.extract ~net_id:0 t in
  Alcotest.(check bool) "horizontal" true (segs.(0).Segment.dir = Tech.Horizontal)

(* ---- Maze ---------------------------------------------------------------- *)

(* Cost planes of a [w] x [h] grid scoring each edge with [f]. *)
let planes ~w ~h f =
  {
    Maze.width = w;
    height = h;
    h = Array.init ((w - 1) * h) (fun i -> f { Graph.dir = Tech.Horizontal; x = i mod (w - 1); y = i / (w - 1) });
    v = Array.init (w * (h - 1)) (fun i -> f { Graph.dir = Tech.Vertical; x = i mod w; y = i / w });
  }

let test_maze_straight () =
  let c = planes ~w:8 ~h:8 (fun _ -> 1.0) in
  match Maze.route (Maze.ws_create ()) c ~sources:[ (0, 0) ] ~targets:[ (5, 0) ] with
  | Some path ->
      Alcotest.(check int) "path tiles" 6 (List.length path);
      Alcotest.(check bool) "starts at source" true (List.hd path = (0, 0))
  | None -> Alcotest.fail "expected path"

let test_maze_detour () =
  (* wall of infinite cost along x=2 except y=7 *)
  let c =
    planes ~w:8 ~h:8 (fun (e : Graph.edge2d) ->
        if e.Graph.dir = Tech.Horizontal && e.Graph.x = 2 && e.Graph.y < 7 then infinity else 1.0)
  in
  match Maze.route (Maze.ws_create ()) c ~sources:[ (0, 0) ] ~targets:[ (6, 0) ] with
  | Some path ->
      Alcotest.(check bool) "detours via y=7" true (List.exists (fun (_, y) -> y = 7) path)
  | None -> Alcotest.fail "expected detour path"

let test_maze_blocked () =
  (* block every horizontal edge at x=2 and everything right of it *)
  let c =
    planes ~w:8 ~h:8 (fun (e : Graph.edge2d) ->
        if e.Graph.x > 2 || (e.Graph.dir = Tech.Horizontal && e.Graph.x = 2) then infinity
        else 1.0)
  in
  Alcotest.(check bool) "unreachable" true
    (Maze.route (Maze.ws_create ()) c ~sources:[ (0, 0) ] ~targets:[ (7, 7) ] = None)

let test_maze_degenerate () =
  let c = planes ~w:4 ~h:4 (fun _ -> 1.0) in
  match Maze.route (Maze.ws_create ()) c ~sources:[ (1, 1) ] ~targets:[ (1, 1) ] with
  | Some [ (1, 1) ] -> ()
  | _ -> Alcotest.fail "expected singleton path"

(* Random maze queries on grids of at most 8x8: integer edge costs in 0..3
   so equal-cost paths (ties) are common, about one edge in six blocked,
   and 1-3 sources / 1-4 targets that may repeat or overlap. *)
type maze_case = {
  c : Maze.costs;
  sources : Maze.point list;
  targets : Maze.point list;
}

let maze_case_gen =
  let open QCheck.Gen in
  let* w = int_range 2 8 and* h = int_range 2 8 in
  let cost = frequency [ (1, return infinity); (5, map float_of_int (int_range 0 3)) ] in
  let* ch = array_size (return ((w - 1) * h)) cost
  and* cv = array_size (return (w * (h - 1))) cost in
  let pt = pair (int_range 0 (w - 1)) (int_range 0 (h - 1)) in
  let* sources = list_size (int_range 1 3) pt and* targets = list_size (int_range 1 4) pt in
  return { c = { Maze.width = w; height = h; h = ch; v = cv }; sources; targets }

let maze_case_arb =
  let pp { c; sources; targets } =
    let pts l = String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) l) in
    let plane a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") a)) in
    Printf.sprintf "%dx%d h=[%s] v=[%s] src=[%s] dst=[%s]" c.Maze.width c.Maze.height
      (plane c.Maze.h) (plane c.Maze.v) (pts sources) (pts targets)
  in
  QCheck.make ~print:pp maze_case_gen

let edge_cost (c : Maze.costs) (e : Graph.edge2d) =
  match e.Graph.dir with
  | Tech.Horizontal -> c.Maze.h.((e.Graph.y * (c.Maze.width - 1)) + e.Graph.x)
  | Tech.Vertical -> c.Maze.v.((e.Graph.y * c.Maze.width) + e.Graph.x)

(* One workspace for every case, so reuse across queries and grid sizes is
   exercised too. *)
let shared_ws = Maze.ws_create ()

let test_maze_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"maze: same path as the closure-based reference"
    maze_case_arb (fun { c; sources; targets } ->
      Maze.route shared_ws c ~sources ~targets
      = Maze_reference.route ~width:c.Maze.width ~height:c.Maze.height ~cost:(edge_cost c)
          ~sources ~targets)

(* Edge between two neighbouring tiles, or [None] for non-neighbours. *)
let edge_between (x0, y0) (x1, y1) =
  if y0 = y1 && abs (x0 - x1) = 1 then Some { Graph.dir = Tech.Horizontal; x = min x0 x1; y = y0 }
  else if x0 = x1 && abs (y0 - y1) = 1 then Some { Graph.dir = Tech.Vertical; x = x0; y = min y0 y1 }
  else None

(* Bellman-Ford distances from the source set over the unblocked edges. *)
let bellman_ford (c : Maze.costs) sources =
  let w = c.Maze.width and h = c.Maze.height in
  let dist = Array.make (w * h) infinity in
  List.iter (fun (x, y) -> dist.((y * w) + x) <- 0.0) sources;
  let edges = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then edges := ((y * w) + x, (y * w) + x + 1, c.Maze.h.((y * (w - 1)) + x)) :: !edges;
      if y + 1 < h then edges := ((y * w) + x, ((y + 1) * w) + x, c.Maze.v.((y * w) + x)) :: !edges
    done
  done;
  for _ = 1 to w * h do
    List.iter
      (fun (a, b, k) ->
        if k < infinity then begin
          if dist.(a) +. k < dist.(b) then dist.(b) <- dist.(a) +. k;
          if dist.(b) +. k < dist.(a) then dist.(a) <- dist.(b) +. k
        end)
      !edges
  done;
  dist

let test_maze_optimal =
  QCheck.Test.make ~count:1000 ~name:"maze: optimal cost, None iff unreachable" maze_case_arb
    (fun { c; sources; targets } ->
      let dist = bellman_ford c sources in
      let best =
        List.fold_left (fun acc (x, y) -> Float.min acc dist.((y * c.Maze.width) + x)) infinity targets
      in
      match Maze.route shared_ws c ~sources ~targets with
      | None -> best = infinity
      | Some path ->
          let rec cost acc = function
            | a :: (b :: _ as rest) -> (
                match edge_between a b with
                | Some e when edge_cost c e < infinity -> cost (acc +. edge_cost c e) rest
                | _ -> None)
            | [ last ] -> if List.mem last targets then Some acc else None
            | [] -> None
          in
          List.mem (List.hd path) sources && cost 0.0 path = Some best)

(* Random pattern queries on grids of at most 10x10: integer edge costs in
   0..3 so equal-cost candidates (ties) are common, a random covered set
   (the tree) and a pin/target pair anywhere, covered or not. *)
type pattern_case = {
  pc : Maze.costs;
  covered : Maze.point list;
  a : Maze.point;
  b : Maze.point;
}

let pattern_case_gen =
  let open QCheck.Gen in
  let* w = int_range 2 10 and* h = int_range 2 10 in
  let cost = map float_of_int (int_range 0 3) in
  let* ch = array_size (return ((w - 1) * h)) cost
  and* cv = array_size (return (w * (h - 1))) cost in
  let pt = pair (int_range 0 (w - 1)) (int_range 0 (h - 1)) in
  let* covered = list_size (int_range 0 (w * h / 3)) pt and* a = pt and* b = pt in
  return { pc = { Maze.width = w; height = h; h = ch; v = cv }; covered; a; b }

let pattern_case_arb =
  let pp { pc; covered; a; b } =
    let pts l = String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) l) in
    let plane a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") a)) in
    Printf.sprintf "%dx%d h=[%s] v=[%s] covered=[%s] a=%s b=%s" pc.Maze.width pc.Maze.height
      (plane pc.Maze.h) (plane pc.Maze.v) (pts covered) (pts [ a ]) (pts [ b ])
  in
  QCheck.make ~print:pp pattern_case_gen

let test_pattern_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"router: in-place pattern scorer matches the reference"
    pattern_case_arb (fun { pc; covered; a; b } ->
      let path, cost, edges = Router.best_pattern pc ~covered a b in
      let ref_path, ref_cost = Router_reference.best_pattern pc ~covered a b in
      path = ref_path
      && Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float ref_cost)
      && edges = List.length ref_path - 1)

(* Bad input raises instead of reading or stamping past the arrays: cost
   planes shorter than the grid, and a pin or a covered tile off the grid
   (a covered (-1, y) would otherwise stamp the tile before (0, y)). *)
let test_pattern_rejects_bad_input () =
  let c = planes ~w:4 ~h:3 (fun _ -> 1.0) in
  let raises what f =
    Alcotest.(check bool) what true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let short_h = { c with Maze.h = Array.sub c.Maze.h 0 (Array.length c.Maze.h - 1) } in
  let short_v = { c with Maze.v = Array.sub c.Maze.v 0 (Array.length c.Maze.v - 1) } in
  raises "short h plane" (fun () -> Router.best_pattern short_h ~covered:[] (0, 0) (3, 2));
  raises "short v plane" (fun () -> Router.best_pattern short_v ~covered:[] (0, 0) (3, 2));
  raises "pin off the grid" (fun () -> Router.best_pattern c ~covered:[] (4, 0) (0, 2));
  raises "covered tile left of the grid" (fun () ->
      Router.best_pattern c ~covered:[ (-1, 1) ] (0, 0) (3, 2));
  raises "covered tile below the grid" (fun () ->
      Router.best_pattern c ~covered:[ (2, 3) ] (0, 0) (3, 2));
  raises "maze: short v plane" (fun () ->
      Maze.route (Maze.ws_create ()) short_v ~sources:[ (0, 0) ] ~targets:[ (3, 2) ])

(* ---- Router ---------------------------------------------------------------- *)

let mk_nets specs =
  Array.of_list
    (List.mapi
       (fun i pins -> Net.create ~id:i ~name:(Printf.sprintf "n%d" i) ~pins:(Array.of_list pins))
       specs)

let check_tree_covers_pins net tree =
  Array.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "pin (%d,%d) on tree" p.Net.px p.Net.py)
        true
        (Stree.find_node tree (p.Net.px, p.Net.py) <> None))
    net.Net.pins

let test_router_two_pin () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 1 1; pin 9 6 ] ] in
  let r = Router.route_all ~graph:g nets in
  match r.Router.trees.(0) with
  | Some tree ->
      check_tree_covers_pins nets.(0) tree;
      Alcotest.(check bool) "valid" true (Stree.validate tree = Ok ());
      Alcotest.(check int) "wirelength = hpwl for 2-pin L" (Net.hpwl nets.(0))
        (Stree.total_wirelength tree)
  | None -> Alcotest.fail "expected tree"

let test_router_multi_pin () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 2 2; pin 12 3; pin 5 11; pin 9 9 ] ] in
  let r = Router.route_all ~graph:g nets in
  match r.Router.trees.(0) with
  | Some tree ->
      check_tree_covers_pins nets.(0) tree;
      Alcotest.(check bool) "valid" true (Stree.validate tree = Ok ())
  | None -> Alcotest.fail "expected tree"

let test_router_single_tile_net () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 3 3; pin 3 3 ] ] in
  let r = Router.route_all ~graph:g nets in
  Alcotest.(check bool) "no tree" true (r.Router.trees.(0) = None)

let test_router_many_nets_low_overflow () =
  let g = mk_graph ~w:24 ~h:24 ~cap:8 () in
  let graph_spec =
    { Synth.default_spec with Synth.width = 24; height = 24; num_nets = 300; seed = 3 }
  in
  let _, nets = Synth.generate graph_spec in
  let r = Router.route_all ~graph:g nets in
  Array.iteri
    (fun i tree_opt ->
      match tree_opt with
      | Some tree -> check_tree_covers_pins nets.(i) tree
      | None -> ())
    r.Router.trees;
  Alcotest.(check bool) "overflow small" true (r.Router.overflow_2d < 20)

(* Golden digests of [Router.route_all], recorded before the router moved
   to cost planes and the flat-index maze: every tree's nodes, parents and
   root, then the 2-D overflow and the maze-call count.  A routing change
   that moves a single tile, tie-break or counter changes the digest. *)
let route_digest (r : Router.result) =
  let b = Buffer.create 4096 in
  Array.iter
    (function
      | None -> Buffer.add_string b "N;"
      | Some (t : Stree.t) ->
          Array.iter (fun (x, y) -> Printf.bprintf b "%d,%d " x y) t.Stree.nodes;
          Buffer.add_char b '|';
          Array.iter (fun p -> Printf.bprintf b "%d " p) t.Stree.parent;
          Printf.bprintf b "r%d;" t.Stree.root)
    r.Router.trees;
  Printf.bprintf b "ov%d mz%d" r.Router.overflow_2d r.Router.maze_routes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_router_golden () =
  let suite name = (Cpla_expt.Suite.find name).Cpla_expt.Suite.spec in
  let synth =
    {
      Synth.default_spec with
      Synth.name = "job0";
      width = 24;
      height = 24;
      num_nets = 600;
      seed = 100_000;
    }
  in
  List.iter
    (fun (label, spec, rrr_passes, steiner, overflow, mazes, digest) ->
      let graph, nets = Synth.generate spec in
      let r = Router.route_all ~rrr_passes ~steiner ~graph nets in
      Alcotest.(check int) (label ^ " overflow_2d") overflow r.Router.overflow_2d;
      Alcotest.(check int) (label ^ " maze_routes") mazes r.Router.maze_routes;
      Alcotest.(check string) (label ^ " digest") digest (route_digest r))
    [
      ("adaptec1", suite "adaptec1", 1, false, 481, 2986, "ad2c4ed754761ad47f8d90882fffbc44");
      ("newblue1", suite "newblue1", 1, false, 684, 2312, "7ebabf20a5d3f24dfe3ffb9a4cccc815");
      ("synth 24x24/600", synth, 1, false, 0, 0, "7bc7506360984dd1351a6dd4d8b51e3f");
      ("adaptec1 steiner", suite "adaptec1", 1, true, 552, 3365, "c52b05a31bf82284bbab76e11c30113e");
      ("adaptec1 rrr 2", suite "adaptec1", 2, false, 439, 5139, "df2c50c5e15ab614277cdf19a9cbffa7");
    ]

(* ---- Synth ---------------------------------------------------------------- *)

let test_synth_deterministic () =
  let g1, n1 = Synth.generate Synth.default_spec in
  let _, n2 = Synth.generate Synth.default_spec in
  Alcotest.(check int) "same net count" (Array.length n1) (Array.length n2);
  Array.iteri
    (fun i a -> Alcotest.(check bool) "same pins" true (a.Net.pins = n2.(i).Net.pins))
    n1;
  Alcotest.(check int) "grid width" Synth.default_spec.Synth.width (Graph.width g1)

let test_synth_spec_respected () =
  let spec = { Synth.default_spec with Synth.num_nets = 123; seed = 9 } in
  let _, nets = Synth.generate spec in
  Alcotest.(check int) "net count" 123 (Array.length nets);
  Array.iter
    (fun n ->
      Alcotest.(check bool) "pins in grid" true
        (Array.for_all
           (fun p ->
             p.Net.px >= 0 && p.Net.px < spec.Synth.width && p.Net.py >= 0
             && p.Net.py < spec.Synth.height)
           n.Net.pins))
    nets

(* ---- Ispd08 ---------------------------------------------------------------- *)

let sample_gr =
  "grid 4 4 2\n\
   vertical capacity 0 10\n\
   horizontal capacity 10 0\n\
   minimum width 1 1\n\
   minimum spacing 1 1\n\
   via spacing 1 1\n\
   0 0 10 10\n\
   num net 2\n\
   netA 0 2 1\n\
   5 5 1\n\
   35 25 1\n\
   netB 1 3 1\n\
   5 35 1\n\
   25 35 1\n\
   25 5 1\n\
   1\n\
   0 0 1 1 0 1 4\n"

let test_ispd_parse () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check int) "grid x" 4 d.Ispd08.header.Ispd08.grid_x;
      Alcotest.(check int) "nets" 2 (Array.length d.Ispd08.nets);
      let netA = d.Ispd08.nets.(0) in
      Alcotest.(check bool) "pin tile" true (netA.Net.pins.(0) = pin 0 0);
      Alcotest.(check bool) "pin tile 2" true (netA.Net.pins.(1) = pin 3 2);
      Alcotest.(check int) "adjustments" 1 (List.length d.Ispd08.adjustments)

let test_ispd_roundtrip () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d -> (
      let s = Ispd08.write d in
      match Ispd08.parse s with
      | Error e -> Alcotest.fail e
      | Ok d2 ->
          Alcotest.(check int) "same nets" (Array.length d.Ispd08.nets)
            (Array.length d2.Ispd08.nets);
          Array.iteri
            (fun i n ->
              Alcotest.(check bool) "same pins" true (n.Net.pins = d2.Ispd08.nets.(i).Net.pins))
            d.Ispd08.nets)

let test_ispd_to_graph () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d ->
      let g = Ispd08.to_graph d in
      Alcotest.(check int) "width" 4 (Graph.width g);
      (* layer 0 horizontal cap 10, layer 1 vertical cap 10 *)
      Alcotest.(check int) "h cap" 10
        (Graph.capacity g { Graph.dir = Tech.Horizontal; x = 1; y = 1 } ~layer:0);
      (* adjustment dropped capacity of edge (0,0)-(1,0) layer 1(file)=0 to 4 *)
      Alcotest.(check int) "adjusted edge" 4
        (Graph.capacity g { Graph.dir = Tech.Horizontal; x = 0; y = 0 } ~layer:0)

let test_ispd_parse_error () =
  Alcotest.(check bool) "garbage rejected" true
    (match Ispd08.parse "this is not a benchmark" with Error _ -> true | Ok _ -> false)

let suite =
  [
    Alcotest.test_case "net basics" `Quick test_net_basics;
    Alcotest.test_case "net dedup" `Quick test_net_dedup;
    Alcotest.test_case "net needs two pins" `Quick test_net_too_few;
    Alcotest.test_case "stree of_edges" `Quick test_stree_of_edges;
    Alcotest.test_case "stree rejects diagonal" `Quick test_stree_rejects_diagonal;
    Alcotest.test_case "stree rejects cycle" `Quick test_stree_rejects_cycle;
    Alcotest.test_case "stree rejects disconnected" `Quick test_stree_rejects_disconnected;
    Alcotest.test_case "stree compress" `Quick test_stree_compress;
    Alcotest.test_case "stree compress keeps pins" `Quick test_stree_compress_keeps_pins;
    Alcotest.test_case "stree path to root" `Quick test_stree_path_to_root;
    Alcotest.test_case "stree contains point" `Quick test_stree_contains_point;
    Alcotest.test_case "segment extract" `Quick test_segment_extract;
    Alcotest.test_case "segment direction" `Quick test_segment_direction;
    Alcotest.test_case "maze straight" `Quick test_maze_straight;
    Alcotest.test_case "maze detour" `Quick test_maze_detour;
    Alcotest.test_case "maze blocked" `Quick test_maze_blocked;
    Alcotest.test_case "maze degenerate" `Quick test_maze_degenerate;
    Alcotest.test_case "router two-pin" `Quick test_router_two_pin;
    Alcotest.test_case "router multi-pin" `Quick test_router_multi_pin;
    Alcotest.test_case "router single-tile net" `Quick test_router_single_tile_net;
    Alcotest.test_case "router 300 nets" `Quick test_router_many_nets_low_overflow;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth spec respected" `Quick test_synth_spec_respected;
    Alcotest.test_case "ispd parse" `Quick test_ispd_parse;
    Alcotest.test_case "ispd roundtrip" `Quick test_ispd_roundtrip;
    Alcotest.test_case "ispd to graph" `Quick test_ispd_to_graph;
    Alcotest.test_case "ispd parse error" `Quick test_ispd_parse_error;
    QCheck_alcotest.to_alcotest test_maze_matches_reference;
    QCheck_alcotest.to_alcotest test_maze_optimal;
    Alcotest.test_case "router golden digests" `Quick test_router_golden;
    QCheck_alcotest.to_alcotest test_pattern_matches_reference;
    Alcotest.test_case "router: best_pattern rejects bad input" `Quick test_pattern_rejects_bad_input;
  ]
