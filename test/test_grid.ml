open Cpla_grid

let mk ?(w = 8) ?(h = 8) ?(layers = 4) ?(cap = 10) () =
  let tech = Tech.default ~num_layers:layers () in
  (tech, Graph.create ~tech ~width:w ~height:h ~layer_capacity:(Array.make layers cap))

let he x y = { Graph.dir = Tech.Horizontal; x; y }
let ve x y = { Graph.dir = Tech.Vertical; x; y }

let test_tech_directions () =
  let tech = Tech.default ~num_layers:6 () in
  Alcotest.(check bool) "layer0 horizontal" true (Tech.layer_dir tech 0 = Tech.Horizontal);
  Alcotest.(check bool) "layer1 vertical" true (Tech.layer_dir tech 1 = Tech.Vertical);
  Alcotest.(check (list int)) "h layers" [ 0; 2; 4 ] (Tech.layers_of_dir tech Tech.Horizontal);
  Alcotest.(check (list int)) "v layers" [ 1; 3; 5 ] (Tech.layers_of_dir tech Tech.Vertical)

let test_tech_rc_monotone () =
  let tech = Tech.default ~num_layers:8 () in
  (* resistance never increases going up the stack *)
  for l = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "r(%d) >= r(%d)" l (l + 1))
      true
      (Tech.unit_r tech l >= Tech.unit_r tech (l + 1))
  done

let test_tech_via_span () =
  let tech = Tech.default ~num_layers:4 () in
  Alcotest.(check (float 1e-9)) "zero span" 0.0 (Tech.via_r_span tech ~lo:2 ~hi:2);
  Alcotest.(check (float 1e-9)) "full span" 3.0 (Tech.via_r_span tech ~lo:0 ~hi:3);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Tech.via_r_span: lo > hi") (fun () ->
      ignore (Tech.via_r_span tech ~lo:3 ~hi:1))

let test_graph_capacity_direction () =
  let _, g = mk () in
  Alcotest.(check int) "h edge on h layer" 10 (Graph.capacity g (he 0 0) ~layer:0);
  Alcotest.(check int) "h edge on v layer" 0 (Graph.capacity g (he 0 0) ~layer:1);
  Alcotest.(check int) "2d capacity" 20 (Graph.capacity_2d g (he 0 0))

(* The 2-D sums equal the per-layer values summed over [edge_layers], on
   every edge of a graph with random blockages and usage. *)
let sum_2d_property =
  QCheck.Test.make ~count:100 ~name:"capacity_2d / usage_2d = per-layer sums"
    QCheck.(triple (int_range 2 5) (int_range 2 8) small_nat)
    (fun (layers, w, seed) ->
      let _, g = mk ~w ~h:(w + 1) ~layers () in
      let rng = Cpla_util.Rng.create seed in
      Graph.iter_edges g (fun e ->
          List.iter
            (fun l ->
              Graph.reduce_capacity g e ~layer:l ~by:(Cpla_util.Rng.int rng 4);
              Graph.add_usage g e ~layer:l (Cpla_util.Rng.int rng 12))
            (Graph.edge_layers g e));
      let ok = ref true in
      Graph.iter_edges g (fun e ->
          let sum f = List.fold_left (fun acc l -> acc + f l) 0 (Graph.edge_layers g e) in
          if Graph.capacity_2d g e <> sum (fun layer -> Graph.capacity g e ~layer)
             || Graph.usage_2d g e <> sum (fun layer -> Graph.usage g e ~layer)
          then ok := false);
      !ok)

let test_graph_usage_roundtrip () =
  let _, g = mk () in
  Graph.add_usage g (he 2 3) ~layer:0 3;
  Alcotest.(check int) "usage" 3 (Graph.usage g (he 2 3) ~layer:0);
  Alcotest.(check int) "free" 7 (Graph.free g (he 2 3) ~layer:0);
  Graph.add_usage g (he 2 3) ~layer:0 (-3);
  Alcotest.(check int) "released" 0 (Graph.usage g (he 2 3) ~layer:0);
  Alcotest.check_raises "negative usage"
    (Invalid_argument "Graph.add_usage: usage would become negative") (fun () ->
      Graph.add_usage g (he 2 3) ~layer:0 (-1))

let test_graph_edge_bounds () =
  let _, g = mk ~w:4 ~h:4 () in
  Alcotest.(check bool) "last h edge" true (Graph.edge_exists g (he 2 3));
  Alcotest.(check bool) "h overflow x" false (Graph.edge_exists g (he 3 0));
  Alcotest.(check bool) "last v edge" true (Graph.edge_exists g (ve 3 2));
  Alcotest.(check bool) "v overflow y" false (Graph.edge_exists g (ve 0 3))

let test_graph_overflow_count () =
  let _, g = mk ~cap:2 () in
  Graph.add_usage g (he 0 0) ~layer:0 5;
  Alcotest.(check int) "edge overflow" 3 (Graph.edge_overflow g)

let test_via_capacity_eqn1 () =
  let tech, g = mk ~cap:10 () in
  (* interior tile: both incident edges free at 10 *)
  let expect = Tech.via_per_boundary tech ~cap_e0:10 ~cap_e1:10 in
  Alcotest.(check int) "interior via cap" expect (Graph.via_capacity g ~x:4 ~y:4 ~crossing:0);
  (* corner tile on layer 0 (horizontal): only one incident h edge *)
  let expect_corner = Tech.via_per_boundary tech ~cap_e0:0 ~cap_e1:10 in
  Alcotest.(check int) "corner via cap" expect_corner (Graph.via_capacity g ~x:0 ~y:0 ~crossing:0)

let test_via_capacity_shrinks_with_usage () =
  let _, g = mk ~cap:10 () in
  let before = Graph.via_capacity g ~x:4 ~y:4 ~crossing:0 in
  Graph.add_usage g (he 4 4) ~layer:0 10;
  Graph.add_usage g (he 3 4) ~layer:0 10;
  let after = Graph.via_capacity g ~x:4 ~y:4 ~crossing:0 in
  Alcotest.(check bool) "shrinks" true (after < before);
  Alcotest.(check int) "full edges forbid vias" 0 after

let test_via_usage_overflow () =
  let _, g = mk ~cap:1 ~w:4 ~h:4 () in
  (* tiny capacity makes via capacity small; pile up vias *)
  let cap = Graph.via_capacity g ~x:1 ~y:1 ~crossing:0 in
  Graph.add_via_usage g ~x:1 ~y:1 ~crossing:0 (cap + 4);
  Alcotest.(check int) "via overflow" 4 (Graph.via_overflow g);
  Alcotest.(check int) "total vias" (cap + 4) (Graph.total_via_usage g)

let test_reduce_capacity () =
  let _, g = mk () in
  Graph.reduce_capacity g (he 1 1) ~layer:0 ~by:4;
  Alcotest.(check int) "reduced" 6 (Graph.capacity g (he 1 1) ~layer:0);
  Graph.reduce_capacity g (he 1 1) ~layer:0 ~by:100;
  Alcotest.(check int) "floored at 0" 0 (Graph.capacity g (he 1 1) ~layer:0)

let test_density () =
  let _, g = mk ~cap:10 () in
  Graph.add_usage g (he 3 3) ~layer:0 10;
  let d = Graph.density g in
  Alcotest.(check (float 1e-9)) "half-saturated tile" 0.5 d.(3).(3);
  Alcotest.(check (float 1e-9)) "far tile untouched" 0.0 d.(7).(7);
  let map = Graph.density_map g in
  Alcotest.(check bool) "map lines" true (String.length map > 8 * 8)

let test_clone_independent () =
  let _, g = mk () in
  let g2 = Graph.clone g in
  Graph.add_usage g (he 0 0) ~layer:0 5;
  Alcotest.(check int) "clone unaffected" 0 (Graph.usage g2 (he 0 0) ~layer:0)

let test_iter_edges_count () =
  let _, g = mk ~w:5 ~h:4 () in
  let n = ref 0 in
  Graph.iter_edges g (fun _ -> incr n);
  (* h edges: 4*4 = 16; v edges: 5*3 = 15 *)
  Alcotest.(check int) "edge count" 31 !n

let via_cap_property =
  QCheck.Test.make ~name:"via capacity is monotone in edge usage" ~count:50
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (u1, u2) ->
      let _, g = mk ~cap:10 () in
      Graph.add_usage g (he 4 4) ~layer:0 u1;
      let c1 = Graph.via_capacity g ~x:4 ~y:4 ~crossing:0 in
      Graph.add_usage g (he 3 4) ~layer:0 u2;
      let c2 = Graph.via_capacity g ~x:4 ~y:4 ~crossing:0 in
      c2 <= c1)

let suite =
  [
    Alcotest.test_case "tech directions" `Quick test_tech_directions;
    Alcotest.test_case "tech rc monotone" `Quick test_tech_rc_monotone;
    Alcotest.test_case "tech via span" `Quick test_tech_via_span;
    Alcotest.test_case "capacity respects direction" `Quick test_graph_capacity_direction;
    Alcotest.test_case "usage roundtrip" `Quick test_graph_usage_roundtrip;
    Alcotest.test_case "edge bounds" `Quick test_graph_edge_bounds;
    Alcotest.test_case "edge overflow" `Quick test_graph_overflow_count;
    Alcotest.test_case "via capacity eqn(1)" `Quick test_via_capacity_eqn1;
    Alcotest.test_case "via capacity shrinks with usage" `Quick test_via_capacity_shrinks_with_usage;
    Alcotest.test_case "via usage overflow" `Quick test_via_usage_overflow;
    Alcotest.test_case "blockage reduce" `Quick test_reduce_capacity;
    Alcotest.test_case "density map" `Quick test_density;
    Alcotest.test_case "clone independent" `Quick test_clone_independent;
    Alcotest.test_case "iter edges count" `Quick test_iter_edges_count;
    QCheck_alcotest.to_alcotest via_cap_property;
    QCheck_alcotest.to_alcotest sum_2d_property;
  ]
