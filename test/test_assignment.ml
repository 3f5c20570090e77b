open Cpla_grid
open Cpla_route

let pin px py = { Net.px; py; pl = 0 }

(* One net: source (0,0), an L to (4,0)->(4,3), and a branch at (2,0)->(2,2). *)
let mk_design ?(layers = 4) ?(cap = 8) () =
  let tech = Tech.default ~num_layers:layers () in
  let graph = Graph.create ~tech ~width:8 ~height:8 ~layer_capacity:(Array.make layers cap) in
  let net =
    Net.create ~id:0 ~name:"n0" ~pins:[| pin 0 0; pin 4 3; pin 2 2 |]
  in
  let tree =
    Stree.of_edges ~root:(0, 0)
      [ ((0, 0), (2, 0)); ((2, 0), (4, 0)); ((4, 0), (4, 3)); ((2, 0), (2, 2)) ]
  in
  let asg = Assignment.create ~graph ~nets:[| net |] ~trees:[| Some tree |] in
  (graph, asg)

let seg_by_dir asg dir =
  let segs = Assignment.segments asg 0 in
  let found = ref [] in
  Array.iteri (fun i s -> if s.Segment.dir = dir then found := i :: !found) segs;
  List.rev !found

let test_create_unassigned () =
  let _, asg = mk_design () in
  Alcotest.(check int) "four segments" 4 (Array.length (Assignment.segments asg 0));
  Alcotest.(check bool) "not fully assigned" false (Assignment.fully_assigned asg);
  Array.iteri
    (fun seg _ -> Alcotest.(check int) "unassigned" (-1) (Assignment.layer asg ~net:0 ~seg))
    (Assignment.segments asg 0)

let test_assign_edge_usage () =
  let graph, asg = mk_design () in
  let h_segs = seg_by_dir asg Tech.Horizontal in
  let seg = List.hd h_segs in
  Assignment.set_layer asg ~net:0 ~seg ~layer:0;
  let s = (Assignment.segments asg 0).(seg) in
  Array.iter
    (fun e -> Alcotest.(check int) "edge used" 1 (Graph.usage graph e ~layer:0))
    s.Segment.edges;
  Alcotest.(check bool) "consistent" true (Assignment.check_usage asg = Ok ())

let test_move_releases_old_layer () =
  let graph, asg = mk_design () in
  let seg = List.hd (seg_by_dir asg Tech.Horizontal) in
  Assignment.set_layer asg ~net:0 ~seg ~layer:0;
  Assignment.set_layer asg ~net:0 ~seg ~layer:2;
  let s = (Assignment.segments asg 0).(seg) in
  Array.iter
    (fun e ->
      Alcotest.(check int) "old layer freed" 0 (Graph.usage graph e ~layer:0);
      Alcotest.(check int) "new layer used" 1 (Graph.usage graph e ~layer:2))
    s.Segment.edges;
  Alcotest.(check bool) "consistent" true (Assignment.check_usage asg = Ok ())

let test_direction_mismatch () =
  let _, asg = mk_design () in
  let seg = List.hd (seg_by_dir asg Tech.Horizontal) in
  Alcotest.(check bool) "rejects vertical layer" true
    (match Assignment.set_layer asg ~net:0 ~seg ~layer:1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let assign_all asg =
  let tech = Assignment.tech asg in
  Array.iteri
    (fun seg s ->
      let layer = List.hd (Tech.layers_of_dir tech s.Segment.dir) in
      Assignment.set_layer asg ~net:0 ~seg ~layer)
    (Assignment.segments asg 0)

let test_via_spans_after_full_assign () =
  let graph, asg = mk_design () in
  assign_all asg;
  (* all H segs on layer 0, V segs on layer 1; pins on layer 0.
     At (4,0): H seg (layer 0) meets V seg (layer 1): span 0-1 => 1 via. *)
  Alcotest.(check int) "via at turn" 1 (Graph.via_usage graph ~x:4 ~y:0 ~crossing:0);
  Alcotest.(check int) "via at branch" 1 (Graph.via_usage graph ~x:2 ~y:0 ~crossing:0);
  Alcotest.(check bool) "consistent" true (Assignment.check_usage asg = Ok ())

let test_via_span_with_high_layer () =
  let graph, asg = mk_design () in
  assign_all asg;
  (* move the (2,0)-(4,0) H segment to layer 2: at (2,0) span is 0..2 *)
  let segs = Assignment.segments asg 0 in
  let seg_24 = ref (-1) in
  Array.iteri
    (fun i s ->
      if s.Segment.dir = Tech.Horizontal then begin
        let tree = match Assignment.tree asg 0 with Some t -> t | None -> assert false in
        let (x0, _), (x1, _) = Segment.endpoints s tree in
        if min x0 x1 = 2 && max x0 x1 = 4 then seg_24 := i
      end)
    segs;
  Alcotest.(check bool) "found 2-4 segment" true (!seg_24 >= 0);
  Assignment.set_layer asg ~net:0 ~seg:!seg_24 ~layer:2;
  Alcotest.(check int) "crossing 0 at (2,0)" 1 (Graph.via_usage graph ~x:2 ~y:0 ~crossing:0);
  Alcotest.(check int) "crossing 1 at (2,0)" 1 (Graph.via_usage graph ~x:2 ~y:0 ~crossing:1);
  Alcotest.(check bool) "consistent" true (Assignment.check_usage asg = Ok ())

let test_unassign_clears_usage () =
  let graph, asg = mk_design () in
  assign_all asg;
  Assignment.unassign_net asg 0;
  Alcotest.(check int) "no vias left" 0 (Graph.total_via_usage graph);
  Alcotest.(check int) "no overflow" 0 (Graph.edge_overflow graph);
  Graph.iter_edges graph (fun e ->
      List.iter
        (fun l -> Alcotest.(check int) "edge clean" 0 (Graph.usage graph e ~layer:l))
        (Graph.edge_layers graph e));
  Alcotest.(check bool) "consistent" true (Assignment.check_usage asg = Ok ())

(* Random walk of set_layer/unassign preserves the usage invariant. *)
let test_random_mutations =
  QCheck.Test.make ~name:"usage invariant under random mutations" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (pair (int_bound 3) (int_bound 3)))
    (fun moves ->
      let _, asg = mk_design ~layers:8 () in
      let tech = Assignment.tech asg in
      let segs = Assignment.segments asg 0 in
      List.iter
        (fun (seg_raw, layer_raw) ->
          let seg = seg_raw mod Array.length segs in
          let dir_layers = Array.of_list (Tech.layers_of_dir tech segs.(seg).Segment.dir) in
          let layer = dir_layers.(layer_raw mod Array.length dir_layers) in
          Assignment.set_layer asg ~net:0 ~seg ~layer)
        moves;
      Assignment.check_usage asg = Ok ())

(* ---- Tree_dp ---------------------------------------------------------------- *)

let test_tree_dp_prefers_cheap_layer () =
  let _, asg = mk_design () in
  let tree = match Assignment.tree asg 0 with Some t -> t | None -> assert false in
  let segs = Assignment.segments asg 0 in
  let node_to_seg = Assignment.node_to_seg asg 0 in
  let tech = Assignment.tech asg in
  let candidates seg = Tech.layers_of_dir tech segs.(seg).Segment.dir in
  (* layer 2 much cheaper than layer 0 for H; 3 cheaper than 1 for V *)
  let seg_cost _ l = if l >= 2 then 1.0 else 10.0 in
  let via_cost ~node:_ a b = 0.1 *. float_of_int (abs (a - b)) in
  let chosen =
    Tree_dp.solve ~tree ~node_to_seg
      ~pins_at:(fun node -> Assignment.pin_layers_at asg ~net:0 ~node)
      ~candidates ~seg_cost ~via_cost
  in
  Array.iteri
    (fun seg l ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %d on a high layer" seg)
        true (l >= 2))
    chosen

let test_tree_dp_via_tradeoff () =
  (* Strong via costs force all same-direction segments onto one layer pair
     even if a slightly cheaper layer exists for one of them. *)
  let _, asg = mk_design () in
  let tree = match Assignment.tree asg 0 with Some t -> t | None -> assert false in
  let segs = Assignment.segments asg 0 in
  let node_to_seg = Assignment.node_to_seg asg 0 in
  let tech = Assignment.tech asg in
  let candidates seg = Tech.layers_of_dir tech segs.(seg).Segment.dir in
  let seg_cost seg l =
    (* make layer 2 marginally cheaper for segment 0 only *)
    if seg = 0 && l = 2 then 0.9 else 1.0
  in
  let via_cost ~node:_ a b = 100.0 *. float_of_int (abs (a - b)) in
  let chosen =
    Tree_dp.solve ~tree ~node_to_seg
      ~pins_at:(fun node -> Assignment.pin_layers_at asg ~net:0 ~node)
      ~candidates ~seg_cost ~via_cost
  in
  (* pins are on layer 0, so everything should collapse to layers 0/1 *)
  Array.iteri
    (fun seg l ->
      let expect = match segs.(seg).Segment.dir with Tech.Horizontal -> 0 | Tech.Vertical -> 1 in
      Alcotest.(check int) (Printf.sprintf "segment %d pulled low" seg) expect l)
    chosen

(* DP optimality vs brute force on the 4-segment fixture. *)
let test_tree_dp_vs_brute =
  QCheck.Test.make ~name:"tree dp matches brute force" ~count:40
    QCheck.(array_of_size (QCheck.Gen.return 16) (float_range 0.0 10.0))
    (fun costs ->
      let _, asg = mk_design () in
      let tree = match Assignment.tree asg 0 with Some t -> t | None -> assert false in
      let segs = Assignment.segments asg 0 in
      let node_to_seg = Assignment.node_to_seg asg 0 in
      let tech = Assignment.tech asg in
      let cand seg = Tech.layers_of_dir tech segs.(seg).Segment.dir in
      let seg_cost seg l = costs.((seg * 4) + l) in
      let via_cost ~node:_ a b = 0.7 *. float_of_int (abs (a - b)) in
      let pins_at node = Assignment.pin_layers_at asg ~net:0 ~node in
      let total assignment =
        (* pairwise objective evaluated directly *)
        let acc = ref 0.0 in
        Array.iteri (fun seg l -> acc := !acc +. seg_cost seg l) assignment;
        let children = Stree.children tree in
        for v = 0 to Stree.num_nodes tree - 1 do
          let up_seg = node_to_seg.(v) in
          Array.iter
            (fun c ->
              let cs = node_to_seg.(c) in
              if up_seg >= 0 then
                acc := !acc +. via_cost ~node:v assignment.(cs) assignment.(up_seg))
            children.(v);
          (* pin terms *)
          List.iter
            (fun pl ->
              if up_seg >= 0 then acc := !acc +. via_cost ~node:v pl assignment.(up_seg)
              else
                Array.iter
                  (fun c -> acc := !acc +. via_cost ~node:v pl assignment.(node_to_seg.(c)))
                  children.(v))
            (pins_at v)
        done;
        !acc
      in
      let chosen =
        Tree_dp.solve ~tree ~node_to_seg ~pins_at ~candidates:cand ~seg_cost ~via_cost
      in
      let dp_val = total chosen in
      (* brute force over all candidate combos (2 options per segment, 4 segs) *)
      let best = ref infinity in
      let cands = Array.init 4 (fun s -> Array.of_list (cand s)) in
      for a = 0 to 1 do
        for b = 0 to 1 do
          for c = 0 to 1 do
            for d = 0 to 1 do
              let x = [| cands.(0).(a); cands.(1).(b); cands.(2).(c); cands.(3).(d) |] in
              best := Float.min !best (total x)
            done
          done
        done
      done;
      dp_val <= !best +. 1e-9)

(* ---- Init_assign ---------------------------------------------------------------- *)

let test_init_assign_full_and_legal () =
  let spec = { Synth.default_spec with Synth.width = 20; height = 20; num_nets = 150; seed = 5 } in
  let graph, nets = Synth.generate spec in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  Alcotest.(check bool) "fully assigned" true (Assignment.fully_assigned asg);
  Alcotest.(check bool) "usage consistent" true (Assignment.check_usage asg = Ok ());
  Alcotest.(check bool) "edge overflow bounded" true (Graph.edge_overflow graph <= 5)

let test_congestion_penalty_schedule () =
  Alcotest.(check (float 1e-9)) "plenty free" 0.0 (Init_assign.congestion_penalty ~free:5);
  Alcotest.(check bool) "tight > free" true
    (Init_assign.congestion_penalty ~free:0 > Init_assign.congestion_penalty ~free:1);
  Alcotest.(check bool) "overflow dominates" true
    (Init_assign.congestion_penalty ~free:(-1) > 100.0)

(* A corrupted graph is reported at its first mismatch, scanning edges
   (horizontal then vertical, row-major), each edge's layers ascending,
   then vias by tile column, row and crossing.  Undoing the corruptions one
   at a time walks that order. *)
let test_check_usage_mismatch () =
  let spec = { Synth.default_spec with Synth.width = 20; height = 20; num_nets = 150; seed = 5 } in
  let graph, nets = Synth.generate spec in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  let tech = Graph.tech graph in
  let h = Array.of_list (Tech.layers_of_dir tech Tech.Horizontal) in
  let v = Array.of_list (Tech.layers_of_dir tech Tech.Vertical) in
  let h_edge = { Graph.dir = Tech.Horizontal; x = 7; y = 7 } in
  let v_edge = { Graph.dir = Tech.Vertical; x = 5; y = 2 } in
  let corrupt delta =
    [
      (fun () -> Graph.add_usage graph h_edge ~layer:h.(0) delta);
      (fun () -> Graph.add_usage graph v_edge ~layer:v.(0) delta);
      (fun () -> Graph.add_via_usage graph ~x:4 ~y:4 ~crossing:0 delta);
      (fun () -> Graph.add_via_usage graph ~x:5 ~y:2 ~crossing:0 delta);
    ]
  in
  List.iter (fun f -> f ()) (corrupt 1);
  let report () =
    match Assignment.check_usage asg with Ok () -> "ok" | Error msg -> msg
  in
  let expected =
    [
      "edge (7,7) layer 0: expected usage 3, graph says 4";
      "edge (5,2) layer 1: expected usage 2, graph says 3";
      "via (4,4) crossing 0: expected 1, graph says 2";
      "via (5,2) crossing 0: expected 2, graph says 3";
    ]
  in
  List.iter2
    (fun want undo ->
      Alcotest.(check string) "first mismatch" want (report ());
      undo ())
    expected (corrupt (-1));
  Alcotest.(check string) "restored" "ok" (report ())

let suite =
  [
    Alcotest.test_case "create unassigned" `Quick test_create_unassigned;
    Alcotest.test_case "assign installs edge usage" `Quick test_assign_edge_usage;
    Alcotest.test_case "move releases old layer" `Quick test_move_releases_old_layer;
    Alcotest.test_case "direction mismatch rejected" `Quick test_direction_mismatch;
    Alcotest.test_case "via spans after full assign" `Quick test_via_spans_after_full_assign;
    Alcotest.test_case "via span with high layer" `Quick test_via_span_with_high_layer;
    Alcotest.test_case "unassign clears usage" `Quick test_unassign_clears_usage;
    QCheck_alcotest.to_alcotest test_random_mutations;
    Alcotest.test_case "tree dp prefers cheap layer" `Quick test_tree_dp_prefers_cheap_layer;
    Alcotest.test_case "tree dp via tradeoff" `Quick test_tree_dp_via_tradeoff;
    QCheck_alcotest.to_alcotest test_tree_dp_vs_brute;
    Alcotest.test_case "init assign full+legal" `Quick test_init_assign_full_and_legal;
    Alcotest.test_case "congestion penalty schedule" `Quick test_congestion_penalty_schedule;
    Alcotest.test_case "check_usage reports first mismatch" `Quick test_check_usage_mismatch;
  ]
