open Cpla_grid
open Cpla_route
open Cpla_timing

(* Equivalence property: after arbitrary sequences of set_layer / unassign /
   re-assign, every cached query of the incremental engine matches a
   from-scratch analysis to within 1e-12. *)

let eps = 1e-12

let small_design seed =
  let spec =
    {
      Synth.name = "incr-test";
      width = 16;
      height = 16;
      num_layers = 4;
      num_nets = 120;
      capacity = 8;
      seed;
      mean_extra_pins = 1.5;
      local_fraction = 0.75;
      hotspots = 1;
      blockage_fraction = 0.0;
    }
  in
  let graph, nets = Synth.generate spec in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  asg

let check_float name a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: cached %.17g vs scratch %.17g" name a b

let check_net_equivalence asg eng i =
  let cached = Incremental.detail eng i in
  let scratch = Elmore.analyze asg i in
  check_float (Printf.sprintf "net %d worst_delay" i) cached.Elmore.worst_delay
    scratch.Elmore.worst_delay;
  Alcotest.(check int)
    (Printf.sprintf "net %d sink count" i)
    (Array.length scratch.Elmore.sink_delays)
    (Array.length cached.Elmore.sink_delays);
  Array.iteri
    (fun k (v, d) ->
      let v', d' = cached.Elmore.sink_delays.(k) in
      Alcotest.(check int) (Printf.sprintf "net %d sink %d node" i k) v v';
      check_float (Printf.sprintf "net %d sink %d delay" i k) d' d)
    scratch.Elmore.sink_delays;
  Array.iteri
    (fun s cd -> check_float (Printf.sprintf "net %d seg %d cd" i s) cached.Elmore.seg_cd.(s) cd)
    scratch.Elmore.seg_cd;
  let cached_pi = Incremental.path_info eng i in
  let scratch_pi = Critical.path_info asg i in
  Alcotest.(check (array int))
    (Printf.sprintf "net %d path_segs" i)
    scratch_pi.Critical.path_segs cached_pi.Critical.path_segs;
  Array.iteri
    (fun s r ->
      check_float
        (Printf.sprintf "net %d seg %d attach_r" i s)
        cached_pi.Critical.branch_attach_r.(s) r)
    scratch_pi.Critical.branch_attach_r

let check_all_nets asg eng =
  for i = 0 to Assignment.num_nets asg - 1 do
    check_net_equivalence asg eng i
  done

let random_layer rng tech dir =
  let layers = Array.of_list (Tech.layers_of_dir tech dir) in
  Cpla_util.Rng.choose rng layers

(* Random net with at least one segment. *)
let random_seg_net rng asg =
  let n = Assignment.num_nets asg in
  let rec pick tries =
    if tries > 200 then None
    else
      let i = Cpla_util.Rng.int rng n in
      if Array.length (Assignment.segments asg i) > 0 then Some i else pick (tries + 1)
  in
  pick 0

let mutate_randomly rng asg ops =
  let tech = Assignment.tech asg in
  for _ = 1 to ops do
    match random_seg_net rng asg with
    | None -> ()
    | Some net ->
        let segs = Assignment.segments asg net in
        let seg = Cpla_util.Rng.int rng (Array.length segs) in
        let dir = segs.(seg).Segment.dir in
        if Cpla_util.Rng.int rng 10 = 0 then begin
          (* unassign then re-assign: the engine must not serve the state in
             between as valid once the segment comes back *)
          let back = random_layer rng tech dir in
          Assignment.unassign asg ~net ~seg;
          Assignment.set_layer asg ~net ~seg ~layer:back
        end
        else Assignment.set_layer asg ~net ~seg ~layer:(random_layer rng tech dir)
  done

let test_equivalence_after_random_ops () =
  let asg = small_design 42 in
  let eng = Incremental.create asg in
  let rng = Cpla_util.Rng.create 7 in
  check_all_nets asg eng;
  for _round = 1 to 5 do
    mutate_randomly rng asg 40;
    check_all_nets asg eng
  done

let test_select_and_aggregate_equivalence () =
  let asg = small_design 43 in
  let eng = Incremental.create asg in
  let rng = Cpla_util.Rng.create 11 in
  List.iter
    (fun ratio ->
      mutate_randomly rng asg 30;
      Alcotest.(check (array int))
        (Printf.sprintf "select at %.3f" ratio)
        (Critical.select asg ~ratio) (Incremental.select eng ~ratio);
      let released = Critical.select asg ~ratio in
      let avg, mx = Critical.avg_max_tcp asg released in
      let avg', mx' = Incremental.avg_max_tcp eng released in
      check_float "avg_tcp" avg' avg;
      check_float "max_tcp" mx' mx;
      Alcotest.(check bool)
        "pin_delays equal" true
        (Critical.pin_delays asg released = Incremental.pin_delays eng released))
    [ 0.05; 0.1; 0.5 ]

let test_dirty_tracking () =
  let asg = small_design 44 in
  let eng = Incremental.create asg in
  Incremental.refresh eng;
  Alcotest.(check int) "clean after refresh" 0 (Incremental.dirty_count eng);
  match random_seg_net (Cpla_util.Rng.create 3) asg with
  | None -> Alcotest.fail "design has no multi-tile nets"
  | Some net ->
      let tech = Assignment.tech asg in
      let segs = Assignment.segments asg net in
      let cur = Assignment.layer asg ~net ~seg:0 in
      (* a no-op set_layer must not invalidate *)
      Assignment.set_layer asg ~net ~seg:0 ~layer:cur;
      Alcotest.(check bool) "no-op keeps clean" false (Incremental.is_dirty eng net);
      let alt =
        List.find (fun l -> l <> cur) (Tech.layers_of_dir tech segs.(0).Segment.dir)
      in
      Assignment.set_layer asg ~net ~seg:0 ~layer:alt;
      Alcotest.(check bool) "move dirties the net" true (Incremental.is_dirty eng net);
      Alcotest.(check int) "exactly one dirty net" 1 (Incremental.dirty_count eng);
      ignore (Incremental.net_tcp eng net);
      Alcotest.(check bool) "query revalidates" false (Incremental.is_dirty eng net);
      Assignment.set_layer asg ~net ~seg:0 ~layer:cur;
      check_net_equivalence asg eng net

let test_refresh_equivalence () =
  let asg = small_design 45 in
  let eng = Incremental.create asg in
  let rng = Cpla_util.Rng.create 19 in
  mutate_randomly rng asg 120;
  Alcotest.(check bool) "many nets dirty" true (Incremental.dirty_count eng > 8);
  Incremental.refresh eng;
  Alcotest.(check int) "clean after refresh" 0 (Incremental.dirty_count eng);
  check_all_nets asg eng;
  (* refreshing a clean engine is a no-op *)
  Incremental.refresh eng;
  check_all_nets asg eng

let test_engine_tracks_driver () =
  (* End-to-end: the Driver mutates the assignment through every code path
     (unassign, solve, set_layer, restore); afterwards the shared engine must
     agree with a from-scratch analysis, and the report's metrics must match. *)
  let asg = small_design 46 in
  let eng = Incremental.create asg in
  let released = Incremental.select eng ~ratio:0.05 in
  let report = Cpla.Driver.optimize_released ~engine:eng asg ~released in
  let avg, mx = Critical.avg_max_tcp asg released in
  check_float "report avg_tcp" report.Cpla.Driver.avg_tcp avg;
  check_float "report max_tcp" report.Cpla.Driver.max_tcp mx;
  check_all_nets asg eng

let test_empty_released_driver () =
  let asg = small_design 47 in
  let report = Cpla.Driver.optimize_released asg ~released:[||] in
  Alcotest.(check (float 0.0)) "avg 0 on empty release" 0.0 report.Cpla.Driver.avg_tcp;
  Alcotest.(check (float 0.0)) "max 0 on empty release" 0.0 report.Cpla.Driver.max_tcp;
  Alcotest.(check int) "no iterations" 0 report.Cpla.Driver.iterations

let suite =
  [
    Alcotest.test_case "equivalence after random ops" `Quick test_equivalence_after_random_ops;
    Alcotest.test_case "select/aggregate equivalence" `Quick
      test_select_and_aggregate_equivalence;
    Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
    Alcotest.test_case "refresh equivalence" `Quick test_refresh_equivalence;
    Alcotest.test_case "engine tracks the driver" `Quick test_engine_tracks_driver;
    Alcotest.test_case "empty released set" `Quick test_empty_released_driver;
  ]
