(* Tests for the extension modules: the domain pool, slack analysis and
   solution-format I/O. *)

open Cpla_route
open Cpla_timing

let pin px py = { Net.px; py; pl = 0 }

(* ---- Pool ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs)
    (Cpla_util.Pool.parallel_map ~workers:4 f xs)

let test_pool_sequential_fallback () =
  let xs = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "workers=1" [| 2; 4; 6 |]
    (Cpla_util.Pool.parallel_map ~workers:1 (fun x -> 2 * x) xs)

let test_pool_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Cpla_util.Pool.parallel_map ~workers:4 (fun x -> x) [||])

let test_pool_propagates_exception () =
  Alcotest.(check bool) "raises" true
    (match
       Cpla_util.Pool.parallel_map ~workers:3
         (fun x -> if x = 5 then failwith "boom" else x)
         (Array.init 10 (fun i -> i))
     with
    | exception Cpla_util.Pool.Worker_failure (Failure _) -> true
    | _ -> false)

let pool_property =
  QCheck.Test.make ~name:"pool equals Array.map for pure functions" ~count:30
    QCheck.(pair (int_range 1 8) (array_of_size (QCheck.Gen.int_range 0 50) small_int))
    (fun (workers, xs) ->
      Cpla_util.Pool.parallel_map ~workers (fun x -> x * 3) xs = Array.map (fun x -> x * 3) xs)

(* ---- Slack ------------------------------------------------------------------ *)

let small_design () =
  let spec =
    { Synth.default_spec with Synth.width = 24; height = 24; num_nets = 300; seed = 17 }
  in
  let graph, nets = Synth.generate spec in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  asg

let test_slack_clock_budget () =
  let asg = small_design () in
  (* an infinite clock meets every net; a zero clock violates every net *)
  let loose = Slack.analyze asg (Slack.Clock 1e12) in
  Alcotest.(check int) "no violations" 0 loose.Slack.violations;
  Alcotest.(check (float 1e-9)) "wns zero" 0.0 loose.Slack.wns;
  let tight = Slack.analyze asg (Slack.Clock 0.0) in
  Alcotest.(check int) "all violate" (Assignment.num_nets asg) tight.Slack.violations;
  Alcotest.(check bool) "tns negative" true (tight.Slack.tns < 0.0)

let test_slack_scaled_budget () =
  let asg = small_design () in
  (* the lower bound is unreachable at factor 1 for most nets (they carry
     congestion and via detours), and generously reachable at factor 50 *)
  let tight = Slack.analyze asg (Slack.Scaled 1.0) in
  let loose = Slack.analyze asg (Slack.Scaled 50.0) in
  Alcotest.(check bool) "tight has more violations" true
    (tight.Slack.violations >= loose.Slack.violations);
  Alcotest.(check bool) "wns ordering" true (tight.Slack.wns <= loose.Slack.wns)

let test_slack_selection () =
  let asg = small_design () in
  let sel = Slack.select_violating asg (Slack.Scaled 1.5) ~max_nets:5 in
  Alcotest.(check bool) "capped" true (Array.length sel <= 5);
  (* worst first *)
  let report = Slack.analyze asg (Slack.Scaled 1.5) in
  let ok = ref true in
  Array.iteri
    (fun i net ->
      if i > 0 then
        if report.Slack.slacks.(net) < report.Slack.slacks.(sel.(i - 1)) then ok := false)
    sel;
  Alcotest.(check bool) "sorted by slack" true !ok

let test_slack_improves_with_optimisation () =
  let asg = small_design () in
  let before = Slack.analyze asg (Slack.Scaled 2.0) in
  let released = Critical.select asg ~ratio:0.02 in
  ignore (Cpla.Driver.optimize_released asg ~released);
  let after = Slack.analyze asg (Slack.Scaled 2.0) in
  Alcotest.(check bool) "tns no worse" true (after.Slack.tns >= before.Slack.tns -. 1e-6)

(* ---- Solution I/O ------------------------------------------------------------ *)

let two_net_design () =
  let tech = Cpla_grid.Tech.default ~num_layers:4 () in
  let graph =
    Cpla_grid.Graph.create ~tech ~width:8 ~height:8 ~layer_capacity:(Array.make 4 8)
  in
  let n0 = Net.create ~id:0 ~name:"alpha" ~pins:[| pin 0 0; pin 4 0; pin 2 3 |] in
  let n1 = Net.create ~id:1 ~name:"beta" ~pins:[| pin 5 5; pin 7 5 |] in
  let t0 =
    Stree.of_edges ~root:(0, 0) [ ((0, 0), (2, 0)); ((2, 0), (4, 0)); ((2, 0), (2, 3)) ]
  in
  let t1 = Stree.of_edges ~root:(5, 5) [ ((5, 5), (7, 5)) ] in
  Assignment.create ~graph ~nets:[| n0; n1 |] ~trees:[| Some t0; Some t1 |]

let assign_all asg =
  let tech = Assignment.tech asg in
  for net = 0 to Assignment.num_nets asg - 1 do
    Array.iteri
      (fun seg s ->
        Assignment.set_layer asg ~net ~seg
          ~layer:(List.hd (Cpla_grid.Tech.layers_of_dir tech s.Segment.dir)))
      (Assignment.segments asg net)
  done

let test_solution_write_parse_roundtrip () =
  let asg = two_net_design () in
  assign_all asg;
  let text = Solution.write asg in
  match Solution.parse text with
  | Error e -> Alcotest.fail e
  | Ok routes ->
      Alcotest.(check int) "two nets" 2 (List.length routes);
      Alcotest.(check (list string)) "names" [ "alpha"; "beta" ]
        (List.map (fun r -> r.Solution.name) routes)

let test_solution_apply_restores_layers () =
  let asg = two_net_design () in
  assign_all asg;
  (* move a segment up, dump, scramble, re-apply *)
  Assignment.set_layer asg ~net:0 ~seg:0 ~layer:2;
  let text = Solution.write asg in
  let want =
    Array.init 2 (fun net ->
        Array.mapi (fun seg _ -> Assignment.layer asg ~net ~seg) (Assignment.segments asg net))
  in
  (* scramble back to the lowest layers *)
  assign_all asg;
  (match Solution.parse text with
  | Error e -> Alcotest.fail e
  | Ok routes -> (
      match Solution.apply asg routes with
      | Error e -> Alcotest.fail e
      | Ok () -> ()));
  for net = 0 to 1 do
    Array.iteri
      (fun seg expected ->
        Alcotest.(check int)
          (Printf.sprintf "net %d seg %d" net seg)
          expected
          (Assignment.layer asg ~net ~seg))
      want.(net)
  done;
  Alcotest.(check bool) "usage consistent" true (Assignment.check_usage asg = Ok ())

let test_solution_contains_vias () =
  let asg = two_net_design () in
  assign_all asg;
  (* H on 0, V on 1: the junction at (2,0) must emit a via record *)
  let text = Solution.write asg in
  let has_via =
    String.split_on_char '\n' text
    |> List.exists (fun line ->
           match String.index_opt line ',' with
           | None -> false
           | Some _ -> (
               try
                 Scanf.sscanf line " (%d,%d,%d)-(%d,%d,%d)" (fun ax ay l1 bx by l2 ->
                     ax = bx && ay = by && l1 <> l2)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> false))
  in
  Alcotest.(check bool) "via record present" true has_via

let test_solution_parse_errors () =
  Alcotest.(check bool) "unterminated" true
    (match Solution.parse "netA 0\n(5,5,1)-(25,5,1)\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "stray bang" true
    (match Solution.parse "!\n" with Error _ -> true | Ok _ -> false)

let test_solution_unassigned_rejected () =
  let asg = two_net_design () in
  Alcotest.(check bool) "raises" true
    (match Solution.write asg with exception Invalid_argument _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool workers=1 fallback" `Quick test_pool_sequential_fallback;
    Alcotest.test_case "pool empty input" `Quick test_pool_empty;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_propagates_exception;
    QCheck_alcotest.to_alcotest pool_property;
    Alcotest.test_case "slack clock budgets" `Quick test_slack_clock_budget;
    Alcotest.test_case "slack scaled budgets" `Quick test_slack_scaled_budget;
    Alcotest.test_case "slack selection" `Quick test_slack_selection;
    Alcotest.test_case "slack improves with optimisation" `Slow
      test_slack_improves_with_optimisation;
    Alcotest.test_case "solution write/parse roundtrip" `Quick test_solution_write_parse_roundtrip;
    Alcotest.test_case "solution apply restores layers" `Quick test_solution_apply_restores_layers;
    Alcotest.test_case "solution contains vias" `Quick test_solution_contains_vias;
    Alcotest.test_case "solution parse errors" `Quick test_solution_parse_errors;
    Alcotest.test_case "solution rejects unassigned" `Quick test_solution_unassigned_rejected;
  ]
