(* Tests of the benchmark's own arithmetic: percentiles, span self time,
   workload inputs from the seed, and failure accounting. *)

open Perfbench

let close = Alcotest.float 1e-9

(* ---- percentiles --------------------------------------------------------------- *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3.0 (Pct.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |]);
  Alcotest.check close "even" 2.5 (Pct.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "empty" 0.0 (Pct.median [||])

(* With samples 1..n, ceil((n-1)/10) of them lie above the interpolated
   p90, so p90 is first backed by ten samples at n = 92. *)
let test_tail_needs_ten_beyond () =
  Alcotest.(check (option close)) "91 samples: only 9 beyond" None (Pct.tail (samples 91) 90.0);
  (match Pct.tail (samples 92) 90.0 with
  | None -> Alcotest.fail "92 samples should back p90"
  | Some v ->
      Alcotest.check close "value" 82.9 v;
      Alcotest.(check int) "ten beyond" 10 (Pct.beyond (samples 92) v));
  Alcotest.(check bool) "200 samples back p90" true (Pct.tail (samples 200) 90.0 <> None);
  Alcotest.(check bool) "p99 needs ~1000" true (Pct.tail (samples 200) 99.0 = None)

let test_tail_ties_are_not_beyond () =
  Alcotest.(check (option close)) "all equal" None (Pct.tail (Array.make 500 7.0) 90.0);
  (* 1..89, then eleven 90s: p90 is 90 and no sample lies above it *)
  let tied = Array.init 100 (fun i -> float_of_int (min (i + 1) 90)) in
  Alcotest.(check (option close)) "ties at the top" None (Pct.tail tied 90.0)

(* ---- the measurement window ------------------------------------------------------ *)

let test_window () =
  let clock = ref 0.0 in
  let run cost seconds =
    clock := 0.0;
    Window.repeat ~seconds ~elapsed:(fun () -> !clock) (fun i ->
        clock := !clock +. cost;
        i)
  in
  Alcotest.(check (list int)) "starts while the median still fits" [ 0; 1; 2 ] (run 3.0 10.0);
  Alcotest.(check (list int)) "exactly full" [ 0; 1 ] (run 5.0 10.0);
  Alcotest.(check (list int)) "always one" [ 0 ] (run 30.0 10.0)

(* ---- spans ----------------------------------------------------------------------- *)

let ev name ph ts dom = { Cpla_obs.Event.name; ph; ts_ns = Int64.of_int ts; dom; args = [] }
let b name ts = ev name Cpla_obs.Event.Begin ts 0
let e name ts = ev name Cpla_obs.Event.End ts 0
let find spans name = List.find (fun s -> s.Spans.name = name) spans

(* Self time of the spans called [name], from the per-name table. *)
let self spans name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (Spans.self_table spans) with
  | Some (_, _, _, self) -> self
  | None -> Alcotest.fail ("no span " ^ name)

let test_nested_self_time () =
  let spans =
    Spans.of_events
      [ b "a" 0; b "b" 10; e "b" 20; b "c" 30; b "d" 35; e "d" 40; e "c" 50; e "a" 100 ]
  in
  let a = find spans "a" and c = find spans "c" and d = find spans "d" in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check (option int)) "d under c" (Some c.Spans.id) d.Spans.parent;
  Alcotest.(check (option int)) "a is a root" None a.Spans.parent;
  Alcotest.(check int64) "a: 100 minus children 10 + 20" 70L (self spans "a");
  Alcotest.(check int64) "c: 20 minus its child 5" 15L (self spans "c");
  Alcotest.(check int64) "leaf self = duration" 5L (self spans "d");
  Alcotest.(check int64) "covered at any depth" 30L (Spans.covered_by spans a [ "b"; "d"; "c" ])

let test_overlapping_children () =
  let span id name ?parent lo hi =
    { Spans.id; name; dom = id; start_ns = Int64.of_int lo; stop_ns = Int64.of_int hi; parent }
  in
  (* two children on other tracks overlap on [30, 50] and one sticks out *)
  let spans = [ span 0 "p" 0 100; span 1 "x" ~parent:0 10 50; span 2 "y" ~parent:0 30 70; span 3 "z" ~parent:0 90 130 ] in
  Alcotest.(check int64) "union, clipped to the parent" 70L
    (Spans.covered_ns ~lo:0L ~hi:100L [ (10L, 50L); (30L, 70L); (90L, 130L) ]);
  Alcotest.(check int64) "self = 100 - 70, not 100 - 110" 30L (self spans "p");
  Alcotest.(check int64) "empty" 0L (Spans.covered_ns ~lo:0L ~hi:10L []);
  Alcotest.(check int64) "touching intervals" 20L
    (Spans.covered_ns ~lo:0L ~hi:100L [ (0L, 10L); (10L, 20L) ])

let test_domains_and_unmatched () =
  let on dom name ph ts = ev name ph ts dom in
  let spans =
    Spans.of_events
      Cpla_obs.Event.
        [
          on 0 "outer" Begin 0; on 1 "job" Begin 5; on 0 "inner" Begin 6; on 1 "job" End 9;
          on 0 "inner" End 8; on 0 "outer" End 20; on 2 "stray" End 21; on 3 "open" Begin 22;
        ]
  in
  Alcotest.(check int) "matched spans only" 3 (List.length spans);
  Alcotest.(check (option int)) "no parent across domains" None (find spans "job").Spans.parent;
  Alcotest.(check int64) "outer self ignores the other domain" 18L (self spans "outer");
  Alcotest.(check int64) "but covered_by sees it" 4L
    (Spans.covered_by spans (find spans "outer") [ "job"; "inner" ])

(* ---- workload inputs ------------------------------------------------------------ *)

let test_pipeline_inputs_are_the_suite () =
  List.iter
    (fun (bench : Cpla_expt.Suite.bench) ->
      let name = bench.Cpla_expt.Suite.name in
      Alcotest.(check bool) (name ^ " spec") true (Designs.suite_spec name = bench.Cpla_expt.Suite.spec))
    Cpla_expt.Suite.all

let test_job_specs () =
  let seed (s : Cpla_route.Synth.spec) = s.Cpla_route.Synth.seed in
  let once s = List.init 50 (fun i -> seed (Designs.once_spec ~seed:s i)) in
  let hot = List.init 4 (fun i -> seed (Designs.hot_spec i)) in
  Alcotest.(check int) "distinct within a run" 54
    (List.length (List.sort_uniq compare (hot @ once 0)));
  Alcotest.(check bool) "workload seed moves the designs submitted once" true (once 0 <> once 1);
  let s = Designs.once_spec ~seed:2 7 in
  Alcotest.(check (list int)) "shape" [ 24; 24; 600 ]
    Cpla_route.Synth.[ s.width; s.height; s.num_nets ]

(* ---- failure accounting ------------------------------------------------------------ *)

let test_outcome_counting () =
  let o = Outcome.create () in
  Outcome.record o "a" [];
  Outcome.record o "b" [ "x"; "y" ];
  Outcome.record o "c" [];
  Outcome.record o "d" [ "z" ];
  Alcotest.(check int) "attempted" 4 o.Outcome.attempted;
  Alcotest.(check int) "one per failed operation, not per reason" 2 o.Outcome.failed;
  Alcotest.check close "ratio" 0.5 (Outcome.fail_ratio o);
  Alcotest.(check (list string)) "reasons" [ "b: x"; "b: y"; "d: z" ] (Outcome.reasons o);
  Alcotest.check close "nothing attempted" 0.0 (Outcome.fail_ratio (Outcome.create ()))

let test_design_checks () =
  let check ~structural ~avg1 ~max1 =
    List.length (Outcome.design_checks ~structural ~avg0:10.0 ~max0:20.0 ~avg1 ~max1)
  in
  Alcotest.(check int) "improved" 0 (check ~structural:0 ~avg1:9.0 ~max1:19.0);
  Alcotest.(check int) "unchanged" 0 (check ~structural:0 ~avg1:10.0 ~max1:20.0);
  Alcotest.(check int) "avg worse" 1 (check ~structural:0 ~avg1:10.5 ~max1:19.0);
  Alcotest.(check int) "max worse" 1 (check ~structural:0 ~avg1:9.0 ~max1:20.5);
  Alcotest.(check int) "structural" 1 (check ~structural:3 ~avg1:9.0 ~max1:19.0);
  Alcotest.(check int) "all three" 3 (check ~structural:1 ~avg1:11.0 ~max1:21.0);
  Alcotest.(check int) "cli agrees" 0
    (List.length (Outcome.cli_checks ~cli:("15389.98", "24380.60") ~avg:15389.981 ~max:24380.6));
  Alcotest.(check int) "cli differs" 1
    (List.length (Outcome.cli_checks ~cli:("15389.98", "24380.60") ~avg:15389.99 ~max:24380.6))

let run name ~avg1 ~via =
  {
    Pipeline.name;
    wall_s = 1.0;
    stage_s = Array.make 8 0.0;
    stage_words = Array.make 8 0.0;
    avg0 = 10.0;
    max0 = 20.0;
    avg1;
    max1 = 15.0;
    via_overflow = via;
    edge_overflow = 0;
    edge_overflow0 = 0;
    overflow_2d = 0;
    iterations = 1;
    partitions = 1;
    dirty_nets = 0;
    structural = 0;
  }

let test_pass_checks () =
  let pass runs = { Pipeline.pass_s = 1.0; runs } in
  let o = Outcome.create () in
  Pipeline.check_passes o
    [
      pass [ run "a" ~avg1:8.0 ~via:5; run "b" ~avg1:9.0 ~via:5 ];
      pass [ run "a" ~avg1:8.0 ~via:5; run "b" ~avg1:9.0 ~via:6 ];
      pass [ run "a" ~avg1:12.0 ~via:5; run "b" ~avg1:9.0 ~via:5 ];
    ];
  Alcotest.(check int) "one operation per design run" 6 o.Outcome.attempted;
  Alcotest.(check int) "a nondeterministic run and a worse one" 2 o.Outcome.failed

let test_daemon_checks () =
  let metrics avg =
    {
      Cpla_serve.Job.wirelength = 0;
      avg_tcp = avg;
      max_tcp = 1.0;
      via_overflow = 0;
      edge_overflow = 0;
      released = 6;
      wall_s = 0.1;
    }
  in
  let job design result = { Daemon_load.design; pass = 0; latency_s = 0.2; ack_s = 0.0; result } in
  let o = Outcome.create () in
  Daemon_load.check o
    [ (0, (5.0, 2.0, 0)) ]
    [
      job 0 (Ok (metrics 4.0)); job 0 (Ok (metrics 6.0)); job 9 (Ok (metrics 99.0));
      job 9 (Error "shed: queue-full"); job 1 (Error "job settled failed");
    ];
  Alcotest.(check int) "every job is an operation" 5 o.Outcome.attempted;
  Alcotest.(check int) "worse, shed and failed" 3 o.Outcome.failed

(* ---- the result line -------------------------------------------------------------------- *)

let test_result_line () =
  let metrics = Report.complete [ ("a_s", "s"); ("b", "count") ] [ ("b", 3.0) ] in
  Alcotest.(check bool) "missing reads 0" true (metrics = [ ("a_s", "s", 0.0); ("b", "count", 3.0) ]);
  Alcotest.check_raises "outside the catalog" (Invalid_argument "metric not in the catalog: c")
    (fun () -> ignore (Report.complete [ ("a_s", "s") ] [ ("c", 1.0) ]));
  let o = Outcome.create () in
  Outcome.record o "x" [ "broken" ];
  let module J = Cpla_net.Json in
  match J.parse (Report.json ~outcome:o [ ("a_s", "s", 0.25) ]) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let get k = Option.get (J.member k j) in
      Alcotest.(check (option bool)) "not correct" (Some false) (J.as_bool (get "correct"));
      Alcotest.(check (option int)) "failed" (Some 1) (J.as_int (get "failed"));
      let a = Option.get (J.member "a_s" (get "metrics")) in
      Alcotest.(check (option close)) "value" (Some 0.25)
        (Option.bind (J.member "value" a) J.as_float);
      Alcotest.(check (option string)) "unit" (Some "s") (Option.bind (J.member "unit" a) J.as_string)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail needs ten beyond" `Quick test_tail_needs_ten_beyond;
          Alcotest.test_case "ties are not beyond" `Quick test_tail_ties_are_not_beyond;
        ] );
      ("window", [ Alcotest.test_case "fills the window" `Quick test_window ]);
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_nested_self_time;
          Alcotest.test_case "overlapping children" `Quick test_overlapping_children;
          Alcotest.test_case "domains and unmatched events" `Quick test_domains_and_unmatched;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "pipeline inputs are the suite's" `Quick
            test_pipeline_inputs_are_the_suite;
          Alcotest.test_case "daemon job specs" `Quick test_job_specs;
        ] );
      ( "failures",
        [
          Alcotest.test_case "outcome counting" `Quick test_outcome_counting;
          Alcotest.test_case "design checks" `Quick test_design_checks;
          Alcotest.test_case "pass checks" `Quick test_pass_checks;
          Alcotest.test_case "daemon job checks" `Quick test_daemon_checks;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
