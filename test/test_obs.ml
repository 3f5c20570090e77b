(* Observability: monotonic clock, spans, metrics, trace export, and the
   disabled-is-free contract.

   Obs state is global (one switch, per-domain buffers, one registry), so
   every test that enables it must tear down with [teardown] — including on
   failure — or later tests would see stale events. *)

module Obs = Cpla_obs.Obs
module Span = Cpla_obs.Span
module Event = Cpla_obs.Event
module Sink = Cpla_obs.Sink
module Metrics = Cpla_obs.Metrics
module Trace = Cpla_obs.Trace
module Timer = Cpla_util.Timer

let teardown () =
  Obs.set_enabled false;
  Obs.reset ()

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:teardown f

(* ---- timer ---------------------------------------------------------------- *)

let test_timer_monotonic () =
  let a = Timer.now_ns () in
  let sa = Timer.now_s () in
  (* burn a little time so the clock visibly advances *)
  let junk = ref 0 in
  for i = 0 to 200_000 do
    junk := !junk + i
  done;
  ignore (Sys.opaque_identity !junk);
  let b = Timer.now_ns () in
  let sb = Timer.now_s () in
  Alcotest.(check bool) "now_ns non-decreasing" true (Int64.compare b a >= 0);
  Alcotest.(check bool) "now_s non-decreasing" true (sb >= sa);
  let w = Timer.wall () in
  let e1 = Timer.elapsed_s w in
  let e2 = Timer.elapsed_s w in
  Alcotest.(check bool) "wall elapsed non-negative" true (e1 >= 0.0);
  Alcotest.(check bool) "wall elapsed monotone" true (e2 >= e1)

(* ---- spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  with_obs (fun () ->
      let r =
        Span.with_ ~name:"outer"
          ~args:[ ("k", Event.Int 7) ]
          (fun () ->
            Span.with_ ~name:"inner" (fun () -> ());
            Span.instant ~name:"tick" ();
            42)
      in
      Alcotest.(check int) "span returns body value" 42 r;
      let evs = Sink.drain () in
      let names = List.map (fun (e : Event.t) -> (e.name, e.ph)) evs in
      Alcotest.(check bool) "LIFO nesting order" true
        (names
        = [
            ("outer", Event.Begin);
            ("inner", Event.Begin);
            ("inner", Event.End);
            ("tick", Event.Instant);
            ("outer", Event.End);
          ]);
      let ts = List.map (fun (e : Event.t) -> e.ts_ns) evs in
      Alcotest.(check bool) "timestamps sorted" true (List.sort Int64.compare ts = ts);
      match evs with
      | { Event.args = [ ("k", Event.Int 7) ]; _ } :: _ -> ()
      | _ -> Alcotest.fail "args lost on Begin event")

let test_span_exception () =
  with_obs (fun () ->
      (match Span.with_ ~name:"boom" (fun () -> failwith "no") with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure m -> Alcotest.(check string) "re-raised unchanged" "no" m);
      match Sink.drain () with
      | [ { Event.ph = Event.Begin; _ }; { Event.ph = Event.End; args; _ } ] ->
          Alcotest.(check bool) "End carries the exception" true
            (match List.assoc_opt "exn" args with
            | Some (Event.Str s) -> String.length s > 0
            | _ -> false)
      | evs -> Alcotest.failf "unbalanced events (%d)" (List.length evs))

let test_span_balanced_per_domain () =
  (* pool tasks are spanned on the worker domains that execute them *)
  with_obs (fun () ->
      let xs = Array.init 16 (fun i -> i) in
      let ys = Cpla_util.Pool.parallel_map ~workers:2 (fun i -> i * i) xs in
      Alcotest.(check bool) "map result intact" true (ys = Array.map (fun i -> i * i) xs);
      let evs = Sink.drain () in
      let tasks = List.filter (fun (e : Event.t) -> e.name = "pool/task") evs in
      Alcotest.(check int) "one B and one E per task" (2 * Array.length xs)
        (List.length tasks);
      let by_dom = Hashtbl.create 4 in
      List.iter
        (fun (e : Event.t) ->
          let st = try Hashtbl.find by_dom e.dom with Not_found -> [] in
          match e.ph with
          | Event.Begin -> Hashtbl.replace by_dom e.dom (e.name :: st)
          | Event.End -> (
              match st with
              | top :: rest when top = e.name -> Hashtbl.replace by_dom e.dom rest
              | _ -> Alcotest.fail "unbalanced End on a domain track")
          | Event.Instant -> ())
        tasks;
      Hashtbl.iter
        (fun dom st ->
          Alcotest.(check (list string)) (Printf.sprintf "domain %d drained" dom) [] st)
        by_dom;
      Alcotest.(check bool) "tasks ran off the main domain" true
        (List.exists (fun (e : Event.t) -> e.dom <> (Domain.self () :> int)) tasks))

(* ---- disabled is free ------------------------------------------------------ *)

let test_disabled_records_nothing () =
  teardown ();
  Alcotest.(check bool) "switch reads off" false (Obs.enabled ());
  let r = Span.with_ ~name:"ghost" (fun () -> 7) in
  Span.instant ~name:"ghost" ();
  Metrics.incr "ghost";
  Metrics.set "ghost-g" 1.0;
  Metrics.observe "ghost-h" 1.0;
  Alcotest.(check int) "span still runs its body" 7 r;
  Alcotest.(check int) "no events buffered" 0 (List.length (Sink.drain ()));
  Alcotest.(check bool) "no metrics registered" true (Metrics.counter_value "ghost" = None);
  (* the pipeline behaves identically with the switch off: same report *)
  let run () =
    let spec =
      { Cpla_route.Synth.default_spec with Cpla_route.Synth.width = 24; height = 24;
        num_nets = 200; capacity = 8; seed = 11 }
    in
    let graph, nets = Cpla_route.Synth.generate spec in
    let routed = Cpla_route.Router.route_all ~graph nets in
    let asg = Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees in
    Cpla_route.Init_assign.run asg;
    let released = Cpla_timing.Critical.select asg ~ratio:0.01 in
    Cpla.Driver.optimize_released asg ~released
  in
  let off = run () in
  let on = with_obs (fun () -> run ()) in
  Alcotest.(check (float 1e-9)) "same avg_tcp with obs on" on.Cpla.Driver.avg_tcp
    off.Cpla.Driver.avg_tcp;
  Alcotest.(check int) "same iteration count" on.Cpla.Driver.iterations
    off.Cpla.Driver.iterations

(* ---- metrics --------------------------------------------------------------- *)

let test_metrics_registry () =
  with_obs (fun () ->
      Metrics.incr "jobs";
      Metrics.incr ~by:4 "jobs";
      Metrics.set "score" 2.5;
      Metrics.observe ~lo:0.0 ~hi:10.0 ~bins:5 "delay" 3.0;
      Metrics.observe "delay" Float.nan;
      Metrics.observe "delay" 99.0;
      Alcotest.(check (option int)) "counter" (Some 5) (Metrics.counter_value "jobs");
      Alcotest.(check (option (float 1e-12))) "gauge" (Some 2.5) (Metrics.gauge_value "score");
      Alcotest.(check (option int)) "kind lookup is checked" None (Metrics.counter_value "score");
      let dump = Metrics.dump () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " in dump") true (contains dump needle))
        [ "jobs"; "score"; "delay"; "counter"; "gauge"; "histogram"; "nan=1"; "over=1" ];
      Alcotest.(check bool) "kind clash raises" true
        (match Metrics.incr "score" with
        | exception Invalid_argument _ -> true
        | () -> false))

(* The router's span carries its input size on Begin and its outcome on
   End, and the maze-call counter agrees with the result. *)
let test_route_span () =
  let spec =
    { Cpla_route.Synth.default_spec with Cpla_route.Synth.width = 16; height = 16;
      num_nets = 400; capacity = 2; seed = 5 }
  in
  let graph, nets = Cpla_route.Synth.generate spec in
  with_obs (fun () ->
      let r = Cpla_route.Router.route_all ~graph nets in
      let evs = List.filter (fun (e : Event.t) -> e.name = "route/route_all") (Sink.drain ()) in
      let arg ph key =
        match List.find_opt (fun (e : Event.t) -> e.ph = ph) evs with
        | Some e -> List.assoc_opt key e.args
        | None -> None
      in
      Alcotest.(check int) "one span" 2 (List.length evs);
      Alcotest.(check bool) "nets on Begin" true
        (arg Event.Begin "nets" = Some (Event.Int (Array.length nets)));
      Alcotest.(check bool) "maze_routes on End" true
        (arg Event.End "maze_routes" = Some (Event.Int r.Cpla_route.Router.maze_routes));
      Alcotest.(check bool) "overflow_2d on End" true
        (arg Event.End "overflow_2d" = Some (Event.Int r.Cpla_route.Router.overflow_2d));
      Alcotest.(check bool) "this design needs the maze" true (r.Cpla_route.Router.maze_routes > 0);
      Alcotest.(check (option int)) "maze-calls counter" (Some r.Cpla_route.Router.maze_routes)
        (Metrics.counter_value "route/maze-calls"))

(* The SDP span's End event reports the final kernel run's convergence: the
   resolved rank, its rounds and L-BFGS iterations, whether it ran from the
   warm seed, whether it stalled, and its edge overflow Σ o, which also
   feeds the [sdp/overflowed] counter. *)
let test_sdp_span_convergence () =
  let module K = Cpla_sdp.Kernel in
  let options = Cpla.Config.default.Cpla.Config.sdp_options in
  let alpha = Cpla.Config.default.Cpla.Config.alpha in
  let f = Test_cpla.random_formulation 4242 in
  let ws = K.ws_create () in
  with_obs (fun () ->
      let solve ?v0 f =
        let s = Cpla.Sdp_method.solve ~options ~alpha ~ws ?v0 f in
        let ends =
          List.filter
            (fun (e : Event.t) -> e.name = "sdp/solve" && e.ph = Event.End)
            (Sink.drain ())
        in
        match ends with
        | [ e ] -> (s, e.args)
        | _ -> Alcotest.failf "expected one sdp/solve End, got %d" (List.length ends)
      in
      (* [overflow] is Σ o of the returned factor *)
      let check_overflow label f (s, args) =
        let overflow = Test_cpla.overflow_of_factor f s.Cpla.Sdp_method.factor in
        Alcotest.(check bool) (Printf.sprintf "%s: overflow = %g" label overflow) true
          (List.assoc_opt "overflow" args = Some (Event.Float overflow));
        overflow
      in
      let check_run label ~warm (s, args) =
        let viol = K.max_violation ws in
        let stalled =
          (not (Float.is_finite viol)) || viol > 100.0 *. options.Cpla_sdp.Solver.feas_tol
        in
        List.iter
          (fun (key, v) ->
            Alcotest.(check bool) (Printf.sprintf "%s: %s = %d" label key v) true
              (List.assoc_opt key args = Some (Event.Int v)))
          [
            ("rank", options.Cpla_sdp.Solver.rank);
            ("outer_rounds", K.outer_rounds ws);
            ("lbfgs_iters", K.lbfgs_iters ws);
            ("warm", Bool.to_int warm);
            ("stalled", Bool.to_int stalled);
          ];
        check_overflow label f (s, args)
      in
      let cold = solve f in
      let _ = check_run "cold" ~warm:false cold in
      Alcotest.(check bool) "the kernel ran" true (K.lbfgs_iters ws > 0);
      (* this seed does not stall, so no cold retry replaces the warm run *)
      let overflow = check_run "warm" ~warm:true (solve ~v0:(fst cold).Cpla.Sdp_method.factor f) in
      Alcotest.(check bool) "no overflowed solve yet" true
        (overflow < 0.5 && Metrics.counter_value "sdp/overflowed" = None);
      (* a segment with no free track overflows its edge *)
      let overfull = Test_cpla.overfull_formulation () in
      let overflow = check_overflow "overfull" overfull (solve overfull) in
      Alcotest.(check bool) "overfull: the segment overflows" true (overflow >= 0.9);
      Alcotest.(check (option int)) "overflowed counter" (Some 1)
        (Metrics.counter_value "sdp/overflowed"))

(* The ILP span's End event reports the search: nodes explored, whether it
   ran to completion, and whether it found an incumbent.  A partition with
   no free track for its one segment is infeasible under the ILP's hard
   capacity rows: the root LP proves it, and [ilp/no-incumbent] counts it. *)
let test_ilp_span_search_args () =
  let options = Cpla_ilp.Solver.default_options in
  let alpha = Cpla.Config.default.Cpla.Config.alpha in
  with_obs (fun () ->
      let solve f =
        let r = Cpla.Ilp_method.solve ~options ~alpha f in
        let ends =
          List.filter
            (fun (e : Event.t) -> e.name = "ilp/solve" && e.ph = Event.End)
            (Sink.drain ())
        in
        match ends with
        | [ e ] -> (r, fun key -> List.assoc_opt key e.args)
        | _ -> Alcotest.failf "expected one ilp/solve End, got %d" (List.length ends)
      in
      let r, arg = solve (Test_cpla.random_formulation 4242) in
      Alcotest.(check bool) "feasible: a layer per var" true (r <> None);
      Alcotest.(check bool) "feasible: incumbent = 1" true (arg "incumbent" = Some (Event.Int 1));
      Alcotest.(check bool) "feasible: proven_optimal = 1" true
        (arg "proven_optimal" = Some (Event.Int 1));
      Alcotest.(check bool) "feasible: nodes >= 1" true
        (match arg "nodes" with Some (Event.Int n) -> n >= 1 | _ -> false);
      Alcotest.(check (option int)) "no no-incumbent solve yet" None
        (Metrics.counter_value "ilp/no-incumbent");
      let r, arg = solve (Test_cpla.overfull_formulation ()) in
      Alcotest.(check bool) "overfull: no layers" true (r = None);
      List.iter
        (fun (key, v) ->
          Alcotest.(check bool) (Printf.sprintf "overfull: %s = %d" key v) true
            (arg key = Some (Event.Int v)))
        [ ("nodes", 1); ("proven_optimal", 1); ("incumbent", 0) ];
      Alcotest.(check (option int)) "no-incumbent counter" (Some 1)
        (Metrics.counter_value "ilp/no-incumbent"))

(* ---- trace export ----------------------------------------------------------- *)

let mk ?(args = []) name ph ts dom = { Event.name; ph; ts_ns = ts; dom; args }

let test_trace_json_golden () =
  let evs =
    [
      mk "a" Event.Begin 1000L 0 ~args:[ ("n", Event.Int 3); ("s", Event.Str "x\"y") ];
      mk "b" Event.Begin 1500L 1;
      mk "b" Event.End 2500L 1 ~args:[ ("v", Event.Float 0.5) ];
      mk "a" Event.End 4000L 0;
    ]
  in
  let expected =
    "{\"traceEvents\":[\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"domain 0\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"domain 1\"}},\n\
     {\"name\":\"a\",\"ph\":\"B\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"args\":{\"n\":3,\"s\":\"x\\\"y\"}},\n\
     {\"name\":\"b\",\"ph\":\"B\",\"ts\":0.500,\"pid\":0,\"tid\":1},\n\
     {\"name\":\"b\",\"ph\":\"E\",\"ts\":1.500,\"pid\":0,\"tid\":1,\"args\":{\"v\":0.5}},\n\
     {\"name\":\"a\",\"ph\":\"E\",\"ts\":3.000,\"pid\":0,\"tid\":0}]}\n"
  in
  Alcotest.(check string) "golden trace document" expected (Trace.json evs)

let test_trace_json_degenerate () =
  Alcotest.(check string) "empty trace still a document" "{\"traceEvents\":[]}\n"
    (Trace.json []);
  (* non-finite float args must not produce bare NaN tokens (invalid JSON) *)
  let doc = Trace.json [ mk "x" Event.Instant 0L 0 ~args:[ ("v", Event.Float Float.nan) ] ] in
  Alcotest.(check bool) "nan quoted" true (contains doc "\"nan\"")

let test_trace_roundtrip_from_spans () =
  with_obs (fun () ->
      Span.with_ ~name:"outer" (fun () -> Span.with_ ~name:"inner" (fun () -> ()));
      let doc = Trace.json (Sink.drain ()) in
      (* cheap structural checks: one B and one E per span, wrapper present *)
      let count needle =
        let n = String.length needle and m = String.length doc in
        let c = ref 0 in
        for i = 0 to m - n do
          if String.sub doc i n = needle then incr c
        done;
        !c
      in
      Alcotest.(check int) "two Begin events" 2 (count "\"ph\":\"B\"");
      Alcotest.(check int) "two End events" 2 (count "\"ph\":\"E\"");
      Alcotest.(check bool) "traceEvents wrapper" true (count "\"traceEvents\"" = 1))

let suite =
  [
    Alcotest.test_case "timer monotonic" `Quick test_timer_monotonic;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception" `Quick test_span_exception;
    Alcotest.test_case "span per-domain balance" `Quick test_span_balanced_per_domain;
    Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "trace json golden" `Quick test_trace_json_golden;
    Alcotest.test_case "trace json degenerate" `Quick test_trace_json_degenerate;
    Alcotest.test_case "trace roundtrip from spans" `Quick test_trace_roundtrip_from_spans;
    Alcotest.test_case "route span and maze counter" `Quick test_route_span;
    Alcotest.test_case "sdp span convergence args" `Quick test_sdp_span_convergence;
    Alcotest.test_case "ilp span search args" `Quick test_ilp_span_search_args;
  ]
