(* The in-process pipeline workloads: route -> initial assignment ->
   critical-net selection -> optimise -> timing refresh -> measure -> verify,
   run sequentially over the workload's designs, one pass after another.

   Every stage is a call into a public function, timed from outside with a
   wall clock and a minor-words delta, and wrapped in a benchmark-side span
   that records only while tracing is switched on. *)

open Cpla_route
module Span = Cpla_obs.Span

type workload = {
  designs : string list;  (** experiment-suite design names *)
  method_ : Cpla.Config.method_;
  cli_method : string;  (** the same method as `cpla optimize -m` spells it *)
}

let workload = function
  | "sdp-solve" ->
      Some { designs = [ "newblue4"; "bigblue1" ]; method_ = Cpla.Config.Sdp; cli_method = "sdp" }
  | "route-congested" ->
      Some { designs = [ "adaptec1"; "newblue1" ]; method_ = Cpla.Config.Ilp; cli_method = "ilp" }
  | _ -> None

type stage = Load | Route | Assign | Select | Optimize | Refresh | Measure | Verify

let stages = [| Load; Route; Assign; Select; Optimize; Refresh; Measure; Verify |]

let index = function
  | Load -> 0
  | Route -> 1
  | Assign -> 2
  | Select -> 3
  | Optimize -> 4
  | Refresh -> 5
  | Measure -> 6
  | Verify -> 7

let span_name = function
  | Load -> "bench/load"
  | Route -> "bench/route"
  | Assign -> "bench/init-assign"
  | Select -> "bench/select"
  | Optimize -> "bench/optimize"
  | Refresh -> "bench/refresh"
  | Measure -> "bench/measure"
  | Verify -> "bench/verify"

type design_run = {
  name : string;
  wall_s : float;
  stage_s : float array;  (** indexed by [index] *)
  stage_words : float array;  (** minor words allocated per stage *)
  avg0 : float;
  max0 : float;
  avg1 : float;
  max1 : float;
  via_overflow : int;
  edge_overflow : int;
  edge_overflow0 : int;  (** wire overflow of the initial assignment *)
  overflow_2d : int;
  iterations : int;
  partitions : int;
  dirty_nets : int;  (** nets the sign-off refresh analysed *)
  structural : int;  (** audit violations other than capacity overflow *)
}

let now_ns = Cpla_util.Timer.now_ns
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let run_design ~config (name, graph0, nets) =
  let stage_s = Array.make (Array.length stages) 0.0 in
  let stage_words = Array.make (Array.length stages) 0.0 in
  let stage s f =
    let w0 = Gc.minor_words () and t0 = now_ns () in
    let r = Span.with_ ~name:(span_name s) f in
    let t1 = now_ns () in
    stage_s.(index s) <- secs t0 t1;
    stage_words.(index s) <- Gc.minor_words () -. w0;
    r
  in
  let t0 = now_ns () in
  Span.with_ ~name:"bench/design" ~args:[ ("design", Cpla_obs.Event.Str name) ] @@ fun () ->
  let graph = stage Load (fun () -> Cpla_grid.Graph.clone graph0) in
  let routed = stage Route (fun () -> Router.route_all ~graph nets) in
  let asg, edge_overflow0 =
    stage Assign (fun () ->
        let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
        Init_assign.run asg;
        (asg, Cpla_grid.Graph.edge_overflow graph))
  in
  let engine, released, (avg0, max0) =
    stage Select (fun () ->
        let engine = Cpla_timing.Incremental.create asg in
        let released =
          Cpla_timing.Incremental.select engine ~ratio:config.Cpla.Config.critical_ratio
        in
        (engine, released, Cpla_timing.Incremental.avg_max_tcp engine released))
  in
  let report =
    stage Optimize (fun () -> Cpla.Driver.optimize_released ~config ~engine asg ~released)
  in
  (* A fresh engine over the optimised assignment, as a sign-off timer would
     start: every net is dirty, so the refresh analyses the whole design
     (the optimiser's own engine has already re-analysed what it moved). *)
  let signoff, dirty_nets =
    stage Refresh (fun () ->
        let e = Cpla_timing.Incremental.create asg in
        let n = Cpla_timing.Incremental.dirty_count e in
        Cpla_timing.Incremental.refresh e;
        (e, n))
  in
  let m =
    stage Measure (fun () ->
        Cpla.Metrics.measure ~engine:signoff asg ~released ~cpu_s:stage_s.(index Optimize))
  in
  let audit = stage Verify (fun () -> Verify.check asg) in
  {
    name;
    wall_s = secs t0 (now_ns ());
    stage_s;
    stage_words;
    avg0;
    max0;
    avg1 = m.Cpla.Metrics.avg_tcp;
    max1 = m.Cpla.Metrics.max_tcp;
    via_overflow = m.Cpla.Metrics.via_overflow;
    edge_overflow = m.Cpla.Metrics.edge_overflow;
    edge_overflow0;
    overflow_2d = routed.Router.overflow_2d;
    iterations = report.Cpla.Driver.iterations;
    partitions = report.Cpla.Driver.partitions_solved;
    dirty_nets;
    structural = Outcome.structural audit;
  }

type pass = { pass_s : float; runs : design_run list }

let run_pass ~config designs =
  let t0 = now_ns () in
  let runs = Span.with_ ~name:"bench/pass" (fun () -> List.map (run_design ~config) designs) in
  { pass_s = secs t0 (now_ns ()); runs }

(* A traced pass: recording on for exactly this pass, then the spans and
   counters it produced. *)
type traced = { pass : pass; spans : Spans.span list; counter : string -> int }

let run_traced_pass ~config designs =
  Cpla_obs.Obs.reset ();
  Cpla_obs.Obs.set_enabled true;
  let pass = Fun.protect ~finally:(fun () -> Cpla_obs.Obs.set_enabled false) (fun () ->
      run_pass ~config designs)
  in
  let events = Cpla_obs.Sink.drain () in
  let counters =
    List.map
      (fun n -> (n, Option.value ~default:0 (Cpla_obs.Metrics.counter_value n)))
      [ "sdp/solves"; "sdp/warm-retries"; "ilp/solves"; "driver/cells" ]
  in
  Cpla_obs.Obs.reset ();
  let counter n = Option.value ~default:0 (List.assoc_opt n counters) in
  ({ pass; spans = Spans.of_events events; counter }, events)

let sumf f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs
let sumi f runs = List.fold_left (fun acc r -> acc + f r) 0 runs

(* Checks on every design run, plus bitwise agreement of each pass with the
   first: at workers = 1 the quality columns are deterministic. *)
let check_passes outcome passes =
  match passes with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun p pass ->
          List.iter2
            (fun r r1 ->
              let same =
                r.avg1 = r1.avg1 && r.max1 = r1.max1 && r.via_overflow = r1.via_overflow
                && r.edge_overflow = r1.edge_overflow
              in
              Outcome.record outcome
                (Printf.sprintf "pass %d %s" p r.name)
                (Outcome.design_checks ~structural:r.structural ~avg0:r.avg0 ~max0:r.max0
                   ~avg1:r.avg1 ~max1:r.max1
                @ if same then [] else [ "quality differs from the first pass" ]))
            pass.runs first.runs)
        passes

(* `cpla optimize` on the same suite design must print the benchmark's own
   Avg/Max(Tcp).  Checked at seed 0 only: it adds a pass's worth of time. *)
let check_cli outcome ~cpla ~wl (first : pass) =
  List.iter
    (fun r ->
      let label = Printf.sprintf "cli %s -m %s" r.name wl.cli_method in
      match Proc.capture cpla [ "optimize"; "-b"; r.name; "-m"; wl.cli_method ] with
      | Unix.WEXITED 0, out -> (
          let printed =
            List.find_map
              (fun line -> Scanf.sscanf_opt line " avg(Tcp)=%s max(Tcp)=%s " (fun a m -> (a, m)))
              (String.split_on_char '\n' out)
          in
          match printed with
          | Some cli -> Outcome.record outcome label (Outcome.cli_checks ~cli ~avg:r.avg1 ~max:r.max1)
          | None -> Outcome.record outcome label [ "no avg/max(Tcp) line in the output" ])
      | _ -> Outcome.record outcome label [ "cpla optimize did not exit 0" ])
    first.runs

let quality_metrics (first : pass) =
  let runs = first.runs in
  [
    ("avg_tcp_ratio", sumf (fun r -> r.avg1) runs /. sumf (fun r -> r.avg0) runs);
    ("max_tcp_ratio", sumf (fun r -> r.max1) runs /. sumf (fun r -> r.max0) runs);
  ]

(* Per-layer numbers of the traced passes: each quantity is summed over one
   pass's designs, then the median is taken across passes.  Stage times
   and allocation come from the benchmark's own stopwatches; solver,
   refresh and post-map times from the library's spans inside them. *)
let layer_metrics ~untraced_pass_s (traced : traced list) =
  let med f = Pct.median (Array.of_list (List.map f traced)) in
  let per_run f t = sumf f t.pass.runs in
  let count_run f t = float_of_int (sumi f t.pass.runs) in
  let stage_s s = per_run (fun r -> r.stage_s.(index s)) in
  let stage_words s = per_run (fun r -> r.stage_words.(index s)) in
  let span_s name t = Spans.seconds (Spans.total_ns t.spans name) in
  let named name t = List.filter (fun s -> s.Spans.name = name) t.spans in
  (* time inside spans called [outer] that spans called [inner] cover *)
  let covered_in outer inner t =
    List.fold_left (fun acc s -> Int64.add acc (Spans.covered_by t.spans s inner)) 0L (named outer t)
  in
  let driver_self t =
    span_s "bench/optimize" t
    -. Spans.seconds (covered_in "bench/optimize" [ "sdp/solve"; "ilp/solve"; "post_map/run" ] t)
  in
  let unattributed t =
    let stage_names = Array.to_list (Array.map span_name stages) in
    let pass_s = span_s "bench/pass" t in
    (pass_s -. Spans.seconds (covered_in "bench/pass" stage_names t)) /. pass_s
  in
  let count name t = float_of_int (t.counter name) in
  let warm_retry_ratio t =
    if count "sdp/solves" t = 0.0 then 0.0 else count "sdp/warm-retries" t /. count "sdp/solves" t
  in
  [
    ("route.route_all_s", med (stage_s Route));
    ("route.route_all_minor_words", med (stage_words Route));
    ("route.overflow_2d", med (count_run (fun r -> r.overflow_2d)));
    ("route.init_assign_s", med (stage_s Assign));
    ("route.edge_overflow_initial", med (count_run (fun r -> r.edge_overflow0)));
    ("timing.select_s", med (stage_s Select));
    ("timing.select_minor_words", med (stage_words Select));
    ("timing.measure_s", med (stage_s Measure));
    ("timing.refresh_s", med (span_s "timing/refresh"));
    ("timing.dirty_nets", med (count_run (fun r -> r.dirty_nets)));
    ("driver.optimize_s", med (stage_s Optimize));
    ("driver.optimize_minor_words", med (stage_words Optimize));
    ("driver.iterations", med (count_run (fun r -> r.iterations)));
    ("driver.partitions_solved", med (count_run (fun r -> r.partitions)));
    ("driver.cells", med (count "driver/cells"));
    ("driver.self_s", med driver_self);
    ("sdp.solve_s", med (span_s "sdp/solve"));
    ("sdp.solves", med (count "sdp/solves"));
    ("sdp.warm_retries", med (count "sdp/warm-retries"));
    ("sdp.warm_retry_ratio", med warm_retry_ratio);
    ("post_map.run_s", med (span_s "post_map/run"));
    ("ilp.solve_s", med (span_s "ilp/solve"));
    ("ilp.solves", med (count "ilp/solves"));
    ("verify.check_s", med (stage_s Verify));
    ("verify.via_overflow", med (count_run (fun r -> r.via_overflow)));
    ("verify.edge_overflow", med (count_run (fun r -> r.edge_overflow)));
    ("obs.trace_overhead_ratio", med (fun t -> t.pass.pass_s) /. untraced_pass_s);
    ("obs.unattributed_ratio", med unattributed);
  ]

let run ~wl ~seed ~seconds ~trace ~cpla ~workdir outcome =
  let config = { Cpla.Config.default with Cpla.Config.method_ = wl.method_ } in
  let generate () =
    List.map
      (fun name ->
        let graph, nets = Cpla_route.Synth.generate (Designs.suite_spec name) in
        (name, graph, nets))
      wl.designs
  in
  (* set up nine times and keep the last; report the median *)
  let setups = List.init 9 (fun _ -> Cpla_util.Timer.wall_time generate) in
  let designs = fst (List.nth setups 8) in
  let setup_s = Pct.median (Array.of_list (List.map snd setups)) in
  let clock = Cpla_util.Timer.wall () in
  let elapsed () = Cpla_util.Timer.elapsed_s clock in
  let untraced_window = if trace then seconds /. 2.0 else seconds in
  let passes = Window.repeat ~seconds:untraced_window ~elapsed (fun _ -> run_pass ~config designs) in
  let traced =
    if trace then Window.repeat ~seconds ~elapsed (fun _ -> run_traced_pass ~config designs)
    else []
  in
  check_passes outcome (passes @ List.map (fun (t, _) -> t.pass) traced);
  if seed = 0 then check_cli outcome ~cpla ~wl (List.hd passes);
  let pass_walls = Array.of_list (List.map (fun p -> p.pass_s) passes) in
  Report.pass_walls pass_walls;
  if trace then begin
    let last, last_events = List.nth traced (List.length traced - 1) in
    Proc.write_file (Filename.concat workdir "trace.json") (Cpla_obs.Trace.json last_events);
    Report.self_table "pass" last.spans;
    layer_metrics ~untraced_pass_s:(Pct.median pass_walls) (List.map fst traced)
    @ [ ("fail_ratio", Outcome.fail_ratio outcome) ]
  end
  else
    let runs = List.concat_map (fun p -> p.runs) passes in
    [
      ("setup_s", setup_s);
      ("pipeline_wall_s", Pct.median pass_walls);
      ("jobs_per_s", float_of_int (List.length runs) /. Array.fold_left ( +. ) 0.0 pass_walls);
      ( "job_latency_p50_ms",
        1000.0 *. Pct.median (Array.of_list (List.map (fun r -> r.wall_s) runs)) );
    ]
    @ quality_metrics (List.hd passes)
    @ [
        ("peak_rss_mb", Proc.peak_rss_mb ());
        ("success_ratio", 1.0 -. Outcome.fail_ratio outcome);
      ]
