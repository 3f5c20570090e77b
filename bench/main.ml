(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation (Section 4)
   and, in the `micro` section, measures the computational kernel behind
   each of them with Bechamel (one Test.make per table/figure kernel).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table2 fig7  # selected sections

   The micro section's fixture design defaults to adaptec1; override it with
   `micro=NAME` on the command line or the CPLA_MICRO_DESIGN environment
   variable (any name from `cpla list`). *)

open Bechamel
open Toolkit

(* ---- micro-benchmarks: one kernel per table/figure ------------------------ *)

let default_micro_design () =
  Option.value ~default:"adaptec1" (Sys.getenv_opt "CPLA_MICRO_DESIGN")

let micro_fixture ~design () =
  (* one moderate design shared by the kernels, prepared once *)
  let bench =
    try Cpla_expt.Suite.find design
    with Not_found ->
      Printf.eprintf "unknown micro design %S; available: %s\n" design
        (String.concat ", " (List.map (fun b -> b.Cpla_expt.Suite.name) Cpla_expt.Suite.all));
      (* bench is its own entry point: a usage error exits like a CLI *)
      (exit 2) [@cpla.allow "exit-scope"]
  in
  let prep = Cpla_expt.Suite.prepare bench in
  let released = Cpla_expt.Experiments.released_at prep ~ratio:0.005 in
  let asg = prep.Cpla_expt.Suite.asg in
  let infos = Hashtbl.create 32 in
  Array.iter
    (fun net -> Hashtbl.replace infos net (Cpla_timing.Critical.path_info asg net))
    released;
  let items =
    Array.to_list released
    |> List.concat_map (fun net ->
           Array.to_list
             (Array.mapi
                (fun seg s ->
                  { Cpla.Partition.net; seg; mid = Cpla_route.Segment.midpoint s })
                (Cpla_route.Assignment.segments asg net)))
  in
  let graph = Cpla_route.Assignment.graph asg in
  let width = Cpla_grid.Graph.width graph and height = Cpla_grid.Graph.height graph in
  let leaves = Cpla.Partition.build ~width ~height ~k:4 ~max_segments:10 items in
  (* the most coupled leaf makes a representative solver workload *)
  let best_leaf =
    List.fold_left
      (fun acc leaf ->
        match acc with
        | None -> Some leaf
        | Some b ->
            if List.length leaf.Cpla.Partition.items > List.length b.Cpla.Partition.items
            then Some leaf
            else acc)
      None leaves
  in
  let leaf = Option.get best_leaf in
  List.iter
    (fun it ->
      Cpla_route.Assignment.unassign asg ~net:it.Cpla.Partition.net ~seg:it.Cpla.Partition.seg)
    leaf.Cpla.Partition.items;
  let f =
    Cpla.Formulation.build asg ~infos:(Hashtbl.find infos) ~items:leaf.Cpla.Partition.items
  in
  (* re-assign so the state stays valid for the Elmore kernel *)
  Array.iter
    (fun (v : Cpla.Formulation.var) ->
      Cpla_route.Assignment.set_layer asg ~net:v.Cpla.Formulation.net
        ~seg:v.Cpla.Formulation.seg ~layer:v.Cpla.Formulation.cands.(0))
    f.Cpla.Formulation.vars;
  (asg, released, items, f, width, height)

let micro_tests ~design () =
  let asg, released, items, f, width, height = micro_fixture ~design () in
  let fig1_elmore =
    Test.make ~name:"fig1/elmore-pin-delays"
      (Staged.stage (fun () -> Cpla_timing.Critical.pin_delays asg released))
  in
  let fig7_ilp =
    Test.make ~name:"fig7/ilp-partition-solve"
      (Staged.stage (fun () ->
           let m = Cpla.Ilp_method.build_model ~alpha:2000.0 f in
           Cpla_ilp.Solver.solve
             ~options:
               { Cpla_ilp.Solver.default_options with Cpla_ilp.Solver.time_limit_s = 5.0 }
             m))
  in
  let fig7_sdp =
    Test.make ~name:"fig7/sdp-partition-solve"
      (Staged.stage (fun () ->
           let { Cpla.Sdp_method.problem; groups; _ } =
             Cpla.Sdp_method.build_problem ~alpha:Cpla.Config.default.Cpla.Config.alpha f
           in
           Cpla_sdp.Solver.solve ~options:Cpla.Config.default.Cpla.Config.sdp_options ~groups
             problem))
  in
  let fig8_partition =
    Test.make ~name:"fig8/self-adaptive-partition"
      (Staged.stage (fun () -> Cpla.Partition.build ~width ~height ~k:4 ~max_segments:10 items))
  in
  let fig9_select =
    Test.make ~name:"fig9/critical-net-selection"
      (Staged.stage (fun () -> Cpla_timing.Critical.select asg ~ratio:0.005))
  in
  let table2_path_info =
    Test.make ~name:"table2/critical-path-info"
      (Staged.stage (fun () ->
           Array.map (fun net -> Cpla_timing.Critical.path_info asg net) released))
  in
  (* Incremental engine counterparts of the fig9/table2 kernels: the same
     queries served through the generation-keyed cache.  select-warm hits a
     fully clean cache (the steady state between outer iterations);
     path-info-after-leaf re-dirties one released net per run — the typical
     state after a single partition commit — and re-freezes the whole
     released set. *)
  let eng = Cpla_timing.Incremental.create asg in
  Cpla_timing.Incremental.refresh eng;
  Array.iter (fun net -> ignore (Cpla_timing.Incremental.path_info eng net)) released;
  let incr_select =
    Test.make ~name:"incr/select-warm"
      (Staged.stage (fun () -> Cpla_timing.Incremental.select eng ~ratio:0.005))
  in
  let tech = Cpla_route.Assignment.tech asg in
  (* One (net, seg, cur, alt) toggle per released net: a single layer move is
     the minimal event that dirties a net.  Runs rotate through the released
     set so the recompute cost is averaged over typical nets, not pinned to
     the most (or least) expensive one. *)
  let toggles =
    Array.to_list released
    |> List.filter_map (fun net ->
           let segs = Cpla_route.Assignment.segments asg net in
           let rec first seg =
             if seg >= Array.length segs then None
             else
               let cur = Cpla_route.Assignment.layer asg ~net ~seg in
               match
                 List.find_opt
                   (fun l -> l <> cur)
                   (Cpla_grid.Tech.layers_of_dir tech segs.(seg).Cpla_route.Segment.dir)
               with
               | Some alt -> Some (net, seg, cur, alt)
               | None -> first (seg + 1)
           in
           first 0)
    |> Array.of_list
  in
  let toggle_cursor = ref 0 in
  let incr_path_info =
    Test.make ~name:"incr/path-info-after-leaf"
      (Staged.stage (fun () ->
           let net, seg, cur, alt = toggles.(!toggle_cursor) in
           toggle_cursor := (!toggle_cursor + 1) mod Array.length toggles;
           Cpla_route.Assignment.set_layer asg ~net ~seg ~layer:alt;
           Cpla_route.Assignment.set_layer asg ~net ~seg ~layer:cur;
           Array.map (fun n -> Cpla_timing.Incremental.path_info eng n) released))
  in
  (* The global router's maze fallback on the congested design: 32 fixed
     queries (a source tile to a 3-tile target run 8-24 tiles away) against
     the cost planes of the initial routing's 2-D demand, through one
     reused workspace. *)
  let route_maze =
    let graph = Cpla_route.Assignment.graph asg in
    let costs =
      Cpla_route.Router.cost_planes ~graph ~demand:(Cpla_grid.Graph.usage_2d graph)
    in
    let rng = Cpla_util.Rng.create 15 in
    let rec query () =
      let sx = Cpla_util.Rng.int rng (width - 3) and sy = Cpla_util.Rng.int rng height in
      let tx = Cpla_util.Rng.int rng (width - 3) and ty = Cpla_util.Rng.int rng height in
      let d = abs (sx - tx) + abs (sy - ty) in
      if d < 8 || d > 24 then query () else ((sx, sy), [ (tx, ty); (tx + 1, ty); (tx + 2, ty) ])
    in
    let queries = Array.init 32 (fun _ -> query ()) in
    let ws = Cpla_route.Maze.ws_create () in
    Test.make ~name:"route/maze"
      (Staged.stage (fun () ->
           Array.iter
             (fun (s, targets) ->
               ignore (Cpla_route.Maze.route ws costs ~sources:[ s ] ~targets))
             queries))
  in
  (* The two set-up stages every pipeline run pays before selection: the
     global router over the whole design, from a fresh copy of its generated
     grid, and the initial layer assignment (Assignment.create +
     Init_assign.run) of that routing, from a fresh copy again since it
     installs usage. *)
  let graph0, nets = Cpla_route.Synth.generate (Cpla_expt.Suite.find design).Cpla_expt.Suite.spec in
  let route_all =
    Test.make ~name:"route/route-all"
      (Staged.stage (fun () ->
           let graph = Cpla_grid.Graph.clone graph0 in
           ignore (Cpla_route.Router.route_all ~graph nets)))
  in
  let init_assign =
    let trees = (Cpla_route.Router.route_all ~graph:(Cpla_grid.Graph.clone graph0) nets)
        .Cpla_route.Router.trees
    in
    Test.make ~name:"route/init-assign"
      (Staged.stage (fun () ->
           let graph = Cpla_grid.Graph.clone graph0 in
           Cpla_route.Init_assign.run (Cpla_route.Assignment.create ~graph ~nets ~trees)))
  in
  Test.make_grouped ~name:"kernels"
    [
      route_maze;
      route_all;
      init_assign;
      fig1_elmore;
      fig7_ilp;
      fig7_sdp;
      fig8_partition;
      fig9_select;
      table2_path_info;
      incr_select;
      incr_path_info;
    ]

(* Run a grouped Bechamel test set, print the human table and record every
   kernel into the machine-readable trajectory output (Bench_out).  Shared
   by the `micro` and `batch` sections. *)
let run_bechamel ~section ~design tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some ols_result -> (
        match Analyze.OLS.estimates ols_result with Some (v :: _) -> v | _ -> nan)
    | None -> nan
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name _ -> rows := (name, estimate results name, estimate allocs name) :: !rows)
    results;
  let t = Cpla_util.Table.create ~headers:[ "kernel"; "time/run"; "minor w/run" ] in
  List.sort compare !rows
  |> List.iter (fun (name, ns, words) ->
         let cell =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         let acell =
           if Float.is_nan words then "n/a"
           else if words > 1e6 then Printf.sprintf "%.2fM" (words /. 1e6)
           else if words > 1e3 then Printf.sprintf "%.1fk" (words /. 1e3)
           else Printf.sprintf "%.0f" words
         in
         Cpla_util.Table.add_row t [ name; cell; acell ];
         Bench_out.record ~section ~kernel:name ~design ~ns_per_op:ns
           ?minor_words_per_run:(if Float.is_nan words then None else Some words)
           ());
  Cpla_util.Table.print t

let run_micro ?design () =
  let design = match design with Some d -> d | None -> default_micro_design () in
  Printf.printf "\n==================================================================\n";
  Printf.printf "Micro-benchmarks (Bechamel) — kernel behind each table/figure (%s)\n"
    design;
  Printf.printf "==================================================================\n%!";
  run_bechamel ~section:"micro" ~design (micro_tests ~design ())

(* ---- batched kernel engine ------------------------------------------------- *)

(* Steady-state cost of the structure-of-arrays solver kernels: the same
   partition subproblem solved through a reused per-domain workspace (the
   batched driver's inner loop — compile/build once, zero allocation per
   solve) versus through a fresh workspace per solve (the cost the batch
   engine amortises away).  The reused variants are the numbers a batch of
   same-bucket partitions pays per cell after the first. *)
let batch_tests ~design () =
  let _, _, _, f, _, _ = micro_fixture ~design () in
  let sdp_options = Cpla.Config.default.Cpla.Config.sdp_options in
  let { Cpla.Sdp_method.problem; groups; _ } =
    Cpla.Sdp_method.build_problem ~alpha:Cpla.Config.default.Cpla.Config.alpha f
  in
  let compiled =
    Cpla_sdp.Kernel.compile ~groups ~rank:sdp_options.Cpla_sdp.Solver.rank problem
  in
  let dim, _ = Cpla_sdp.Kernel.dims compiled in
  let kopts = Cpla_sdp.Solver.kernel_options sdp_options in
  let sdp_ws = Cpla_sdp.Kernel.ws_create () in
  let x_diag = Array.make dim 0.0 in
  let sdp_reused =
    Test.make ~name:"batch/sdp-kernel-reused-ws"
      (Staged.stage (fun () ->
           Cpla_sdp.Kernel.solve_into sdp_ws compiled ~options:kopts ~x_diag))
  in
  let sdp_fresh =
    Test.make ~name:"batch/sdp-kernel-fresh-ws"
      (Staged.stage (fun () ->
           Cpla_sdp.Kernel.solve_into (Cpla_sdp.Kernel.ws_create ()) compiled
             ~options:kopts ~x_diag))
  in
  let ilp_options =
    { Cpla_ilp.Solver.default_options with Cpla_ilp.Solver.time_limit_s = 5.0 }
  in
  let model = Cpla.Ilp_method.build_model ~alpha:2000.0 f in
  let ilp_ws = Cpla_ilp.Solver.ws_create () in
  let ilp_reused =
    Test.make ~name:"batch/ilp-bnb-reused-ws"
      (Staged.stage (fun () -> Cpla_ilp.Solver.solve ~options:ilp_options ~ws:ilp_ws model))
  in
  let ilp_fresh =
    Test.make ~name:"batch/ilp-bnb-fresh-ws"
      (Staged.stage (fun () -> Cpla_ilp.Solver.solve ~options:ilp_options model))
  in
  Test.make_grouped ~name:"batch" [ sdp_reused; sdp_fresh; ilp_reused; ilp_fresh ]

let run_batch ?design () =
  let design = match design with Some d -> d | None -> default_micro_design () in
  Printf.printf "\n==================================================================\n";
  Printf.printf "Batched SoA kernels — reused vs fresh workspaces (%s)\n" design;
  Printf.printf "==================================================================\n%!";
  run_bechamel ~section:"batch" ~design (batch_tests ~design ())

(* ---- serve throughput ------------------------------------------------------ *)

(* The batch-service scaling claim: N independent synthetic jobs drained by
   1 worker vs K workers.  Jobs are identical pipelines (generate, route,
   assign, optimise, audit), so ideal scaling is min(K, N)x; the measured
   ratio exposes scheduler and allocator overhead.  Wall clock, not CPU —
   CPU time is invariant under parallelism. *)
let serve_jobs n =
  List.init n (fun i ->
      {
        Cpla_serve.Job.id = i;
        label = Printf.sprintf "synth-%02d" i;
        source =
          Cpla_serve.Job.Synth
            {
              Cpla_route.Synth.default_spec with
              Cpla_route.Synth.name = Printf.sprintf "synth-%02d" i;
              width = 24;
              height = 24;
              num_layers = 4;
              num_nets = 600;
              seed = 7000 + i;
              hotspots = 2;
              blockage_fraction = 0.02;
            };
        config = { Cpla.Config.default with Cpla.Config.max_outer_iters = 2 };
        priority = 0;
        deadline_s = None;
      })

let run_serve () =
  Printf.printf "\n==================================================================\n";
  Printf.printf "serve/throughput — batch service, 1 vs K workers\n";
  Printf.printf "==================================================================\n%!";
  let n = 8 in
  (* 4 workers regardless of the local core count: on a single-core box the
     ratio degrades to ~1x (domains just interleave) and the printed core
     count explains why *)
  let workers_hi = 4 in
  Printf.printf "(%d recommended worker(s) on this machine)\n%!"
    (Cpla_util.Pool.recommended_workers ());
  let time_with workers =
    let results, s =
      Cpla_util.Timer.wall_time (fun () -> Cpla_serve.Scheduler.run ~workers (serve_jobs n))
    in
    let ok = Array.for_all (fun (_, t) -> Cpla_serve.Job.is_ok t) results in
    if not ok then failwith "serve/throughput: a job did not finish ok";
    s
  in
  let t1 = time_with 1 in
  let tk = time_with workers_hi in
  Bench_out.record ~section:"serve" ~kernel:"serve/throughput-1w" ~design:"synth-24x24"
    ~ns_per_op:(t1 *. 1e9 /. float_of_int n) ();
  Bench_out.record ~section:"serve"
    ~kernel:(Printf.sprintf "serve/throughput-%dw" workers_hi)
    ~design:"synth-24x24"
    ~ns_per_op:(tk *. 1e9 /. float_of_int n) ();
  let t = Cpla_util.Table.create ~headers:[ "workers"; "jobs"; "wall(s)"; "speedup" ] in
  Cpla_util.Table.add_row t [ "1"; string_of_int n; Printf.sprintf "%.2f" t1; "1.00x" ];
  Cpla_util.Table.add_row t
    [
      string_of_int workers_hi;
      string_of_int n;
      Printf.sprintf "%.2f" tk;
      Printf.sprintf "%.2fx" (t1 /. tk);
    ];
  Cpla_util.Table.print t

(* ---- serve latency (daemon) ------------------------------------------------ *)

(* Request-level latency of the cpla daemon: one client submits tiny .gr
   jobs sequentially and measures submit-to-terminal wall time, plus raw
   ping round-trips for the protocol floor.  p50/p95/p99 land in
   BENCH_micro.json (section serve-latency); the committed snapshot is
   bench/baselines/serve-latency.json. *)
let write_tiny_gr path =
  let spec =
    {
      Cpla_route.Synth.default_spec with
      Cpla_route.Synth.name = "latency";
      width = 12;
      height = 12;
      num_layers = 4;
      num_nets = 150;
      seed = 4242;
      hotspots = 1;
      blockage_fraction = 0.0;
    }
  in
  let graph, nets = Cpla_route.Synth.generate spec in
  let nl = Cpla_grid.Graph.num_layers graph in
  let dir_cap d =
    Array.init nl (fun l ->
        if Cpla_grid.Tech.layer_dir (Cpla_grid.Graph.tech graph) l = d then
          spec.Cpla_route.Synth.capacity
        else 0)
  in
  let header =
    {
      Cpla_route.Ispd08.grid_x = Cpla_grid.Graph.width graph;
      grid_y = Cpla_grid.Graph.height graph;
      num_layers = nl;
      vertical_capacity = dir_cap Cpla_grid.Tech.Vertical;
      horizontal_capacity = dir_cap Cpla_grid.Tech.Horizontal;
      min_width = Array.make nl 1;
      min_spacing = Array.make nl 1;
      via_spacing = Array.make nl 1;
      lower_left_x = 0;
      lower_left_y = 0;
      tile_width = 10;
      tile_height = 10;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Cpla_route.Ispd08.write { Cpla_route.Ispd08.header; nets; adjustments = [] }))

let run_serve_latency () =
  let module Server = Cpla_net.Server in
  let module Client = Cpla_net.Client in
  let module Protocol = Cpla_net.Protocol in
  Printf.printf "\n==================================================================\n";
  Printf.printf "serve-latency — daemon request/job latency percentiles\n";
  Printf.printf "==================================================================\n%!";
  let gr = Filename.temp_file "cpla-latency" ".gr" in
  Fun.protect ~finally:(fun () -> try Sys.remove gr with Sys_error _ -> ()) @@ fun () ->
  write_tiny_gr gr;
  let server =
    Server.create ~config:{ Server.default_config with Server.port = 0; workers = 2 } ()
  in
  (* sanctioned impurity: the daemon event loop reads the wall clock for
     its latency histograms and drain grace — it is a service being
     measured here, not a deterministic kernel *)
  let loop = (Domain.spawn (fun () -> Server.serve server) [@cpla.allow "impure-kernel"]) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join loop)
  @@ fun () ->
  let client = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let ping_ms =
    Array.init 200 (fun _ ->
        let w = Cpla_util.Timer.wall () in
        (match Client.call ~timeout_s:10.0 client Protocol.Ping with
        | Ok (Protocol.Result { resp = Protocol.Pong; _ }) -> ()
        | Ok _ | Error _ -> failwith "serve-latency: ping failed");
        Cpla_util.Timer.elapsed_s w *. 1e3)
  in
  let n_jobs = 40 in
  let job_ms =
    Array.init n_jobs (fun i ->
        let w = Cpla_util.Timer.wall () in
        let spec_line = Printf.sprintf "%s ratio=0.01 iters=1 name=lat-%02d" gr i in
        match Client.call ~timeout_s:60.0 client (Protocol.Submit { spec_line }) with
        | Ok (Protocol.Result { resp = Protocol.Accepted { job }; _ }) -> (
            match Client.await_terminal ~timeout_s:60.0 client ~job with
            | Ok (Cpla_serve.Job.Done _) -> Cpla_util.Timer.elapsed_s w *. 1e3
            | Ok t ->
                failwith
                  ("serve-latency: job settled " ^ Cpla_serve.Job.status_string t)
            | Error e -> failwith ("serve-latency: " ^ e))
        | Ok _ -> failwith "serve-latency: submission rejected"
        | Error e -> failwith ("serve-latency: " ^ e))
  in
  let t = Cpla_util.Table.create ~headers:[ "kernel"; "p50"; "p95"; "p99" ] in
  let report ~kernel ~design ms =
    let pct p = Cpla_util.Stats.percentile ms p in
    List.iter
      (fun (tag, p) ->
        Bench_out.record ~section:"serve-latency"
          ~kernel:(Printf.sprintf "%s-%s" kernel tag)
          ~design
          ~ns_per_op:(pct p *. 1e6) ())
      [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ];
    Cpla_util.Table.add_row t
      [
        kernel;
        Printf.sprintf "%.2f ms" (pct 50.0);
        Printf.sprintf "%.2f ms" (pct 95.0);
        Printf.sprintf "%.2f ms" (pct 99.0);
      ]
  in
  report ~kernel:"latency/ping" ~design:"rpc" ping_ms;
  report ~kernel:"latency/job" ~design:"synth-12x12" job_ms;
  Cpla_util.Table.print t

(* ---- observability overhead ------------------------------------------------ *)

(* The instrumentation contract: with the global switch off, a span per
   per-net timing query (the densest realistic placement — the pipeline
   spans cells, not inner loops) costs at most 2% over the bare kernel.
   Min-of-N wall times so scheduler noise cannot manufacture a failure;
   the bench FAILS when the bound is broken, making the contract a gate
   rather than a dashboard number. *)
let run_obs_overhead () =
  Printf.printf "\n==================================================================\n";
  Printf.printf "obs/overhead — instrumented (switch off) vs seed kernel\n";
  Printf.printf "==================================================================\n%!";
  Cpla_obs.Obs.set_enabled false;
  let design = default_micro_design () in
  let asg, released, _, _, _, _ = micro_fixture ~design () in
  let seed () =
    Array.iter (fun net -> ignore (Cpla_timing.Critical.path_info asg net)) released
  in
  let instrumented () =
    Array.iter
      (fun net ->
        Cpla_obs.Span.with_ ~name:"bench/path-info"
          ~args:[ ("net", Cpla_obs.Event.Int net) ]
          (fun () -> ignore (Cpla_timing.Critical.path_info asg net)))
      released
  in
  let time_min ~reps ~inner f =
    (* warm-up takes the allocation of both closures and any lazy state out
       of the measured window *)
    f ();
    f ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Cpla_util.Timer.now_ns () in
      for _ = 1 to inner do
        f ()
      done;
      let dt = Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0) in
      if dt < !best then best := dt
    done;
    !best
  in
  let reps = 7 and inner = 20 in
  let t_seed = time_min ~reps ~inner seed in
  let t_instr = time_min ~reps ~inner instrumented in
  let overhead = (t_instr /. t_seed) -. 1.0 in
  Bench_out.record ~section:"obs" ~kernel:"obs/path-info-seed" ~design
    ~ns_per_op:(t_seed /. float_of_int inner) ();
  Bench_out.record ~section:"obs" ~kernel:"obs/path-info-instrumented-off" ~design
    ~ns_per_op:(t_instr /. float_of_int inner) ();
  let t = Cpla_util.Table.create ~headers:[ "kernel"; "min wall"; "overhead" ] in
  let cell ns = Printf.sprintf "%.2f ms" (ns /. 1e6) in
  Cpla_util.Table.add_row t [ "seed"; cell t_seed; "-" ];
  Cpla_util.Table.add_row t
    [ "instrumented (off)"; cell t_instr; Printf.sprintf "%+.2f%%" (100.0 *. overhead) ];
  Cpla_util.Table.print t;
  if overhead > 0.02 then
    failwith
      (Printf.sprintf "obs/overhead: disabled instrumentation costs %.2f%% (budget 2%%)"
         (100.0 *. overhead))

(* ---- lint wall time --------------------------------------------------------- *)

(* Whole-tree cpla-lint wall time: best of 5 cold runs over the in-memory
   sources.  Keeping it in the trajectory makes a superlinear regression in
   the analyses as visible as one in the kernels.  Requires the sources on
   disk, so it runs from the repo root and is skipped elsewhere. *)
let run_lint () =
  Printf.printf "\n==================================================================\n";
  Printf.printf "lint — whole-tree static analysis wall time\n";
  Printf.printf "==================================================================\n%!";
  let roots = List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test" ] in
  if roots = [] then print_endline "sources not on disk; skipping"
  else begin
    let sources, _ = Cpla_lint.Engine.read_sources roots in
    let findings = ref [] in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Cpla_util.Timer.now_ns () in
      findings := Cpla_lint.Engine.lint_sources sources;
      let dt = Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0) in
      if dt < !best then best := dt
    done;
    Bench_out.record ~section:"lint" ~kernel:"lint/cold" ~design:"repo" ~ns_per_op:!best ();
    Printf.printf "cold: %.1f ms   findings: %d\n" (!best /. 1e6) (List.length !findings)
  end

(* ---- incremental driver ---------------------------------------------------- *)

(* Driver-level incrementality: a cold sweep (every quadtree leaf dirty)
   versus a dirty re-solve (one net marked dirty at the converged fixed
   point) on the same Incr state, plus a full optimize run replayed
   through a shared content-addressed solve cache.  Gates: the dirty
   re-solve must beat the cold sweep by >=3x, and the cache-hit rerun
   must skip every coupled solve (hits > 0, no new misses). *)
let run_incr_driver () =
  Printf.printf "\n==================================================================\n";
  Printf.printf "incr-driver — dirty-partition scheduling and the solve cache\n";
  Printf.printf "==================================================================\n%!";
  let design = "synth-48x48-1500" in
  let build () =
    let spec =
      {
        Cpla_route.Synth.default_spec with
        Cpla_route.Synth.name = design;
        width = 48;
        height = 48;
        num_nets = 1500;
        capacity = 8;
        seed = 11;
        mean_extra_pins = 2.0;
      }
    in
    let graph, nets = Cpla_route.Synth.generate spec in
    let routed = Cpla_route.Router.route_all ~graph nets in
    let asg =
      Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees
    in
    Cpla_route.Init_assign.run asg;
    let released = Cpla_timing.Critical.select asg ~ratio:0.02 in
    (asg, released)
  in
  let layers_of asg =
    Array.init (Cpla_route.Assignment.num_nets asg) (fun n ->
        Array.mapi
          (fun s _ -> Cpla_route.Assignment.layer asg ~net:n ~seg:s)
          (Cpla_route.Assignment.segments asg n))
  in
  let restore asg snap =
    Array.iteri
      (fun n layers ->
        Array.iteri
          (fun s l ->
            if Cpla_route.Assignment.layer asg ~net:n ~seg:s <> l then
              Cpla_route.Assignment.set_layer asg ~net:n ~seg:s ~layer:l)
          layers)
      snap
  in
  let measure name f =
    let reps = 5 in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Cpla_util.Timer.now_ns () in
      f ();
      let dt = Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0) in
      if dt < !best then best := dt
    done;
    Bench_out.record ~section:"incr-driver" ~kernel:name ~design ~ns_per_op:!best ();
    !best
  in
  (* warm starts off so cold sweep and dirty re-solve run the same solver
     path: the ratio then measures dirty-set scheduling alone *)
  let config = { Cpla.Config.default with Cpla.Config.warm_start = false } in
  let asg, released = build () in
  let initial = layers_of asg in
  (* cold sweep: all leaves dirty, fresh scheduler state each rep *)
  let t_cold =
    measure "incr/cold-sweep" (fun () ->
        restore asg initial;
        let engine = Cpla_timing.Incremental.create asg in
        let st = Cpla.Driver.Incr.create ~config ~engine asg ~released in
        ignore (Cpla.Driver.Incr.sweep st))
  in
  (* converge once, then re-solve the dirty region of a single net *)
  restore asg initial;
  let engine = Cpla_timing.Incremental.create asg in
  let st = Cpla.Driver.Incr.create ~config ~engine asg ~released in
  let budget = ref 20 in
  while Cpla.Driver.Incr.dirty_count st > 0 && !budget > 0 do
    ignore (Cpla.Driver.Incr.sweep st);
    decr budget
  done;
  let leaf_count = Cpla.Driver.Incr.leaf_count st in
  (* the localized-change scenario: of the released nets, re-release the
     one with the smallest dirty closure (leaves + tile neighbours) — the
     sprawling worst nets blanket the quadtree and measure a half-cold
     sweep instead.  Probing drains each candidate's dirt untimed. *)
  let drain () =
    let b = ref 20 in
    while Cpla.Driver.Incr.dirty_count st > 0 && !b > 0 do
      ignore (Cpla.Driver.Incr.sweep st);
      decr b
    done
  in
  let small_net =
    Array.fold_left
      (fun (best, best_n) n ->
        Cpla.Driver.Incr.mark_net_dirty st n;
        let d = Cpla.Driver.Incr.dirty_count st in
        drain ();
        if d < best then (d, n) else (best, best_n))
      (max_int, released.(0))
      released
    |> snd
  in
  let dirty_leaves = ref 0 in
  let t_dirty =
    let best = ref infinity in
    for _ = 1 to 5 do
      Cpla.Driver.Incr.mark_net_dirty st small_net;
      dirty_leaves := Cpla.Driver.Incr.dirty_count st;
      let t0 = Cpla_util.Timer.now_ns () in
      ignore (Cpla.Driver.Incr.sweep st);
      let dt = Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0) in
      if dt < !best then best := dt;
      (* drain follow-up dirt outside the timed region *)
      drain ()
    done;
    Bench_out.record ~section:"incr-driver" ~kernel:"incr/dirty-resolve" ~design
      ~ns_per_op:!best ();
    !best
  in
  (* full runs through a shared solve cache: cold fill, then pure replay *)
  let cache = Cpla.Solve_cache.create () in
  let t_cache_cold =
    let asg, released = build () in
    let t0 = Cpla_util.Timer.now_ns () in
    ignore (Cpla.Driver.optimize_released ~config ~solve_cache:cache asg ~released);
    Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0)
  in
  let misses_cold = Cpla.Solve_cache.misses cache in
  let t_cache_hit =
    let asg, released = build () in
    let t0 = Cpla_util.Timer.now_ns () in
    ignore (Cpla.Driver.optimize_released ~config ~solve_cache:cache asg ~released);
    Int64.to_float (Int64.sub (Cpla_util.Timer.now_ns ()) t0)
  in
  Bench_out.record ~section:"incr-driver" ~kernel:"incr/cache-cold-run" ~design
    ~ns_per_op:t_cache_cold ();
  Bench_out.record ~section:"incr-driver" ~kernel:"incr/cache-hit-run" ~design
    ~ns_per_op:t_cache_hit ();
  let t = Cpla_util.Table.create ~headers:[ "kernel"; "wall"; "leaves" ] in
  Cpla_util.Table.add_row t
    [ "cold sweep"; Printf.sprintf "%.2f ms" (t_cold /. 1e6); string_of_int leaf_count ];
  Cpla_util.Table.add_row t
    [
      "dirty re-solve";
      Printf.sprintf "%.2f ms" (t_dirty /. 1e6);
      string_of_int !dirty_leaves;
    ];
  Cpla_util.Table.add_row t
    [ "cache-cold run"; Printf.sprintf "%.2f ms" (t_cache_cold /. 1e6); "-" ];
  Cpla_util.Table.add_row t
    [ "cache-hit run"; Printf.sprintf "%.2f ms" (t_cache_hit /. 1e6); "-" ];
  Cpla_util.Table.print t;
  Printf.printf "cold/dirty speedup: %.1fx   cache hits: %d misses: %d\n"
    (t_cold /. t_dirty) (Cpla.Solve_cache.hits cache) (Cpla.Solve_cache.misses cache);
  if t_dirty *. 3.0 > t_cold then
    failwith
      (Printf.sprintf
         "incr/dirty-resolve: %.2f ms is not >=3x faster than cold sweep %.2f ms"
         (t_dirty /. 1e6) (t_cold /. 1e6));
  if Cpla.Solve_cache.hits cache = 0 then
    failwith "incr/cache-hit-run: replay produced no cache hits";
  if Cpla.Solve_cache.misses cache <> misses_cold then
    failwith "incr/cache-hit-run: replay missed the cache"

(* ---- entry ----------------------------------------------------------------- *)

let sections =
  [
    ("fig1", Cpla_expt.Experiments.fig1);
    ("fig3b", Cpla_expt.Experiments.fig3b);
    ("fig7", Cpla_expt.Experiments.fig7);
    ("fig8", Cpla_expt.Experiments.fig8);
    ("fig9", Cpla_expt.Experiments.fig9);
    ("table2", Cpla_expt.Experiments.table2);
    ("extended", Cpla_expt.Experiments.extended);
    ("steiner", Cpla_expt.Experiments.steiner);
    ("ablations", Cpla_expt.Experiments.ablations);
    ("serve", run_serve);
    ("serve-latency", run_serve_latency);
    ("obs", run_obs_overhead);
    ("micro", fun () -> run_micro ());
    ("batch", fun () -> run_batch ());
    ("incr-driver", run_incr_driver);
    ("lint", run_lint);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  (* the trajectory JSON is written even when a gate (e.g. obs/overhead)
     fails the run: partial numbers still locate the regression *)
  Fun.protect ~finally:Bench_out.write @@ fun () ->
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None -> (
          (* micro=NAME runs the micro section against another suite design *)
          match String.index_opt name '=' with
          | Some i when String.sub name 0 i = "micro" ->
              run_micro ~design:(String.sub name (i + 1) (String.length name - i - 1)) ()
          | Some i when String.sub name 0 i = "batch" ->
              run_batch ~design:(String.sub name (i + 1) (String.length name - i - 1)) ()
          | _ ->
              Printf.eprintf "unknown section %s (available: %s)\n" name
                (String.concat ", " (List.map fst sections));
              (exit 2) [@cpla.allow "exit-scope"]))
    requested
