(* This module's deliverable *is* its stdout: it renders the paper's figures
   and tables for `cpla expt`, and is only ever driven from the CLI.  The
   file-level allow documents stdout as its sanctioned sink. *)
[@@@cpla.allow "stdout-print"]

open Cpla_util
open Cpla_timing

let released_at prepared ~ratio = Incremental.select prepared.Suite.engine ~ratio

let run_tila prepared ~released =
  let asg = prepared.Suite.asg in
  let (_ : Cpla_tila.Tila.stats), cpu_s =
    Timer.time (fun () -> Cpla_tila.Tila.optimize asg ~released)
  in
  Cpla.Metrics.measure ~engine:prepared.Suite.engine asg ~released ~cpu_s

let run_cpla ?(config = Cpla.Config.default) prepared ~released =
  let asg = prepared.Suite.asg in
  let engine = prepared.Suite.engine in
  let (_ : Cpla.Driver.report), cpu_s =
    Timer.time (fun () -> Cpla.Driver.optimize_released ~config ~engine asg ~released)
  in
  Cpla.Metrics.measure ~engine asg ~released ~cpu_s

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

(* ---- Fig. 1 -------------------------------------------------------------- *)

let fig1 () =
  header
    "Fig. 1 — pin delay distribution of critical nets (adaptec1, 0.5% released)";
  let bench = Suite.find "adaptec1" in
  let tila_prep = Suite.prepare bench in
  let released = released_at tila_prep ~ratio:0.005 in
  ignore (run_tila tila_prep ~released);
  let tila_delays = Incremental.pin_delays tila_prep.Suite.engine released in
  let sdp_prep = Suite.prepare bench in
  ignore (run_cpla sdp_prep ~released);
  let sdp_delays = Incremental.pin_delays sdp_prep.Suite.engine released in
  let hi =
    1.02 *. Float.max (Stats.max tila_delays) (Float.max 1.0 (Stats.max sdp_delays))
  in
  let render label delays =
    let h = Histogram.create ~lo:0.0 ~hi ~bins:14 in
    Histogram.add_all h delays;
    print_string (Histogram.render ~label h)
  in
  render "(a) TILA — pin delays of critical nets" tila_delays;
  render "(b) ours (SDP) — pin delays of critical nets" sdp_delays;
  Printf.printf "TILA worst pin: %.1f   ours worst pin: %.1f\n%!" (Stats.max tila_delays)
    (Stats.max sdp_delays)

(* ---- Fig. 3b -------------------------------------------------------------- *)

let fig3b () =
  header "Fig. 3b — routing density map (adaptec1, after global routing)";
  let prep = Suite.prepare (Suite.find "adaptec1") in
  print_string (Cpla_grid.Graph.density_map (Cpla_route.Assignment.graph prep.Suite.asg));
  Printf.printf "('.'=idle, '0'-'9' = 0-90%% utilisation, '#' = saturated)\n%!"

(* ---- Fig. 7 -------------------------------------------------------------- *)

let fig7 () =
  header "Fig. 7 — ILP vs SDP on small cases (0.5% released)";
  let t = Table.create ~headers:[ "bench"; "ILP Avg"; "SDP Avg"; "ILP Max"; "SDP Max"; "ILP s"; "SDP s" ] in
  List.iter
    (fun bench ->
      let ilp_prep = Suite.prepare bench in
      let released = released_at ilp_prep ~ratio:0.005 in
      let ilp_config = { Cpla.Config.default with Cpla.Config.method_ = Cpla.Config.Ilp } in
      let ilp = run_cpla ~config:ilp_config ilp_prep ~released in
      let sdp_prep = Suite.prepare bench in
      let sdp = run_cpla sdp_prep ~released in
      Table.add_row t
        [
          bench.Suite.name;
          Table.cell_f ilp.Cpla.Metrics.avg_tcp;
          Table.cell_f sdp.Cpla.Metrics.avg_tcp;
          Table.cell_f ilp.Cpla.Metrics.max_tcp;
          Table.cell_f sdp.Cpla.Metrics.max_tcp;
          Table.cell_f ~digits:3 ilp.Cpla.Metrics.cpu_s;
          Table.cell_f ~digits:3 sdp.Cpla.Metrics.cpu_s;
        ])
    Suite.small_cases;
  Table.print t;
  (* Fig. 7c's message is ILP's runtime blow-up.  Our branch-and-bound on
     the default 10-segment partitions mostly terminates at the LP root, so
     the inversion point is visible by growing the partition bound: the ILP
     has O((segments·layers)²) linking variables and explodes, the SDP does
     not.  (The paper: "for large test cases [the ILP] cannot finish in two
     hours".) *)
  Printf.printf "\nruntime scaling with partition size (adaptec1, 0.5%% released):\n";
  let t2 =
    Table.create
      ~headers:[ "max seg/part"; "ILP s"; "SDP s"; "ILP Avg"; "SDP Avg" ]
  in
  List.iter
    (fun nmax ->
      let cell_of config =
        let prep = Suite.prepare (Suite.find "adaptec1") in
        let released = released_at prep ~ratio:0.005 in
        run_cpla ~config prep ~released
      in
      let base = { Cpla.Config.default with Cpla.Config.max_segments_per_partition = nmax } in
      let ilp = cell_of { base with Cpla.Config.method_ = Cpla.Config.Ilp } in
      let sdp = cell_of base in
      Table.add_row t2
        [
          Table.cell_i nmax;
          Table.cell_f ~digits:3 ilp.Cpla.Metrics.cpu_s;
          Table.cell_f ~digits:3 sdp.Cpla.Metrics.cpu_s;
          Table.cell_f ilp.Cpla.Metrics.avg_tcp;
          Table.cell_f sdp.Cpla.Metrics.avg_tcp;
        ])
    [ 10; 20; 40; 80 ];
  Table.print t2

(* ---- Fig. 8 -------------------------------------------------------------- *)

let fig8 () =
  header "Fig. 8 — partition granularity impact (SDP, 0.5% released)";
  let t =
    Table.create ~headers:[ "bench"; "max seg/part"; "Avg(Tcp)"; "Max(Tcp)"; "CPU(s)" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun nmax ->
          let prep = Suite.prepare (Suite.find name) in
          let released = released_at prep ~ratio:0.005 in
          let config =
            { Cpla.Config.default with Cpla.Config.max_segments_per_partition = nmax }
          in
          let m = run_cpla ~config prep ~released in
          Table.add_row t
            [
              name;
              Table.cell_i nmax;
              Table.cell_f m.Cpla.Metrics.avg_tcp;
              Table.cell_f m.Cpla.Metrics.max_tcp;
              Table.cell_f ~digits:3 m.Cpla.Metrics.cpu_s;
            ])
        [ 5; 10; 20; 40; 80 ];
      Table.add_separator t)
    [ "adaptec1"; "adaptec2"; "bigblue1" ];
  Table.print t

(* ---- Fig. 9 -------------------------------------------------------------- *)

let fig9 () =
  header "Fig. 9 — critical ratio impact (adaptec1)";
  let t =
    Table.create
      ~headers:
        [ "ratio %"; "TILA Avg"; "SDP Avg"; "TILA Max"; "SDP Max"; "TILA s"; "SDP s" ]
  in
  List.iter
    (fun ratio ->
      let bench = Suite.find "adaptec1" in
      let tila_prep = Suite.prepare bench in
      let released = released_at tila_prep ~ratio in
      let tila = run_tila tila_prep ~released in
      let sdp_prep = Suite.prepare bench in
      let sdp = run_cpla sdp_prep ~released in
      Table.add_row t
        [
          Table.cell_f ~digits:1 (100.0 *. ratio);
          Table.cell_f tila.Cpla.Metrics.avg_tcp;
          Table.cell_f sdp.Cpla.Metrics.avg_tcp;
          Table.cell_f tila.Cpla.Metrics.max_tcp;
          Table.cell_f sdp.Cpla.Metrics.max_tcp;
          Table.cell_f ~digits:3 tila.Cpla.Metrics.cpu_s;
          Table.cell_f ~digits:3 sdp.Cpla.Metrics.cpu_s;
        ])
    [ 0.005; 0.010; 0.015; 0.020; 0.025 ];
  Table.print t

(* ---- Table 2 -------------------------------------------------------------- *)

let table2 () =
  header "Table 2 — TILA-0.5% vs SDP-0.5% on all 15 benchmarks";
  let t =
    Table.create
      ~headers:
        [
          "bench";
          "TILA Avg";
          "TILA Max";
          "TILA OV#";
          "TILA via#";
          "TILA s";
          "SDP Avg";
          "SDP Max";
          "SDP OV#";
          "SDP via#";
          "SDP s";
        ]
  in
  let acc = Hashtbl.create 16 in
  let accumulate key v =
    Hashtbl.replace acc key (v :: Option.value ~default:[] (Hashtbl.find_opt acc key))
  in
  List.iter
    (fun bench ->
      let tila_prep = Suite.prepare bench in
      let released = released_at tila_prep ~ratio:0.005 in
      let tila = run_tila tila_prep ~released in
      let sdp_prep = Suite.prepare bench in
      let sdp = run_cpla sdp_prep ~released in
      accumulate "tila_avg" tila.Cpla.Metrics.avg_tcp;
      accumulate "tila_max" tila.Cpla.Metrics.max_tcp;
      accumulate "tila_ov" (float_of_int tila.Cpla.Metrics.via_overflow);
      accumulate "tila_via" (float_of_int tila.Cpla.Metrics.via_count);
      accumulate "tila_s" tila.Cpla.Metrics.cpu_s;
      accumulate "sdp_avg" sdp.Cpla.Metrics.avg_tcp;
      accumulate "sdp_max" sdp.Cpla.Metrics.max_tcp;
      accumulate "sdp_ov" (float_of_int sdp.Cpla.Metrics.via_overflow);
      accumulate "sdp_via" (float_of_int sdp.Cpla.Metrics.via_count);
      accumulate "sdp_s" sdp.Cpla.Metrics.cpu_s;
      Table.add_row t
        [
          bench.Suite.name;
          Table.cell_f tila.Cpla.Metrics.avg_tcp;
          Table.cell_f tila.Cpla.Metrics.max_tcp;
          Table.cell_i tila.Cpla.Metrics.via_overflow;
          Table.cell_i tila.Cpla.Metrics.via_count;
          Table.cell_f ~digits:2 tila.Cpla.Metrics.cpu_s;
          Table.cell_f sdp.Cpla.Metrics.avg_tcp;
          Table.cell_f sdp.Cpla.Metrics.max_tcp;
          Table.cell_i sdp.Cpla.Metrics.via_overflow;
          Table.cell_i sdp.Cpla.Metrics.via_count;
          Table.cell_f ~digits:2 sdp.Cpla.Metrics.cpu_s;
        ])
    Suite.all;
  let avg key = Stats.mean (Array.of_list (Hashtbl.find acc key)) in
  Table.add_separator t;
  Table.add_row t
    [
      "average";
      Table.cell_f (avg "tila_avg");
      Table.cell_f (avg "tila_max");
      Table.cell_f ~digits:0 (avg "tila_ov");
      Table.cell_f ~digits:0 (avg "tila_via");
      Table.cell_f (avg "tila_s");
      Table.cell_f (avg "sdp_avg");
      Table.cell_f (avg "sdp_max");
      Table.cell_f ~digits:0 (avg "sdp_ov");
      Table.cell_f ~digits:0 (avg "sdp_via");
      Table.cell_f (avg "sdp_s");
    ];
  let ratio a b = if avg b = 0.0 then 0.0 else avg a /. avg b in
  Table.add_row t
    [
      "ratio";
      "1.00";
      "1.00";
      "1.00";
      "1.00";
      "1.00";
      Table.cell_f (ratio "sdp_avg" "tila_avg");
      Table.cell_f (ratio "sdp_max" "tila_max");
      Table.cell_f (ratio "sdp_ov" "tila_ov");
      Table.cell_f (ratio "sdp_via" "tila_via");
      Table.cell_f (ratio "sdp_s" "tila_s");
    ];
  Table.print t;
  Printf.printf
    "(paper reference ratios: Avg 0.86, Max 0.96, OV# 0.90, via# 1.00, CPU 3.16)\n%!"

(* ---- extended comparison ------------------------------------------------------ *)

let run_greedy prepared ~released =
  let asg = prepared.Suite.asg in
  let (_ : Cpla_tila.Delay_greedy.stats), cpu_s =
    Timer.time (fun () -> Cpla_tila.Delay_greedy.optimize asg ~released)
  in
  Cpla.Metrics.measure ~engine:prepared.Suite.engine asg ~released ~cpu_s

let extended () =
  header
    "Extended comparison — initial / delay-greedy [9] / TILA [4] / SDP (0.5% released)";
  let t =
    Table.create
      ~headers:[ "bench"; "method"; "Avg(Tcp)"; "Max(Tcp)"; "OV#"; "edge OV"; "CPU(s)" ]
  in
  List.iter
    (fun name ->
      let methods =
        [
          ("initial", fun prep ~released -> run_cpla ~config:{ Cpla.Config.default with Cpla.Config.max_outer_iters = 0 } prep ~released);
          ("delay-greedy [9]", run_greedy);
          ("TILA [4]", run_tila);
          ("SDP (ours)", fun prep ~released -> run_cpla prep ~released);
        ]
      in
      List.iter
        (fun (label, runner) ->
          let prep = Suite.prepare (Suite.find name) in
          let released = released_at prep ~ratio:0.005 in
          let m = runner prep ~released in
          Table.add_row t
            [
              name;
              label;
              Table.cell_f m.Cpla.Metrics.avg_tcp;
              Table.cell_f m.Cpla.Metrics.max_tcp;
              Table.cell_i m.Cpla.Metrics.via_overflow;
              Table.cell_i m.Cpla.Metrics.edge_overflow;
              Table.cell_f ~digits:3 m.Cpla.Metrics.cpu_s;
            ])
        methods;
      Table.add_separator t)
    [ "adaptec1"; "bigblue1"; "newblue4" ];
  Table.print t;
  Printf.printf
    "(delay-greedy [9] reaches competitive delay but, with no capacity model\n\
    \ beyond a per-net feasibility check, it adds the most wire overflow —\n\
    \ the paper's \"illegal solutions\" critique)\n%!"

(* ---- steiner topology refinement ---------------------------------------------- *)

let steiner () =
  header "Topology refinement — iterated 1-Steiner router option (adaptec1)";
  let bench = Suite.find "adaptec1" in
  let t =
    Table.create
      ~headers:[ "router"; "wirelength"; "2-D overflow"; "route s"; "Avg(Tcp) @0.5%" ]
  in
  List.iter
    (fun (label, use_steiner) ->
      let graph, nets = Cpla_route.Synth.generate bench.Suite.spec in
      let routed, route_s =
        Timer.time (fun () -> Cpla_route.Router.route_all ~steiner:use_steiner ~graph nets)
      in
      let wl =
        Array.fold_left
          (fun acc tr ->
            match tr with
            | Some tree -> acc + Cpla_route.Stree.total_wirelength tree
            | None -> acc)
          0 routed.Cpla_route.Router.trees
      in
      let asg =
        Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees
      in
      Cpla_route.Init_assign.run asg;
      let engine = Incremental.create asg in
      let released = Incremental.select engine ~ratio:0.005 in
      let rep = Cpla.Driver.optimize_released ~engine asg ~released in
      Table.add_row t
        [
          label;
          Table.cell_i wl;
          Table.cell_i routed.Cpla_route.Router.overflow_2d;
          Table.cell_f ~digits:3 route_s;
          Table.cell_f rep.Cpla.Driver.avg_tcp;
        ])
    [ ("prim (default)", false); ("iterated 1-steiner", true) ];
  Table.print t

(* ---- ablations -------------------------------------------------------------- *)

let ablations () =
  header "Ablations — design choices of the SDP method (0.5% released)";
  let variants =
    [
      ("full (default)", Cpla.Config.default);
      ( "no 1-opt refinement",
        { Cpla.Config.default with Cpla.Config.local_refinement = false } );
      ( "no boundary coupling",
        { Cpla.Config.default with Cpla.Config.boundary_coupling = false } );
      ( "no quadtree (KxK only)",
        { Cpla.Config.default with Cpla.Config.max_segments_per_partition = 100000 } );
      ( "single partition",
        {
          Cpla.Config.default with
          Cpla.Config.k_div = 1;
          max_segments_per_partition = 100000;
        } );
      ( "rank 6 (1.12 default)",
        {
          Cpla.Config.default with
          Cpla.Config.sdp_options =
            { Cpla.Config.default.Cpla.Config.sdp_options with Cpla_sdp.Solver.rank = 6 };
        } );
    ]
  in
  let t =
    Table.create ~headers:[ "bench"; "variant"; "Avg(Tcp)"; "Max(Tcp)"; "CPU(s)" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun (label, config) ->
          let prep = Suite.prepare (Suite.find name) in
          let released = released_at prep ~ratio:0.005 in
          let m = run_cpla ~config prep ~released in
          Table.add_row t
            [
              name;
              label;
              Table.cell_f m.Cpla.Metrics.avg_tcp;
              Table.cell_f m.Cpla.Metrics.max_tcp;
              Table.cell_f ~digits:3 m.Cpla.Metrics.cpu_s;
            ])
        variants;
      Table.add_separator t)
    [ "adaptec1"; "bigblue1" ];
  Table.print t
