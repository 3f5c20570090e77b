(* cpla — command-line front end.

   Subcommands:
     synth     generate a synthetic benchmark and write it as ISPD'08 text
     optimize  route + initial assignment + timing-driven layer assignment
     serve     drain a manifest of optimisation jobs over a worker pool
     daemon    long-lived TCP job service over the persistent scheduler session
     submit    push a job to a running daemon and stream its status events
     density   route a design and print its congestion map
     bench     regenerate a paper experiment (fig1/fig3b/fig7/fig8/fig9/table2)
     list      list the built-in benchmark suite *)

open Cmdliner
open Cpla_route
open Cpla_timing

(* Binary mode so ISPD'08 text round-trips byte-identically on any platform;
   Fun.protect so an exception mid-I/O (parse error, full disk) cannot leak
   the channel. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* Load a design either from an ISPD'08 file or from the built-in suite. *)
let load ~file ~bench_name =
  match (file, bench_name) with
  | Some path, _ -> (
      match Ispd08.parse (read_file path) with
      | Error msg -> Error (`Msg (Printf.sprintf "cannot parse %s: %s" path msg))
      | Ok design -> Ok (Ispd08.to_graph design, design.Ispd08.nets))
  | None, Some name -> (
      match Cpla_expt.Suite.find name with
      | bench -> Ok (Synth.generate bench.Cpla_expt.Suite.spec)
      | exception Not_found ->
          Error (`Msg (Printf.sprintf "unknown benchmark %s (try `cpla list`)" name)))
  | None, None -> Error (`Msg "provide --file or --bench")

let prepare graph nets =
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  (asg, routed)

(* Commands evaluate to their process exit code ([Cmd.eval']) so `submit`
   can surface a job's terminal state; ordinary commands map success to 0. *)
let exit_ok term = Term.(const (fun () -> Cmd.Exit.ok) $ term)

(* ---- common options ---------------------------------------------------- *)

let file_arg =
  let doc = "ISPD'08 benchmark file ($(i,.gr) text format)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let bench_arg =
  let doc = "Built-in synthetic benchmark name (see $(b,cpla list))." in
  Arg.(value & opt (some string) None & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let ratio_arg =
  let doc = "Fraction of nets released as critical (0.005 = the paper's 0.5%)." in
  Arg.(value & opt float 0.005 & info [ "r"; "ratio" ] ~docv:"RATIO" ~doc)

(* Rejecting 0/negative at the command line (instead of silently treating
   them as "sequential") keeps `--workers 0` from masking a typo'd fleet
   size in scripts. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%d is not a positive worker/job count" v))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "must be a positive number of seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv ~docv:"SECONDS" (parse, Format.pp_print_float)

(* ---- observability ------------------------------------------------------- *)

let trace_arg =
  let doc =
    "Record spans and write a Chrome trace-event JSON file to $(docv) (loadable at \
     ui.perfetto.dev or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc = "Print the observability metrics registry after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Flip observability on around [f] when either export was requested, and
   export in a [finally] so a failed run still leaves its trace behind.
   Draining is safe here: both the driver's parallel map and the serve pool
   join their domains before returning (including on the exception path). *)
let with_obs ~trace ~metrics f =
  let on = trace <> None || metrics in
  if not on then f ()
  else begin
    Cpla_obs.Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Cpla_obs.Obs.set_enabled false;
        (match trace with
        | None -> ()
        | Some path ->
            write_file path (Cpla_obs.Trace.json (Cpla_obs.Sink.drain ()));
            Printf.printf "trace written to %s\n" path);
        if metrics then print_endline (Cpla_obs.Metrics.dump ());
        Cpla_obs.Obs.reset ())
      f
  end

(* ---- synth -------------------------------------------------------------- *)

let synth_cmd =
  let out_arg =
    let doc = "Output path for the generated ISPD'08 file." in
    Arg.(value & opt string "design.gr" & info [ "o"; "out" ] ~docv:"PATH" ~doc)
  in
  let run bench_name out =
    match Cpla_expt.Suite.find bench_name with
    | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown benchmark %s" bench_name))
    | bench ->
        let spec = bench.Cpla_expt.Suite.spec in
        let graph, nets = Synth.generate spec in
        let nl = Cpla_grid.Graph.num_layers graph in
        let header =
          {
            Ispd08.grid_x = Cpla_grid.Graph.width graph;
            grid_y = Cpla_grid.Graph.height graph;
            num_layers = nl;
            vertical_capacity =
              Array.init nl (fun l ->
                  match Cpla_grid.Tech.layer_dir (Cpla_grid.Graph.tech graph) l with
                  | Cpla_grid.Tech.Vertical -> spec.Synth.capacity
                  | Cpla_grid.Tech.Horizontal -> 0);
            horizontal_capacity =
              Array.init nl (fun l ->
                  match Cpla_grid.Tech.layer_dir (Cpla_grid.Graph.tech graph) l with
                  | Cpla_grid.Tech.Horizontal -> spec.Synth.capacity
                  | Cpla_grid.Tech.Vertical -> 0);
            min_width = Array.make nl 1;
            min_spacing = Array.make nl 1;
            via_spacing = Array.make nl 1;
            lower_left_x = 0;
            lower_left_y = 0;
            tile_width = 10;
            tile_height = 10;
          }
        in
        write_file out (Ispd08.write { Ispd08.header; nets; adjustments = [] });
        Printf.printf "wrote %s (%d nets, %dx%dx%d)\n" out (Array.length nets)
          header.Ispd08.grid_x header.Ispd08.grid_y nl;
        Ok ()
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc:"benchmark name")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Generate a synthetic benchmark as an ISPD'08 file")
    (exit_ok Term.(term_result (const run $ name_arg $ out_arg)))

(* ---- optimize ------------------------------------------------------------ *)

let optimize_cmd =
  let method_arg =
    let doc = "Optimisation engine: $(b,sdp), $(b,ilp), $(b,tila) or $(b,greedy)." in
    Arg.(
      value
      & opt
          (enum [ ("sdp", `Sdp); ("ilp", `Ilp); ("tila", `Tila); ("greedy", `Greedy) ])
          `Sdp
      & info [ "m"; "method" ] ~docv:"METHOD" ~doc)
  in
  let dump_arg =
    let doc = "Write the optimised routing in the contest output format." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"PATH" ~doc)
  in
  let steiner_arg =
    let doc = "Refine routing topologies with iterated-1-Steiner points." in
    Arg.(value & flag & info [ "steiner" ] ~doc)
  in
  let run file bench_name ratio method_ dump steiner trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    Result.bind (load ~file ~bench_name) (fun (graph, nets) ->
        let routed = Router.route_all ~steiner ~graph nets in
        let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
        Init_assign.run asg;
        Printf.printf "routed %d nets (2-D overflow %d)\n" (Array.length nets)
          routed.Router.overflow_2d;
        let engine = Incremental.create asg in
        let released = Incremental.select engine ~ratio in
        let avg0, max0 = Incremental.avg_max_tcp engine released in
        Printf.printf "released %d nets: Avg(Tcp)=%.1f Max(Tcp)=%.1f\n"
          (Array.length released) avg0 max0;
        let cpu_s =
          match method_ with
          | `Tila ->
              let _, s =
                Cpla_util.Timer.time (fun () -> Cpla_tila.Tila.optimize asg ~released)
              in
              s
          | `Greedy ->
              let _, s =
                Cpla_util.Timer.time (fun () ->
                    Cpla_tila.Delay_greedy.optimize asg ~released)
              in
              s
          | (`Sdp | `Ilp) as m ->
              let config =
                {
                  Cpla.Config.default with
                  Cpla.Config.method_ =
                    (match m with `Sdp -> Cpla.Config.Sdp | `Ilp -> Cpla.Config.Ilp);
                  critical_ratio = ratio;
                }
              in
              let _, s =
                Cpla_util.Timer.time (fun () ->
                    Cpla.Driver.optimize_released ~config ~engine asg ~released)
              in
              s
        in
        let m = Cpla.Metrics.measure ~engine asg ~released ~cpu_s in
        Format.printf "%a@." Cpla.Metrics.pp m;
        (match dump with
        | None -> ()
        | Some path ->
            write_file path (Solution.write asg);
            Printf.printf "routing dumped to %s\n" path);
        Ok ())
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Timing-driven incremental layer assignment")
    (exit_ok Term.(
      term_result
        (const run $ file_arg $ bench_arg $ ratio_arg $ method_arg $ dump_arg $ steiner_arg
       $ trace_arg $ metrics_arg)))

(* ---- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "Job manifest: one job per line, $(i,<file-or-bench> [key=value ...]), with \
             $(b,#) comments.  Keys: method=sdp|ilp ratio=F priority=N deadline=S \
             iters=N name=LABEL.")
  in
  let workers_arg =
    let doc = "Worker domains draining the batch concurrently." in
    Arg.(
      value
      & opt positive_int (Cpla_util.Pool.recommended_workers ())
      & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-job wall-clock deadline in seconds (jobs may override)." in
    Arg.(value & opt (some positive_float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-job start notices (result lines still stream)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run manifest workers deadline quiet trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    match
      Cpla_serve.Job.parse_manifest ?default_deadline_s:deadline (read_file manifest)
    with
    | Error msg -> Error (`Msg msg)
    | Ok [] -> Error (`Msg (Printf.sprintf "manifest %s contains no jobs" manifest))
    | Ok specs ->
        Printf.printf "serve: %d job%s on %d worker%s\n%!" (List.length specs)
          (if List.length specs = 1 then "" else "s")
          workers
          (if workers = 1 then "" else "s");
        (* events arrive from worker domains, already serialised by the
           scheduler's internal lock — safe to print directly *)
        let on_event = function
          | Cpla_serve.Scheduler.Started spec ->
              if not quiet then
                Printf.printf "# start job %d %s\n%!" spec.Cpla_serve.Job.id
                  spec.Cpla_serve.Job.label
          | Cpla_serve.Scheduler.Finished (spec, terminal) ->
              Printf.printf "%s\n%!" (Cpla_serve.Report.line spec terminal)
        in
        let results = Cpla_serve.Scheduler.run ~workers ~on_event specs in
        print_endline (Cpla_serve.Report.summary results);
        if Cpla_serve.Report.all_ok results then Ok ()
        else Error (`Msg "some jobs did not finish ok")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Batch-optimise a manifest of designs over a pool of worker domains")
    (exit_ok Term.(
      term_result
        (const run $ manifest_arg $ workers_arg $ deadline_arg $ quiet_arg $ trace_arg
       $ metrics_arg)))

(* ---- daemon ---------------------------------------------------------------- *)

let daemon_cmd =
  let module Server = Cpla_net.Server in
  let host_arg =
    let doc = "Bind address (numeric IP or resolvable name)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "TCP port ($(b,0) picks an ephemeral port, printed on startup)." in
    Arg.(value & opt int 7171 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains executing jobs concurrently." in
    Arg.(
      value
      & opt positive_int (Cpla_util.Pool.recommended_workers ())
      & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Default per-job wall-clock deadline in seconds (jobs may override)." in
    Arg.(value & opt (some positive_float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let queue_arg =
    let doc = "Pending-queue bound: submissions beyond it are shed ($(b,queue-full))." in
    Arg.(value & opt positive_int 64 & info [ "queue-bound" ] ~docv:"N" ~doc)
  in
  let cost_arg =
    let doc =
      "Queued expected-cost bound: submissions that would push the summed expected cost \
       of the pending queue above $(docv) are shed ($(b,cost-bound)).  Unbounded by \
       default."
    in
    Arg.(value & opt (some positive_float) None & info [ "cost-bound" ] ~docv:"COST" ~doc)
  in
  let quota_rate_arg =
    let doc = "Per-client token-bucket refill rate (requests per second)." in
    Arg.(value & opt positive_float 20.0 & info [ "quota-rate" ] ~docv:"RATE" ~doc)
  in
  let quota_burst_arg =
    let doc = "Per-client token-bucket capacity (burst size)." in
    Arg.(value & opt positive_float 40.0 & info [ "quota-burst" ] ~docv:"N" ~doc)
  in
  let grace_arg =
    let doc = "Seconds to let in-flight jobs settle on drain before cancelling them." in
    Arg.(value & opt positive_float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS" ~doc)
  in
  let solve_cache_arg =
    let doc =
      "Share a content-addressed solve cache across all jobs: partition subproblems \
       whose canonical formulation was already solved skip the solver.  Hit/miss totals \
       appear in $(b,submit --stats) output."
    in
    Arg.(value & flag & info [ "solve-cache" ] ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-connection lifecycle notices." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run host port workers deadline queue_bound cost_bound quota_rate quota_burst grace
      solve_cache quiet trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let log = if quiet then ignore else fun line -> Printf.printf "# %s\n%!" line in
    let config =
      {
        Server.default_config with
        Server.host;
        port;
        workers;
        queue_bound;
        cost_bound = Option.value ~default:infinity cost_bound;
        quota_rate;
        quota_burst;
        default_deadline_s = deadline;
        drain_grace_s = grace;
        solve_cache;
        log;
      }
    in
    match Server.create ~config () with
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (`Msg (Printf.sprintf "cannot bind %s:%d: %s" host port (Unix.error_message e)))
    | server ->
        (* SIGTERM/SIGINT request a graceful drain: stop accepting, settle
           in-flight jobs, flush event streams, then serve returns and the
           obs finally exports the trace. *)
        let stop _ = Server.shutdown server in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf "cpla daemon listening on %s:%d\n%!" host (Server.port server);
        Server.serve server;
        Printf.printf "cpla daemon stopped\n%!";
        Ok ()
  in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Serve optimisation jobs over TCP until SIGTERM")
    (exit_ok Term.(
      term_result
        (const run $ host_arg $ port_arg $ workers_arg $ deadline_arg $ queue_arg
       $ cost_arg $ quota_rate_arg $ quota_burst_arg $ grace_arg $ solve_cache_arg
       $ quiet_arg $ trace_arg $ metrics_arg)))

(* ---- submit ---------------------------------------------------------------- *)

(* Exit codes mirror the job's terminal state so scripts can branch on the
   outcome without parsing the stream:
     0 done, 1 failed, 2 timed-out, 3 cancelled, 4 shed. *)
let submit_cmd =
  let module Client = Cpla_net.Client in
  let module Protocol = Cpla_net.Protocol in
  let module Json = Cpla_net.Json in
  let connect_arg =
    let doc = "Daemon address as $(i,HOST:PORT)." in
    Arg.(value & opt string "127.0.0.1:7171" & info [ "c"; "connect" ] ~docv:"ADDR" ~doc)
  in
  let spec_arg =
    let doc =
      "Job spec: one manifest line, $(i,<file-or-bench> [key=value ...]) (same grammar \
       as $(b,cpla serve) manifests)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let stats_arg =
    let doc = "Query daemon statistics instead of submitting." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let ping_arg =
    let doc = "Ping the daemon instead of submitting." in
    Arg.(value & flag & info [ "ping" ] ~doc)
  in
  let cancel_arg =
    let doc = "Cancel job $(docv) instead of submitting (exit 0 if the cancel won)." in
    Arg.(value & opt (some int) None & info [ "cancel" ] ~docv:"JOB" ~doc)
  in
  let cancel_after_arg =
    let doc = "Cancel the submitted job after $(docv) seconds (cancellation demo/tests)." in
    Arg.(
      value & opt (some positive_float) None & info [ "cancel-after" ] ~docv:"SECONDS" ~doc)
  in
  let trace_id_arg =
    let doc = "Trace id threaded through the daemon's spans and the job's events." in
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID" ~doc)
  in
  let timeout_arg =
    let doc = "Give up when the server is silent for $(docv) seconds." in
    Arg.(value & opt (some positive_float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the per-event stream (the outcome line still prints)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let parse_connect s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "invalid address %S (want HOST:PORT)" s))
    | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when port >= 0 && host <> "" -> Ok (host, port)
        | _ -> Error (`Msg (Printf.sprintf "invalid address %S (want HOST:PORT)" s)))
  in
  let code_of_state = function
    | "done" -> 0
    | "failed" -> 1
    | "timed-out" -> 2
    | "cancelled" -> 3
    | _ -> 1
  in
  (* Stream the job's events until a terminal one, firing the scheduled
     cancel (if any) from the same loop. *)
  let stream client ~job ~cancel_after ~timeout_s ~quiet =
    let watch = Cpla_util.Timer.wall () in
    let cancel_sent = ref false in
    let terminal = ref None in
    let handle_ev (ev : Protocol.event) =
      if ev.Protocol.job = job then begin
        if not quiet then print_endline (Json.to_string (Protocol.event_to_json ev));
        if Protocol.is_terminal_state ev.Protocol.state then
          terminal := Some ev.Protocol.state
      end
    in
    let cancel_due () =
      match cancel_after with
      | Some s -> (not !cancel_sent) && Cpla_util.Timer.elapsed_s watch >= s
      | None -> false
    in
    let rec go () =
      match !terminal with
      | Some state ->
          Printf.printf "job %d %s\n%!" job state;
          Ok (code_of_state state)
      | None ->
          if cancel_due () then begin
            cancel_sent := true;
            match Client.call ?timeout_s client ~on_event:handle_ev (Protocol.Cancel { job }) with
            | Ok _ -> go ()
            | Error e -> Error (`Msg e)
          end
          else begin
            let recv_timeout =
              match cancel_after with
              | Some s when not !cancel_sent ->
                  Some (Float.max 0.01 (s -. Cpla_util.Timer.elapsed_s watch))
              | _ -> timeout_s
            in
            match Client.recv ?timeout_s:recv_timeout client with
            | Ok (Protocol.Ev ev) ->
                handle_ev ev;
                go ()
            | Ok (Protocol.Resp _) -> go ()
            | Error _ when cancel_due () -> go ()
            | Error e -> Error (`Msg e)
          end
    in
    go ()
  in
  let run connect spec stats ping cancel cancel_after trace_id timeout_s quiet =
    Result.bind (parse_connect connect) @@ fun (host, port) ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Client.connect ~host ~port () with
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (`Msg (Printf.sprintf "cannot connect to %s:%d: %s" host port
                   (Unix.error_message e)))
    | client -> (
        Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
        match (spec, stats, ping, cancel) with
        | _, true, _, _ -> (
            match Client.call ?timeout_s client ?trace:trace_id Protocol.Stats with
            | Ok (Protocol.Result { resp = Protocol.Stats_r s; _ }) ->
                Printf.printf
                  "pending=%d running=%d settled=%d shed=%d draining=%b cache_hits=%d \
                   cache_misses=%d\n"
                  s.Protocol.pending s.Protocol.running s.Protocol.settled s.Protocol.shed
                  s.Protocol.draining s.Protocol.cache_hits s.Protocol.cache_misses;
                Ok 0
            | Ok _ -> Error (`Msg "unexpected response to stats")
            | Error e -> Error (`Msg e))
        | _, _, true, _ -> (
            match Client.call ?timeout_s client ?trace:trace_id Protocol.Ping with
            | Ok (Protocol.Result { resp = Protocol.Pong; _ }) ->
                print_endline "pong";
                Ok 0
            | Ok _ -> Error (`Msg "unexpected response to ping")
            | Error e -> Error (`Msg e))
        | _, _, _, Some job -> (
            match Client.call ?timeout_s client ?trace:trace_id (Protocol.Cancel { job }) with
            | Ok (Protocol.Result { resp = Protocol.Cancel_r { won; _ }; _ }) ->
                Printf.printf "cancel job %d: %s\n" job (if won then "won" else "lost");
                Ok (if won then 0 else 1)
            | Ok _ -> Error (`Msg "unexpected response to cancel")
            | Error e -> Error (`Msg e))
        | Some spec_line, _, _, _ -> (
            match
              Client.call ?timeout_s client ?trace:trace_id
                (Protocol.Submit { spec_line })
            with
            | Error e -> Error (`Msg e)
            | Ok (Protocol.Error { code = Protocol.Shed reason; message; _ }) ->
                Printf.eprintf "shed (%s): %s\n%!" (Protocol.shed_reason_string reason)
                  message;
                Ok 4
            | Ok (Protocol.Error { message; _ }) -> Error (`Msg message)
            | Ok (Protocol.Result { resp = Protocol.Accepted { job }; _ }) ->
                Printf.printf "job %d accepted\n%!" job;
                stream client ~job ~cancel_after ~timeout_s ~quiet
            | Ok (Protocol.Result _) -> Error (`Msg "unexpected response to submit"))
        | None, false, false, None ->
            Error (`Msg "provide a job spec, --stats, --ping or --cancel"))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job to a running cpla daemon and stream its status events")
    Term.(
      term_result
        (const run $ connect_arg $ spec_arg $ stats_arg $ ping_arg $ cancel_arg
       $ cancel_after_arg $ trace_id_arg $ timeout_arg $ quiet_arg))

(* ---- density -------------------------------------------------------------- *)

let density_cmd =
  let run file bench_name =
    Result.bind (load ~file ~bench_name) (fun (graph, nets) ->
        let _asg, _ = prepare graph nets in
        print_string (Cpla_grid.Graph.density_map graph);
        Ok ())
  in
  Cmd.v
    (Cmd.info "density" ~doc:"Print the routing congestion map of a design")
    (exit_ok Term.(term_result (const run $ file_arg $ bench_arg)))

(* ---- bench ---------------------------------------------------------------- *)

let bench_cmd =
  let section_arg =
    Arg.(
      required
      & pos 0
          (some (enum
                   [
                     ("fig1", `Fig1);
                     ("fig3b", `Fig3b);
                     ("fig7", `Fig7);
                     ("fig8", `Fig8);
                     ("fig9", `Fig9);
                     ("table2", `Table2);
                   ]))
          None
      & info [] ~docv:"SECTION" ~doc:"experiment to regenerate")
  in
  let run section =
    (match section with
    | `Fig1 -> Cpla_expt.Experiments.fig1 ()
    | `Fig3b -> Cpla_expt.Experiments.fig3b ()
    | `Fig7 -> Cpla_expt.Experiments.fig7 ()
    | `Fig8 -> Cpla_expt.Experiments.fig8 ()
    | `Fig9 -> Cpla_expt.Experiments.fig9 ()
    | `Table2 -> Cpla_expt.Experiments.table2 ());
    Ok ()
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate a paper experiment")
    (exit_ok Term.(term_result (const run $ section_arg)))

(* ---- verify ---------------------------------------------------------------- *)

let verify_cmd =
  let run file bench_name =
    Result.bind (load ~file ~bench_name) (fun (graph, nets) ->
        let asg, _ = prepare graph nets in
        let engine = Incremental.create asg in
        let released = Incremental.select engine ~ratio:0.005 in
        ignore (Cpla.Driver.optimize_released ~engine asg ~released);
        let r = Verify.check asg in
        print_endline (Verify.summary r);
        List.iteri
          (fun i v -> if i < 20 then Format.printf "  %a@." Verify.pp_violation v)
          r.Verify.violations;
        if List.length r.Verify.violations > 20 then
          Printf.printf "  ... and %d more\n" (List.length r.Verify.violations - 20);
        Ok ())
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Route, optimise and audit a design (evaluator role)")
    (exit_ok Term.(term_result (const run $ file_arg $ bench_arg)))

(* ---- slack ---------------------------------------------------------------- *)

let slack_cmd =
  let factor_arg =
    let doc = "Budget factor over each net's zero-load lower-bound delay." in
    Arg.(value & opt float 3.5 & info [ "budget-factor" ] ~docv:"F" ~doc)
  in
  let run file bench_name factor =
    Result.bind (load ~file ~bench_name) (fun (graph, nets) ->
        let asg, _ = prepare graph nets in
        let budget = Slack.Scaled factor in
        let r = Slack.analyze asg budget in
        Printf.printf "before: violations=%d WNS=%.1f TNS=%.1f\n" r.Slack.violations
          r.Slack.wns r.Slack.tns;
        let released = Slack.select_violating asg budget ~max_nets:100 in
        if Array.length released > 0 then begin
          ignore (Cpla.Driver.optimize_released asg ~released);
          let r = Slack.analyze asg budget in
          Printf.printf "after:  violations=%d WNS=%.1f TNS=%.1f\n" r.Slack.violations
            r.Slack.wns r.Slack.tns
        end;
        Ok ())
  in
  Cmd.v
    (Cmd.info "slack" ~doc:"Slack analysis and slack-driven optimisation")
    (exit_ok Term.(term_result (const run $ file_arg $ bench_arg $ factor_arg)))

(* ---- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun b ->
        let s = b.Cpla_expt.Suite.spec in
        Printf.printf "%-10s %3dx%-3d %d layers %6d nets%s\n" b.Cpla_expt.Suite.name
          s.Synth.width s.Synth.height s.Synth.num_layers s.Synth.num_nets
          (if b.Cpla_expt.Suite.small then "  (small-case set)" else ""))
      Cpla_expt.Suite.all;
    Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark suite")
    (exit_ok Term.(term_result (const run $ const ())))

let () =
  let doc = "incremental layer assignment for critical path timing (DAC'16)" in
  let info = Cmd.info "cpla" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            synth_cmd; optimize_cmd; serve_cmd; daemon_cmd; submit_cmd; density_cmd;
            slack_cmd; verify_cmd; bench_cmd; list_cmd;
          ]))
