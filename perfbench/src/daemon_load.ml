(* The daemon-mixed workload: a `cpla daemon --workers 2 --solve-cache`
   process driven closed-loop over loopback by two client connections, each
   of which waits for its job's terminal event before submitting the next
   one (as `cpla submit` does).

   Jobs run in passes of [pass_jobs] submissions.  [hot_per_pass] of them
   repeat one of [hot] designs, which read the daemon's solve cache; the
   rest are designs submitted once, which write it.  Every job is a 24x24,
   600-net synthetic design written as an ISPD'08 .gr file, optimised with
   the SDP method at ratio 0.01.

   The mix is 60/40, not even: the two kinds form two latency modes (cache
   hits ~30-65 ms, new designs ~100-240 ms), and with an even mix the median
   falls in the gap between them, where it swings with every run. *)

module Protocol = Cpla_net.Protocol
module Client = Cpla_net.Client
module Job = Cpla_serve.Job

let hot = 4
let pass_jobs = 20
let hot_per_pass = 12
let clients = 2
let ratio = 0.01

let now_ns = Cpla_util.Timer.now_ns
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* ---- the daemon process ---------------------------------------------------- *)

type daemon = { pid : int; port : int }

let exited pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true

(* Start the daemon on an ephemeral port and wait until it accepts. *)
let start ~cpla ~workdir ?trace_file () =
  let log = Filename.concat workdir "daemon.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ cpla; "daemon"; "--port"; "0"; "--workers"; "2"; "--solve-cache"; "-q" ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process cpla (Array.of_list args) null out out in
  Unix.close out;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_port () =
    let port =
      List.find_map
        (fun line -> Scanf.sscanf_opt line "cpla daemon listening on %s@:%d" (fun _ p -> p))
        (try Proc.read_lines log with Sys_error _ -> [])
    in
    match port with
    | Some port -> { pid; port }
    | None ->
        if exited pid then failwith "the daemon exited before listening"
        else if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "the daemon did not start listening within 30 s"
        end
        else begin
          Unix.sleepf 0.001;
          wait_port ()
        end
  in
  wait_port ()

(* SIGTERM drains and exits (writing the trace, when one was asked for);
   a daemon that does not exit within 30 s is killed. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (exited d.pid) do
    if Unix.gettimeofday () > deadline then begin
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    end
    else Unix.sleepf 0.01
  done

let connect d = Client.connect ~host:"127.0.0.1" ~port:d.port ()

(* ---- designs ----------------------------------------------------------------- *)

let gr_text spec = Designs.to_gr spec (Cpla_route.Synth.generate spec)

(* Design ids: [0, hot) are the hot designs, later ids are submitted once. *)
let spec ~seed design =
  if design < hot then Designs.hot_spec design else Designs.once_spec ~seed (design - hot)

(* Hot designs keep their files for the whole run; designs submitted once
   reuse one file per slot of the pass (a pass ends only when all of its
   jobs have settled). *)
let hot_path workdir i = Filename.concat workdir (Printf.sprintf "hot%d.gr" i)
let slot_path workdir k = Filename.concat workdir (Printf.sprintf "once%d.gr" k)

(* The jobs of pass [p]: (design index, file) in a seed-determined order. *)
let pass_plan ~seed ~workdir p =
  let rng = Cpla_util.Rng.create ((seed * 7919) + p + 1) in
  let jobs =
    Array.init pass_jobs (fun k ->
        if k < hot_per_pass then
          let i = Cpla_util.Rng.int rng hot in
          (i, hot_path workdir i)
        else
          let slot = k - hot_per_pass in
          (hot + (p * (pass_jobs - hot_per_pass)) + slot, slot_path workdir slot))
  in
  Cpla_util.Rng.shuffle rng jobs;
  jobs

(* Avg/Max(Tcp) of a job's released nets before optimisation, and the wire
   overflow of its initial assignment, computed the way the daemon computes
   them, from the same .gr text. *)
let initial_tcp spec =
  match Cpla_route.Ispd08.parse (gr_text spec) with
  | Error e -> failwith e
  | Ok design ->
      let graph = Cpla_route.Ispd08.to_graph design and nets = design.Cpla_route.Ispd08.nets in
      let routed = Cpla_route.Router.route_all ~graph nets in
      let asg = Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees in
      Cpla_route.Init_assign.run asg;
      let engine = Cpla_timing.Incremental.create asg in
      let avg0, max0 =
        Cpla_timing.Incremental.avg_max_tcp engine (Cpla_timing.Incremental.select engine ~ratio)
      in
      (avg0, max0, Cpla_grid.Graph.edge_overflow graph)

(* ---- load ---------------------------------------------------------------------- *)

type job = {
  design : int;
  pass : int;
  latency_s : float;  (** submit to terminal event *)
  ack_s : float;  (** submit to Accepted *)
  result : (Job.metrics, string) result;  (** [Error] = shed, failed or not done *)
}

let submit client ~pass (design, path) =
  let t0 = now_ns () in
  let spec_line = Printf.sprintf "%s ratio=%g" path ratio in
  let finish ?(ack = t0) result =
    { design; pass; latency_s = secs t0 (now_ns ()); ack_s = secs t0 ack; result }
  in
  Cpla_obs.Span.with_ ~name:"bench/job" @@ fun () ->
  match Client.call ~timeout_s:60.0 client (Protocol.Submit { spec_line }) with
  | Ok (Protocol.Result { resp = Protocol.Accepted { job }; _ }) -> (
      let ack = now_ns () in
      match Client.await_terminal ~timeout_s:60.0 client ~job with
      | Ok (Job.Done m) -> finish ~ack (Ok m)
      | Ok t -> finish ~ack (Error ("job settled " ^ Job.status_string t))
      | Error e -> finish ~ack (Error e))
  | Ok (Protocol.Error { code = Protocol.Shed r; _ }) ->
      finish (Error ("shed: " ^ Protocol.shed_reason_string r))
  | Ok _ -> finish (Error "unexpected response to submit")
  | Error e -> finish (Error e)

(* One pass: both clients pull jobs from the plan until it is empty. *)
let run_pass ~seed ~workdir conns p =
  let plan = pass_plan ~seed ~workdir p in
  Array.iter
    (fun (design, path) ->
      if design >= hot then Proc.write_file path (gr_text (spec ~seed design)))
    plan;
  let next = Atomic.make 0 in
  let t0 = now_ns () in
  let jobs =
    Cpla_obs.Span.with_ ~name:"bench/pass" @@ fun () ->
    let drive client () =
      let rec go acc =
        let k = Atomic.fetch_and_add next 1 in
        if k >= Array.length plan then acc else go (submit client ~pass:p plan.(k) :: acc)
      in
      go []
    in
    List.map (fun c -> Domain.spawn (drive c)) conns |> List.concat_map Domain.join
  in
  (secs t0 (now_ns ()), jobs)

(* A daemon serving one window of passes, with what it reported after. *)
type session = {
  walls : float array;
  jobs : job list;
  stats : Protocol.stats option;
  rss_mb : float;
}

let serve ~seed ~workdir ~seconds d =
  let conns = List.init clients (fun _ -> connect d) in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close conns)
    (fun () ->
      let clock = Cpla_util.Timer.wall () in
      let passes =
        Window.repeat ~seconds
          ~elapsed:(fun () -> Cpla_util.Timer.elapsed_s clock)
          (run_pass ~seed ~workdir conns)
      in
      let stats =
        match Client.call ~timeout_s:30.0 (List.hd conns) Protocol.Stats with
        | Ok (Protocol.Result { resp = Protocol.Stats_r s; _ }) -> Some s
        | _ -> None
      in
      {
        walls = Array.of_list (List.map fst passes);
        jobs = List.concat_map snd passes;
        stats;
        rss_mb = Proc.peak_rss_mb ~pid:d.pid ();
      })

(* ---- checks and metrics --------------------------------------------------------- *)

(* Every job must settle done.  Jobs whose design's initial timing is known
   (the hot designs, and the first pass's designs submitted once) must not
   come back worse. *)
let check outcome initial jobs =
  List.iter
    (fun j ->
      let label = Printf.sprintf "pass %d job design %d" j.pass j.design in
      match j.result with
      | Error e -> Outcome.record outcome label [ e ]
      | Ok m -> (
          match List.assoc_opt j.design initial with
          | None -> Outcome.record outcome label []
          | Some (avg0, max0, _) ->
              Outcome.record outcome label
                (Outcome.design_checks ~structural:0 ~avg0 ~max0 ~avg1:m.Job.avg_tcp
                   ~max1:m.Job.max_tcp)))
    jobs

(* Quality over every settled job of a hot design (cache misses and hits
   alike): final over initial Avg/Max(Tcp), then the mean overflow per job.
   The hot designs are the same for every seed, so these do not move with
   the draw of the designs submitted once.  The overflow is per-layer only:
   a cache hit replays whichever cold solution the concurrent jobs stored
   first, and the mean OV# of the hot jobs ranged 48-67 over five runs. *)
let quality initial jobs =
  let hot_jobs =
    List.filter_map
      (fun j ->
        match j.result with
        | Ok m when j.design < hot -> Some (List.assoc j.design initial, m)
        | _ -> None)
      jobs
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 hot_jobs in
  let mean f = sum (fun x -> float_of_int (f x)) /. float_of_int (max 1 (List.length hot_jobs)) in
  ( [
      ("avg_tcp_ratio", sum (fun (_, m) -> m.Job.avg_tcp) /. sum (fun ((a, _, _), _) -> a));
      ("max_tcp_ratio", sum (fun (_, m) -> m.Job.max_tcp) /. sum (fun ((_, x, _), _) -> x));
    ],
    [
      ("verify.via_overflow", mean (fun (_, m) -> m.Job.via_overflow));
      ("route.edge_overflow_initial", mean (fun ((_, _, e), _) -> e));
      ("verify.edge_overflow", mean (fun (_, m) -> m.Job.edge_overflow));
    ] )

let done_jobs jobs =
  List.filter_map (fun j -> match j.result with Ok m -> Some (j, m) | Error _ -> None) jobs

let ms xs = Array.of_list (List.map (fun x -> 1000.0 *. x) xs)

(* Spans of the daemon's own trace file (Chrome trace-event JSON, one
   event per line). *)
let daemon_spans path =
  let prefix = "{\"traceEvents\":[" in
  let events =
    List.filter_map
      (fun line ->
        let line =
          if String.starts_with ~prefix line then
            String.sub line (String.length prefix) (String.length line - String.length prefix)
          else line
        in
        Scanf.sscanf_opt line "{\"name\":\"%s@\",\"ph\":\"%s@\",\"ts\":%f,\"pid\":0,\"tid\":%d"
          (fun name ph ts dom ->
            let ph =
              match ph with
              | "B" -> Some Cpla_obs.Event.Begin
              | "E" -> Some Cpla_obs.Event.End
              | _ -> None
            in
            Option.map
              (fun ph ->
                { Cpla_obs.Event.name; ph; ts_ns = Int64.of_float (ts *. 1e3); dom; args = [] })
              ph)
        |> Option.join)
      (try Proc.read_lines path with Sys_error _ -> [])
  in
  Spans.of_events events

let layer_metrics ~untraced ~traced ~client_spans ~daemon_spans ~initial outcome =
  let dj = done_jobs traced.jobs in
  let latency = ms (List.map (fun (j, _) -> j.latency_s) dj) in
  let wait = ms (List.map (fun (j, m) -> j.latency_s -. m.Job.wall_s) dj) in
  let stat f = match traced.stats with Some s -> float_of_int (f s) | None -> 0.0 in
  let hits = stat (fun s -> s.Protocol.cache_hits) and misses = stat (fun s -> s.Protocol.cache_misses) in
  let tail xs = Option.value ~default:0.0 (Pct.tail xs 90.0) in
  let span_s name = Spans.seconds (Spans.total_ns daemon_spans name) in
  let count name = float_of_int (Spans.count daemon_spans name) in
  let passes = List.filter (fun s -> s.Spans.name = "bench/pass") client_spans in
  let pass_ns = List.fold_left (fun a s -> Int64.add a (Spans.duration_ns s)) 0L passes in
  let covered =
    List.fold_left (fun a s -> Int64.add a (Spans.covered_by client_spans s [ "bench/job" ])) 0L passes
  in
  [
    ("sdp.solve_s", span_s "sdp/solve");
    ("sdp.solves", count "sdp/solve");
    ("post_map.run_s", span_s "post_map/run");
    ("ilp.solve_s", span_s "ilp/solve");
    ("ilp.solves", count "ilp/solve");
    ("timing.refresh_s", span_s "timing/refresh");
    ("serve.job_wall_s_p50", Pct.median (Array.of_list (List.map (fun (_, m) -> m.Job.wall_s) dj)));
    ("serve.job_latency_p90_ms", tail latency);
    ("serve.queue_wait_ms_p50", Pct.median wait);
    ("serve.queue_wait_ms_p90", tail wait);
    ("serve.shed", stat (fun s -> s.Protocol.shed));
    ("net.submit_ack_ms_p50", Pct.median (ms (List.map (fun (j, _) -> j.ack_s) dj)));
    ("solve_cache.hits", hits);
    ("solve_cache.misses", misses);
    ("solve_cache.hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    ("obs.trace_overhead_ratio", Pct.median traced.walls /. Pct.median untraced.walls);
    ( "obs.unattributed_ratio",
      if pass_ns = 0L then 0.0 else Int64.to_float (Int64.sub pass_ns covered) /. Int64.to_float pass_ns );
    ("fail_ratio", Outcome.fail_ratio outcome);
  ]
  @ snd (quality initial traced.jobs)

let run ~seed ~seconds ~trace ~cpla ~workdir outcome =
  let setup () =
    for i = 0 to hot - 1 do
      Proc.write_file (hot_path workdir i) (gr_text (Designs.hot_spec i))
    done;
    let d = start ~cpla ~workdir () in
    let pong =
      match connect d with
      | c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> Client.call ~timeout_s:30.0 c Protocol.Ping)
      | exception e ->
          stop d;
          raise e
    in
    match pong with
    | Ok (Protocol.Result { resp = Protocol.Pong; _ }) -> d
    | _ ->
        stop d;
        failwith "the daemon did not answer a ping"
  in
  (* set up nine times, keeping the last daemon; report the median *)
  let setups =
    List.init 9 (fun k ->
        let d, s = Cpla_util.Timer.wall_time setup in
        if k < 8 then stop d;
        (d, s))
  in
  let d = fst (List.nth setups 8) in
  let setup_s = Pct.median (Array.of_list (List.map snd setups)) in
  let window = if trace then seconds /. 2.0 else seconds in
  let untraced =
    Fun.protect ~finally:(fun () -> stop d) (fun () -> serve ~seed ~workdir ~seconds:window d)
  in
  let traced =
    if not trace then None
    else begin
      let trace_file = Filename.concat workdir "daemon-trace.json" in
      let d = start ~cpla ~workdir ~trace_file () in
      Cpla_obs.Obs.reset ();
      Cpla_obs.Obs.set_enabled true;
      let s =
        Fun.protect
          ~finally:(fun () ->
            Cpla_obs.Obs.set_enabled false;
            stop d)
          (fun () -> serve ~seed ~workdir ~seconds:window d)
      in
      let events = Cpla_obs.Sink.drain () in
      Cpla_obs.Obs.reset ();
      Proc.write_file (Filename.concat workdir "trace.json") (Cpla_obs.Trace.json events);
      let daemon = daemon_spans trace_file in
      Report.self_table "daemon" daemon;
      Some (s, Spans.of_events events, daemon)
    end
  in
  let all_jobs = untraced.jobs @ match traced with Some (s, _, _) -> s.jobs | None -> [] in
  let initial =
    List.sort_uniq compare
      (List.filter_map (fun j -> if j.pass = 0 || j.design < hot then Some j.design else None) all_jobs)
    |> List.map (fun i -> (i, initial_tcp (spec ~seed i)))
  in
  check outcome initial all_jobs;
  Report.pass_walls untraced.walls;
  match traced with
  | Some (traced, client_spans, daemon_spans) ->
      layer_metrics ~untraced ~traced ~client_spans ~daemon_spans ~initial outcome
  | None ->
      let dj = done_jobs untraced.jobs in
      let total = Array.fold_left ( +. ) 0.0 untraced.walls in
      [
        ("setup_s", setup_s);
        ("pipeline_wall_s", Pct.median untraced.walls);
        ("jobs_per_s", float_of_int (List.length dj) /. total);
        ("job_latency_p50_ms", Pct.median (ms (List.map (fun (j, _) -> j.latency_s) dj)));
      ]
      @ fst (quality initial untraced.jobs)
      @ [ ("peak_rss_mb", untraced.rss_mb); ("success_ratio", 1.0 -. Outcome.fail_ratio outcome) ]
