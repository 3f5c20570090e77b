open Cpla_serve

(* The serve subsystem's contracts: manifest parsing, the scheduling policy,
   cooperative cancellation/deadlines, fault isolation, and the determinism
   guarantee that a batch drained in parallel reports the same per-job
   results as sequential runs. *)

let tiny_spec ~name ~nets ~seed =
  {
    Cpla_route.Synth.default_spec with
    Cpla_route.Synth.name;
    width = 16;
    height = 16;
    num_layers = 4;
    num_nets = nets;
    seed;
    hotspots = 1;
    blockage_fraction = 0.02;
  }

let tiny ?(priority = 0) ?deadline_s ?(nets = 120) ?(seed = 1) ?(iters = 2) id =
  {
    Job.id;
    label = Printf.sprintf "tiny-%d" id;
    source = Job.Synth (tiny_spec ~name:(Printf.sprintf "tiny-%d" id) ~nets ~seed);
    config =
      { Cpla.Config.default with Cpla.Config.max_outer_iters = iters; critical_ratio = 0.02 };
    priority;
    deadline_s;
  }

let poison id = { (tiny id) with Job.source = Job.File "/nonexistent/poison.gr" }

(* ---- manifest parsing ---------------------------------------------------- *)

let test_manifest_parse () =
  let text =
    "# comment line\n\
     adaptec1 ratio=0.01 priority=3 name=first\n\
     \n\
     designs/big.gr method=ilp deadline=2.5 iters=4  # trailing comment\n\
     custom.gr\n"
  in
  match Job.parse_manifest ~default_deadline_s:9.0 text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok specs ->
      Alcotest.(check int) "job count" 3 (List.length specs);
      let j0 = List.nth specs 0 and j1 = List.nth specs 1 and j2 = List.nth specs 2 in
      Alcotest.(check (list int)) "ids in manifest order" [ 0; 1; 2 ]
        (List.map (fun s -> s.Job.id) specs);
      (match j0.Job.source with
      | Job.Bench "adaptec1" -> ()
      | _ -> Alcotest.fail "bare name classifies as Bench");
      Alcotest.(check string) "name= overrides label" "first" j0.Job.label;
      Alcotest.(check int) "priority" 3 j0.Job.priority;
      Alcotest.(check (float 1e-9)) "ratio" 0.01 j0.Job.config.Cpla.Config.critical_ratio;
      Alcotest.(check (option (float 1e-9))) "default deadline applies" (Some 9.0)
        j0.Job.deadline_s;
      (match j1.Job.source with
      | Job.File "designs/big.gr" -> ()
      | _ -> Alcotest.fail "path classifies as File");
      Alcotest.(check bool) "method=ilp" true (j1.Job.config.Cpla.Config.method_ = Cpla.Config.Ilp);
      Alcotest.(check (option (float 1e-9))) "explicit deadline wins" (Some 2.5) j1.Job.deadline_s;
      Alcotest.(check int) "iters" 4 j1.Job.config.Cpla.Config.max_outer_iters;
      match j2.Job.source with
      | Job.File "custom.gr" -> ()
      | _ -> Alcotest.fail ".gr suffix classifies as File"

let test_manifest_rejects () =
  let expect_error text =
    match Job.parse_manifest text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed manifest %S" text
  in
  expect_error "adaptec1 bogus=1\n";
  expect_error "adaptec1 ratio=2.0\n";
  expect_error "adaptec1 ratio=x\n";
  expect_error "adaptec1 deadline=-1\n";
  expect_error "adaptec1 workers=0\n";
  expect_error "adaptec1 iters=-3\n";
  expect_error "method=sdp\n";
  expect_error "adaptec1 method=tila\n"

(* ---- token ---------------------------------------------------------------- *)

let test_token () =
  let t = Token.create () in
  Alcotest.(check bool) "fresh token is live" false (Token.cancelled t);
  Token.check t;
  Token.cancel t;
  Alcotest.(check bool) "cancel fires" true (Token.cancelled t);
  (match Token.check t with
  | () -> Alcotest.fail "check must raise after cancel"
  | exception Token.Cancelled Token.User -> ()
  | exception Token.Cancelled _ -> Alcotest.fail "wrong cancellation reason");
  let d = Token.create ~deadline_s:0.0 () in
  (match Token.check d with
  | () -> Alcotest.fail "0s deadline must fire on first poll"
  | exception Token.Cancelled Token.Deadline -> ());
  (* the cause is latched: a later user cancel does not rewrite history *)
  Token.cancel d;
  Alcotest.(check bool) "deadline reason latched" true (Token.status d = Some Token.Deadline);
  let far = Token.create ~deadline_s:3600.0 () in
  Alcotest.(check bool) "future deadline is live" false (Token.cancelled far)

(* ---- priority queue ------------------------------------------------------- *)

let test_queue_policy () =
  let q = Queue.create () in
  Queue.add q ~priority:0 ~cost:10.0 "low";
  Queue.add q ~priority:5 ~cost:20.0 "mid-expensive";
  Queue.add q ~priority:5 ~cost:5.0 "mid-cheap";
  Queue.add q ~priority:9 ~cost:50.0 "high";
  Queue.add q ~priority:5 ~cost:5.0 "mid-cheap-later";
  Alcotest.(check (list string)) "priority desc, cost asc, FIFO ties"
    [ "high"; "mid-cheap"; "mid-cheap-later"; "mid-expensive"; "low" ]
    (Queue.drain q);
  Alcotest.(check bool) "drained empty" true (Queue.is_empty q)

(* ---- driver cancellation hook --------------------------------------------- *)

let test_driver_check_restores () =
  let graph, nets = Cpla_route.Synth.generate (tiny_spec ~name:"drv" ~nets:200 ~seed:11) in
  let routed = Cpla_route.Router.route_all ~graph nets in
  let asg = Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees in
  Cpla_route.Init_assign.run asg;
  let engine = Cpla_timing.Incremental.create asg in
  let released = Cpla_timing.Incremental.select engine ~ratio:0.05 in
  let polls = ref 0 in
  let check () =
    incr polls;
    if !polls >= 2 then raise (Token.Cancelled Token.User)
  in
  (match Cpla.Driver.optimize_released ~engine ~check asg ~released with
  | _ -> Alcotest.fail "expected cancellation to escape the driver"
  | exception Token.Cancelled Token.User -> ());
  Alcotest.(check bool) "cancelled mid-iteration leaves a fully assigned state" true
    (Cpla_route.Assignment.fully_assigned asg);
  let report = Cpla_route.Verify.check asg in
  let structural =
    List.filter
      (function
        | Cpla_route.Verify.Edge_overflow _ | Cpla_route.Verify.Via_overflow _ -> false
        | _ -> true)
      report.Cpla_route.Verify.violations
  in
  Alcotest.(check int) "no structural damage after rollback" 0 (List.length structural)

(* Uncoupled partitions (no shared capacity rows, no intra-partition via
   pairs) take an argmin fast path that skips the solver — it must still
   poll [check], or a run over a sparse design becomes uncancellable for a
   whole sweep.  2-pin nets, ample capacity and single-segment partitions
   force every leaf onto that path; the hook must fire more often than the
   once-per-iteration poll the outer loop provides. *)
let test_driver_check_polls_uncoupled_fast_path () =
  let spec =
    {
      Cpla_route.Synth.default_spec with
      Cpla_route.Synth.name = "uncoupled";
      width = 16;
      height = 16;
      num_layers = 4;
      num_nets = 150;
      capacity = 32;
      seed = 7;
      mean_extra_pins = 0.0;
      blockage_fraction = 0.0;
    }
  in
  let graph, nets = Cpla_route.Synth.generate spec in
  let routed = Cpla_route.Router.route_all ~graph nets in
  let asg = Cpla_route.Assignment.create ~graph ~nets ~trees:routed.Cpla_route.Router.trees in
  Cpla_route.Init_assign.run asg;
  let engine = Cpla_timing.Incremental.create asg in
  let released = Cpla_timing.Incremental.select engine ~ratio:0.1 in
  let config =
    { Cpla.Config.default with Cpla.Config.max_segments_per_partition = 1; max_outer_iters = 1 }
  in
  let polls = ref 0 in
  let check () =
    incr polls;
    if !polls > 2 then raise (Token.Cancelled Token.User)
  in
  (* the hook's own exception escapes unwrapped *)
  (match Cpla.Driver.optimize_released ~config ~engine ~check asg ~released with
  | _ -> Alcotest.fail "expected cancellation to escape"
  | exception Token.Cancelled Token.User -> ());
  Alcotest.(check bool) "uncoupled solves polled the hook" true (!polls >= 3);
  Alcotest.(check bool) "state fully assigned after rollback" true
    (Cpla_route.Assignment.fully_assigned asg)

(* ---- scheduler properties ------------------------------------------------- *)

let terminal_events results_len specs ~workers =
  (* run a batch and count terminal events per job id *)
  let counts = Hashtbl.create 8 in
  let on_event = function
    | Scheduler.Finished (s, _) ->
        Hashtbl.replace counts s.Job.id (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.Job.id))
    | Scheduler.Started _ -> ()
  in
  let results = Scheduler.run ~workers ~on_event specs in
  Alcotest.(check int) "one result per submitted job" results_len (Array.length results);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "job %d settles exactly once" s.Job.id)
        1
        (Option.value ~default:0 (Hashtbl.find_opt counts s.Job.id)))
    specs;
  results

let test_every_job_settles_once () =
  let specs =
    [ tiny 0 ~seed:21; poison 1; tiny 2 ~seed:22; { (tiny 3 ~seed:23) with Job.deadline_s = Some 0.0 } ]
  in
  let results = terminal_events 4 specs ~workers:2 in
  let status id =
    let _, t = results.(id) in
    t
  in
  (match status 1 with
  | Job.Failed _ -> ()
  | t -> Alcotest.failf "poison job must fail, got %s" (Job.status_string t));
  (match status 3 with
  | Job.Timed_out _ -> ()
  | t -> Alcotest.failf "0s-deadline job must time out, got %s" (Job.status_string t));
  List.iter
    (fun id ->
      match status id with
      | Job.Done _ -> ()
      | t -> Alcotest.failf "job %d must finish ok, got %s" id (Job.status_string t))
    [ 0; 2 ]

let test_priority_order () =
  let specs =
    [
      tiny 0 ~priority:0 ~nets:100 ~seed:31;
      tiny 1 ~priority:5 ~nets:200 ~seed:32;
      tiny 2 ~priority:5 ~nets:100 ~seed:33;
      tiny 3 ~priority:9 ~nets:150 ~seed:34;
    ]
  in
  let started = ref [] in
  let on_event = function
    | Scheduler.Started s -> started := s.Job.id :: !started
    | Scheduler.Finished _ -> ()
  in
  ignore (Scheduler.run ~workers:1 ~on_event specs);
  Alcotest.(check (list int))
    "start order: priority desc, then shortest-expected-first, then FIFO" [ 3; 2; 1; 0 ]
    (List.rev !started)

let test_cancel_never_commits () =
  (* job 0 occupies the single worker; job 1 is revoked while queued *)
  let specs = [ tiny 0 ~nets:600 ~seed:41 ~iters:3; tiny 1 ~seed:42 ] in
  let batch = Scheduler.submit ~workers:1 specs in
  Scheduler.cancel batch ~id:1;
  let results = Scheduler.wait batch in
  (match results.(1) with
  | _, Job.Cancelled _ -> ()
  | _, t -> Alcotest.failf "cancelled job must settle Cancelled, got %s" (Job.status_string t));
  (match results.(0) with
  | _, Job.Done _ -> ()
  | _, t -> Alcotest.failf "running job unaffected by cancel, got %s" (Job.status_string t));
  (* a timed-out job is terminal non-ok: it never reports success *)
  let r = Scheduler.run_one { (tiny 9 ~seed:43) with Job.deadline_s = Some 0.0 } in
  Alcotest.(check bool) "timed-out job is not ok" false (Job.is_ok r)

let test_poison_isolation_matches_sequential () =
  let a = tiny 0 ~seed:51 and b = tiny 2 ~seed:52 in
  let results = Scheduler.run ~workers:2 [ a; poison 1; b ] in
  let metrics_of id =
    match results.(id) with
    | _, Job.Done m -> m
    | _, t -> Alcotest.failf "job %d should be ok, got %s" id (Job.status_string t)
  in
  let seq_of spec =
    match Scheduler.run_one spec with
    | Job.Done m -> m
    | t -> Alcotest.failf "sequential run should be ok, got %s" (Job.status_string t)
  in
  Alcotest.(check bool) "job 0 identical to its sequential run" true
    (Job.same_result (metrics_of 0) (seq_of a));
  Alcotest.(check bool) "job 2 identical to its sequential run" true
    (Job.same_result (metrics_of 2) (seq_of b))

let test_parallel_matches_sequential () =
  let specs = List.init 6 (fun i -> tiny i ~nets:(100 + (20 * i)) ~seed:(60 + i)) in
  let parallel = Scheduler.run ~workers:3 specs in
  List.iteri
    (fun i spec ->
      match (parallel.(i), Scheduler.run_one spec) with
      | (_, Job.Done p), Job.Done s ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d: parallel == sequential" i)
            true (Job.same_result p s)
      | (_, Job.Done _), t ->
          Alcotest.failf "job %d did not finish ok sequentially (%s)" i (Job.status_string t)
      | (_, t), _ ->
          Alcotest.failf "job %d did not finish ok in parallel (%s)" i (Job.status_string t))
    specs

(* ---- session regressions --------------------------------------------------- *)

(* Wait until the session's single worker has claimed everything queued so
   far — otherwise a job submitted next could be claimed first (the policy
   prefers shortest-expected-cost among ready jobs). *)
let wait_claimed session =
  let watch = Cpla_util.Timer.wall () in
  let rec go () =
    if Session.pending session = 0 && Session.running session >= 1 then ()
    else if Cpla_util.Timer.elapsed_s watch > 30.0 then
      Alcotest.fail "worker never claimed the queued job"
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let test_session_queued_then_cancelled () =
  (* one worker, occupied by a slow job: job 1 waits in the queue, is
     cancelled there, and must settle Cancelled at once — never Started,
     never claimed by the worker *)
  let session = Session.create ~workers:1 () in
  let events = ref [] in
  let m = Mutex.create () in
  let on_event ev =
    Mutex.protect m (fun () -> events := ev :: !events)
  in
  let h0 = Session.submit session ~on_event (tiny 0 ~nets:600 ~seed:81 ~iters:3) in
  wait_claimed session;
  let h1 = Session.submit session ~on_event (tiny 1 ~seed:82) in
  Alcotest.(check bool) "cancel of a queued job wins" true (Session.cancel session ~id:1);
  (* the queued job's Finished fired on this domain before cancel returned *)
  (match Session.await h1 with
  | Job.Cancelled { partial = None } -> ()
  | t -> Alcotest.failf "queued-then-cancelled job settled %s" (Job.status_string t));
  (match Session.await h0 with
  | Job.Done _ -> ()
  | t -> Alcotest.failf "running job disturbed by the cancel: %s" (Job.status_string t));
  Session.drain session;
  let evs = List.rev !events in
  let of_job id =
    List.filter
      (function
        | Session.Submitted s | Session.Started s | Session.Progress (s, _)
        | Session.Finished (s, _) ->
            s.Job.id = id)
      evs
  in
  (match of_job 1 with
  | [ Session.Submitted _; Session.Finished (_, Job.Cancelled _) ] -> ()
  | l ->
      Alcotest.failf "queued job saw %d events; it must never start" (List.length l));
  Alcotest.(check bool) "cancel of a settled job loses" false (Session.cancel session ~id:1)

let test_session_deadline_from_arrival () =
  (* deadlines are a latency SLA measured from submit: a job whose budget
     is consumed entirely by queue wait settles Timed_out without ever
     computing (no Started, no Progress) *)
  let session = Session.create ~workers:1 () in
  let events = ref [] in
  let m = Mutex.create () in
  let on_event ev = Mutex.protect m (fun () -> events := ev :: !events) in
  let h0 = Session.submit session ~on_event (tiny 0 ~nets:1200 ~seed:83 ~iters:6) in
  wait_claimed session;
  (* job 0 has ~1s of compute left; job 1's whole budget burns in queue *)
  let h1 =
    Session.submit session ~on_event (tiny 1 ~seed:84 ~deadline_s:0.05)
  in
  (match Session.await h1 with
  | Job.Timed_out _ -> ()
  | t -> Alcotest.failf "expired-while-queued job settled %s" (Job.status_string t));
  (match Session.await h0 with
  | Job.Done _ -> ()
  | t -> Alcotest.failf "slow job settled %s" (Job.status_string t));
  Session.drain session;
  let progressed =
    List.exists
      (function Session.Progress (s, _) -> s.Job.id = 1 | _ -> false)
      !events
  in
  Alcotest.(check bool) "expired job never reported progress" false progressed

(* ---- report --------------------------------------------------------------- *)

let test_report_lines () =
  let spec = tiny 7 ~seed:71 in
  let m =
    {
      Job.wirelength = 100;
      avg_tcp = 1.5;
      max_tcp = 2.0;
      via_overflow = 3;
      edge_overflow = 0;
      released = 2;
      wall_s = 0.25;
    }
  in
  let ok_line = Report.line spec (Job.Done m) in
  Alcotest.(check bool) "result lines start with 'job '" true
    (String.length ok_line > 4 && String.sub ok_line 0 4 = "job ");
  Alcotest.(check bool) "ok line carries metrics" true
    (String.length ok_line > String.length (String.concat "" [ "job" ]));
  let results = [| (spec, Job.Done m); (tiny 8 ~seed:72, Job.Cancelled { partial = None }) |] in
  Alcotest.(check bool) "all_ok false with a cancelled job" false (Report.all_ok results);
  let s = Report.summary results in
  Alcotest.(check bool) "summary prefixed serve:" true (String.sub s 0 6 = "serve:")

(* Partition solves are sequential, so a job has no inner worker count: a
   manifest that still asks for one must fail loudly, not run silently
   with the key ignored. *)
let test_manifest_rejects_workers () =
  match Job.parse_manifest "adaptec1 workers=2\n" with
  | Ok _ -> Alcotest.fail "workers=2 accepted"
  | Error msg ->
      let expected = "unknown flag \"workers\"" in
      let n = String.length expected in
      let rec mem i =
        i + n <= String.length msg && (String.sub msg i n = expected || mem (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "error names the key: %s" msg) true (mem 0)

let suite =
  [
    Alcotest.test_case "manifest: parse fields and classification" `Quick test_manifest_parse;
    Alcotest.test_case "manifest: malformed lines rejected" `Quick test_manifest_rejects;
    Alcotest.test_case "token: cancel, deadline, latching" `Quick test_token;
    Alcotest.test_case "queue: scheduling policy order" `Quick test_queue_policy;
    Alcotest.test_case "driver: cancellation restores a consistent state" `Quick
      test_driver_check_restores;
    Alcotest.test_case "driver: uncoupled fast path polls check" `Quick
      test_driver_check_polls_uncoupled_fast_path;
    Alcotest.test_case "scheduler: every job settles exactly once" `Quick
      test_every_job_settles_once;
    Alcotest.test_case "scheduler: priority order among ready jobs" `Quick test_priority_order;
    Alcotest.test_case "scheduler: cancelled/timed-out jobs never commit" `Quick
      test_cancel_never_commits;
    Alcotest.test_case "scheduler: poisoned job isolated, others == sequential" `Quick
      test_poison_isolation_matches_sequential;
    Alcotest.test_case "scheduler: parallel batch == sequential runs" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "session: queued-then-cancelled job never starts" `Quick
      test_session_queued_then_cancelled;
    Alcotest.test_case "session: deadline measured from arrival, not claim" `Quick
      test_session_deadline_from_arrival;
    Alcotest.test_case "report: line and summary format" `Quick test_report_lines;
    Alcotest.test_case "manifest: workers key rejected" `Quick test_manifest_rejects_workers;
  ]
