(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints comment lines (machine facts, each metric, each failure) and,
   last, the JSON result line.  Runs from the root of a source checkout:
   the daemon and the seed-0 cross-check run the cpla executable that
   perfbench/run.py builds next to this one, and generated files go to
   perfbench/_run. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let cpla = "_build/default/bin/cpla_cli.exe" and workdir = "perfbench/_run" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME sdp-solve | route-congested | daemon-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed (0 = the experiment suite's designs)");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let outcome = Outcome.create () in
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  Report.header (Printf.sprintf "workload=%s seed=%d trace=%b" !workload !seed trace);
  let values =
    match (Pipeline.workload !workload, !workload) with
    | Some wl, _ ->
        Pipeline.run ~wl ~seed:!seed ~seconds:!seconds ~trace ~cpla ~workdir outcome
    | None, "daemon-mixed" ->
        Daemon_load.run ~seed:!seed ~seconds:!seconds ~trace ~cpla ~workdir outcome
    | None, w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  Report.print ~outcome (Report.complete catalog values)
