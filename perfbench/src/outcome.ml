(* Operations attempted and failed, with the reason for each failure.

   An operation is one design run through the pipeline, one daemon job, or
   one comparison against the command line.  It fails when any of its
   checks fails; [failed / attempted] is the run's fail ratio. *)

type t = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let create () = { attempted = 0; failed = 0; reasons = [] }

(* Record one operation with the reasons it failed ([] = succeeded). *)
let record t label = function
  | [] -> t.attempted <- t.attempted + 1
  | reasons ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      t.reasons <- List.rev_append (List.map (fun r -> label ^ ": " ^ r) reasons) t.reasons

let fail_ratio t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

let reasons t = List.rev t.reasons

(* Everything [Verify] reports except capacity overflow, which is a quality
   column (OV#, wire overflow), not a broken result. *)
let structural (report : Cpla_route.Verify.report) =
  List.length
    (List.filter
       (function
         | Cpla_route.Verify.Edge_overflow _ | Cpla_route.Verify.Via_overflow _ -> false
         | _ -> true)
       report.Cpla_route.Verify.violations)

(* The checks on one optimised design: a clean audit, and no released-net
   timing worse than where the optimiser started. *)
let design_checks ~structural ~avg0 ~max0 ~avg1 ~max1 =
  List.concat
    [
      (if structural > 0 then [ Printf.sprintf "%d structural violations" structural ] else []);
      (if avg1 > avg0 then [ Printf.sprintf "Avg(Tcp) worse: %.2f -> %.2f" avg0 avg1 ] else []);
      (if max1 > max0 then [ Printf.sprintf "Max(Tcp) worse: %.2f -> %.2f" max0 max1 ] else []);
    ]

(* The command line prints Avg/Max(Tcp) with two decimals; the benchmark's
   own numbers must print the same. *)
let cli_checks ~cli:(cli_avg, cli_max) ~avg ~max =
  let show = Printf.sprintf "%.2f" in
  if show avg = cli_avg && show max = cli_max then []
  else
    [ Printf.sprintf "cli prints %s / %s, benchmark %s / %s" cli_avg cli_max (show avg) (show max) ]
