(* The run's result: the catalog's metrics with their measured values, as
   comment lines for people and a final JSON line for tools. *)

(* Pair each catalog entry with its value; entries the workload did not
   produce read 0, and a value outside the catalog is a benchmark bug. *)
let complete catalog values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then invalid_arg ("metric not in the catalog: " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      (name, unit_, Option.value ~default:0.0 (List.assoc_opt name values)))
    catalog

let json ~outcome metrics =
  let module J = Cpla_net.Json in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (finite && outcome.Outcome.failed = 0));
         ("attempted", J.Num (float_of_int outcome.Outcome.attempted));
         ("failed", J.Num (float_of_int outcome.Outcome.failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit_, v) ->
                  ( name,
                    J.Obj
                      [
                        ("value", J.Num (if Float.is_finite v then v else 0.0));
                        ("unit", J.Str unit_);
                      ] ))
                metrics) );
       ])

let header run =
  Printf.printf "# %s %s\n%!" run
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (Proc.machine ())))

(* The wall time of every pass, in the order they ran. *)
let pass_walls walls =
  Printf.printf "# pass_walls_s %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") walls)))

(* A traced pass's time by span name, from {!Spans.self_table}. *)
let self_table title spans =
  Printf.printf "# %s: %-22s %7s %12s %12s\n" title "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "# %s: %-22s %7d %12.6f %12.6f\n" title name n (Spans.seconds total)
        (Spans.seconds self))
    (Spans.self_table spans)

let print ~outcome metrics =
  List.iter (fun (name, unit_, v) -> Printf.printf "# %-28s %18.6f %s\n" name v unit_) metrics;
  List.iter (fun r -> Printf.printf "# FAILED %s\n" r) (Outcome.reasons outcome);
  print_endline (json ~outcome metrics)
