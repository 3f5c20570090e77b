type source =
  | File of string
  | Bench of string
  | Synth of Cpla_route.Synth.spec

type spec = {
  id : int;
  label : string;
  source : source;
  config : Cpla.Config.t;
  priority : int;
  deadline_s : float option;
}

type metrics = {
  wirelength : int;
  avg_tcp : float;
  max_tcp : float;
  via_overflow : int;
  edge_overflow : int;
  released : int;
  wall_s : float;
}

type terminal =
  | Done of metrics
  | Failed of { error : string; partial : metrics option }
  | Timed_out of { limit_s : float; partial : metrics option }
  | Cancelled of { partial : metrics option }

let is_ok = function Done _ -> true | Failed _ | Timed_out _ | Cancelled _ -> false

let status_string = function
  | Done _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed-out"
  | Cancelled _ -> "cancelled"

let source_label = function File path -> path | Bench name -> name | Synth s -> s.Cpla_route.Synth.name

(* Metrics equality for the "parallel == sequential" contract.  Wall time is
   scheduling-dependent by nature and excluded. *)
let same_result a b =
  a.wirelength = b.wirelength
  && a.avg_tcp = b.avg_tcp
  && a.max_tcp = b.max_tcp
  && a.via_overflow = b.via_overflow
  && a.edge_overflow = b.edge_overflow
  && a.released = b.released

(* ---- manifest parsing ---------------------------------------------------- *)

(* One job per line:  <file-or-bench> [key=value ...]
   Keys: method=sdp|ilp  ratio=F  priority=N  deadline=S  iters=N
   name=LABEL.  '#' starts a comment; blank lines are skipped.  A target
   containing '/' or ending in ".gr" is a file path (checked at run time so
   a missing file fails only its own job); anything else names a built-in
   suite benchmark. *)

let classify_target target =
  if String.contains target '/' || Filename.check_suffix target ".gr" then File target
  else Bench target

let parse_line ~lineno ~id ~default_deadline_s line =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "manifest line %d: %s" lineno m)) fmt in
  let line = String.map (fun c -> if c = '\t' then ' ' else c) line in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] -> Ok None
  | target :: flags ->
      if String.contains target '=' then
        fail "line must start with a file path or benchmark name, got %S" target
      else begin
        let config = ref Cpla.Config.default in
        let priority = ref 0 in
        let deadline = ref default_deadline_s in
        let label = ref (source_label (classify_target target)) in
        let parse_flag flag =
          match String.index_opt flag '=' with
          | None -> fail "expected key=value, got %S" flag
          | Some i ->
              let key = String.sub flag 0 i in
              let v = String.sub flag (i + 1) (String.length flag - i - 1) in
              let pos_int name =
                match int_of_string_opt v with
                | Some n when n > 0 -> Ok n
                | _ -> fail "%s must be a positive integer, got %S" name v
              in
              (match key with
              | "method" -> (
                  match v with
                  | "sdp" ->
                      config := { !config with Cpla.Config.method_ = Cpla.Config.Sdp };
                      Ok ()
                  | "ilp" ->
                      config := { !config with Cpla.Config.method_ = Cpla.Config.Ilp };
                      Ok ()
                  | _ -> fail "method must be sdp or ilp, got %S" v)
              | "ratio" -> (
                  match float_of_string_opt v with
                  | Some r when r > 0.0 && r <= 1.0 ->
                      config := { !config with Cpla.Config.critical_ratio = r };
                      Ok ()
                  | _ -> fail "ratio must be in (0, 1], got %S" v)
              | "priority" -> (
                  match int_of_string_opt v with
                  | Some p ->
                      priority := p;
                      Ok ()
                  | None -> fail "priority must be an integer, got %S" v)
              | "deadline" -> (
                  match float_of_string_opt v with
                  | Some d when d >= 0.0 ->
                      deadline := Some d;
                      Ok ()
                  | _ -> fail "deadline must be a non-negative number of seconds, got %S" v)
              | "iters" ->
                  Result.map
                    (fun n -> config := { !config with Cpla.Config.max_outer_iters = n })
                    (pos_int "iters")
              | "name" ->
                  label := v;
                  Ok ()
              | _ -> fail "unknown flag %S (known: method ratio priority deadline iters name)" key)
        in
        let rec apply = function
          | [] ->
              Ok
                (Some
                   {
                     id;
                     label = !label;
                     source = classify_target target;
                     config = !config;
                     priority = !priority;
                     deadline_s = !deadline;
                   })
          | flag :: rest -> (
              match parse_flag flag with Ok () -> apply rest | Error _ as e -> e)
        in
        apply flags
      end

let parse_manifest ?default_deadline_s text =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno id acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        match parse_line ~lineno ~id ~default_deadline_s line with
        | Ok None -> go (lineno + 1) id acc rest
        | Ok (Some spec) -> go (lineno + 1) (id + 1) (spec :: acc) rest
        | Error _ as e -> e)
  in
  go 1 0 [] lines
