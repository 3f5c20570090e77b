(* cpla_lint — static analyzer for the CPLA sources.

   Parses every .ml/.mli under the given paths with ppxlib, builds a
   project-wide symbol table and call graph, and enforces the project's
   domain-safety / determinism / hygiene rules (see `--rules` or
   DESIGN.md).  Paths not being linted are still loaded as resolution
   context, so a partial lint sees the whole project.  Every run is one
   cold pass over the sources.  Exit status: 0 clean, 1 findings, 124
   usage/IO error — so CI can gate on it. *)

open Cmdliner

type format = Human | Json | Github | Sarif

let render = function
  | Human -> Cpla_lint.Report.human
  | Json -> Cpla_lint.Report.json
  | Github -> Cpla_lint.Report.github
  | Sarif -> Cpla_lint.Report.sarif

(* machine formats must stay well-formed even on a clean tree *)
let render_empty fmt formatter =
  match fmt with
  | Human -> Format.fprintf formatter "cpla-lint: 0 findings@."
  | f -> render f formatter []

let parse_filter filter =
  match filter with
  | None -> Ok None
  | Some spec ->
      let ids =
        String.split_on_char ',' spec |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let unknown = List.filter (fun id -> not (Cpla_lint.Rule.known id)) ids in
      if ids = [] then Error "empty --filter"
      else if unknown <> [] then
        Error
          (Printf.sprintf "unknown rule id(s) in --filter: %s (see --rules)"
             (String.concat ", " unknown))
      else Ok (Some ids)

let run fmt filter list_rules paths =
  if list_rules then begin
    Cpla_lint.Report.rules Format.std_formatter;
    0
  end
  else
    match parse_filter filter with
    | Error msg ->
        Format.eprintf "cpla-lint: %s@." msg;
        124
    | Ok filter -> (
        match Cpla_lint.Engine.lint_paths paths with
        | all -> (
            let findings =
              match filter with
              | None -> all
              | Some ids -> List.filter (fun f -> List.mem f.Cpla_lint.Finding.rule ids) all
            in
            match findings with
            | [] ->
                render_empty fmt Format.std_formatter;
                0
            | findings ->
                render fmt Format.std_formatter findings;
                1)
        | exception Sys_error msg ->
            Format.eprintf "cpla-lint: %s@." msg;
            124)

let fmt =
  let fmt_conv =
    Arg.enum [ ("human", Human); ("json", Json); ("github", Github); ("sarif", Sarif) ]
  in
  Arg.(
    value & opt fmt_conv Human
    & info [ "format" ]
        ~doc:
          "Output format: $(b,human), $(b,json), $(b,github) (workflow-command \
           annotations) or $(b,sarif) (SARIF 2.1.0).")

let filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "filter" ] ~docv:"RULE_ID[,...]"
        ~doc:"Only report findings from the given comma-separated rule ids.")

let list_rules =
  Arg.(
    value & flag
    & info [ "rules" ]
        ~doc:
          "List the rule registry (with each rule's file-local vs whole-program \
           analysis tier) and exit.")

let paths =
  Arg.(
    value
    & pos_all string [ "lib"; "bin"; "bench"; "test" ]
    & info [] ~docv:"PATH"
        ~doc:"Files or directories to lint (default: lib bin bench test).")

let cmd =
  let doc = "static analysis for the CPLA sources" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Enforces the project's domain-safety, determinism and hygiene \
         invariants.  File-local rules run on each .ml alone; whole-program \
         rules (domain-race, impure-kernel, unused-export, \
         check-not-threaded) run over a project-wide symbol table and call \
         graph built from every source under $(i,PATH) plus the default \
         roots.  Suppress a single finding with a [@cpla.allow \
         \"rule-id\"] attribute on the offending expression or let-binding \
         (for domain-race: at the capture or the creation site), or a whole \
         file with [@@@cpla.allow \"rule-id\"].";
      `S Manpage.s_exit_status;
      `P "0 on a clean tree, 1 when there are findings, 124 on IO errors.";
    ]
  in
  Cmd.v
    (Cmd.info "cpla_lint" ~doc ~man ~exits:[])
    Term.(const run $ fmt $ filter $ list_rules $ paths)

let () = exit (Cmd.eval' cmd)
