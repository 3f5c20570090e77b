(* Process and machine facts from /proc, and child-process helpers. *)

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

(* Lines of a /proc pseudo-file (in_channel_length is 0 there). *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) of a process in MiB; [pid] defaults to self. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (read_lines path)
  in
  match kb with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

(* Run a program to completion and return its exit status and stdout. *)
let capture prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

(* The checked-out revision, when the tree is a git checkout. *)
let git_rev () =
  match capture "sh" [ "-c"; "git rev-parse --verify HEAD 2>/dev/null" ] with
  | Unix.WEXITED 0, out -> String.trim out
  | _ -> "unknown"
  | exception Unix.Unix_error _ -> "unknown"

let machine () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("git_rev", git_rev ());
  ]
