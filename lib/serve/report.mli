(** Result-line and summary formatting for the serve subcommand. *)

val line : Job.spec -> Job.terminal -> string
(** One streaming result line, e.g.
    [job 0   adaptec1  ok  wl=... avg=... max=... ov=... edge_ov=... rel=... wall=...s].
    Always starts with ["job "] so scripts (and the CI smoke test) can
    count result lines with [grep -c '^job ']. *)

val summary : (Job.spec * Job.terminal) array -> string
(** One-line batch summary, prefixed ["serve:"]. *)

val all_ok : (Job.spec * Job.terminal) array -> bool
(** Whether every job finished [Done] — the process exit criterion. *)
