(** Batch-service job descriptions, terminal states, and manifest parsing.

    A job is one complete CPLA run — load (or generate) a design, route,
    initial-assign, optimise the released nets, audit — with its own
    configuration, scheduling priority, and optional wall-clock deadline.
    Jobs are pure descriptions; {!Scheduler} executes them. *)

type source =
  | File of string  (** ISPD'08 [.gr] file, read at run time *)
  | Bench of string  (** built-in suite benchmark name ({!Cpla_expt.Suite}) *)
  | Synth of Cpla_route.Synth.spec
      (** inline synthetic spec (benchmarks and tests; not expressible in
          manifests) *)

type spec = {
  id : int;  (** unique within a batch; manifests number jobs 0.. in order *)
  label : string;  (** human name for result lines *)
  source : source;
  config : Cpla.Config.t;
  priority : int;  (** higher runs earlier (default 0) *)
  deadline_s : float option;
      (** wall-clock budget measured from batch submission; expiry is
          detected at the driver's partition-solve boundaries *)
}

type metrics = {
  wirelength : int;  (** total assigned wirelength (from-scratch audit) *)
  avg_tcp : float;  (** Avg(Tcp) over the released nets *)
  max_tcp : float;  (** Max(Tcp) over the released nets *)
  via_overflow : int;
  edge_overflow : int;
  released : int;  (** released-net count *)
  wall_s : float;  (** job wall time, including load and audit *)
}

type terminal =
  | Done of metrics
      (** optimised and structurally clean under the {!Cpla_route.Verify}
          audit (capacity overflow is reported in [metrics], not failed —
          it is the paper's OV# column) *)
  | Failed of { error : string; partial : metrics option }
      (** raised, or failed the audit ([partial] carries the audited state
          when one was reachable) *)
  | Timed_out of { limit_s : float; partial : metrics option }
      (** deadline fired; [partial] measures the last consistent state *)
  | Cancelled of { partial : metrics option }  (** cancelled by the user *)

val is_ok : terminal -> bool

val status_string : terminal -> string
(** ["ok"], ["failed"], ["timed-out"] or ["cancelled"]. *)

val same_result : metrics -> metrics -> bool
(** Field-wise equality ignoring [wall_s] — the determinism contract
    between parallel and sequential execution of the same job. *)

val parse_manifest : ?default_deadline_s:float -> string -> (spec list, string) result
(** Parse a manifest: one job per line, [<file-or-bench> [key=value ...]],
    with [#] comments and blank lines skipped.  Keys: [method=sdp|ilp],
    [ratio=F], [priority=N], [deadline=S], [iters=N], [name=LABEL]; any
    other key is rejected as an unknown flag.  Jobs get ids
    0, 1, ... in manifest order.  [default_deadline_s] applies to jobs
    without an explicit [deadline=].  The first malformed line fails the
    whole parse (malformed manifests are configuration errors, unlike
    missing files which are per-job runtime failures). *)
