(** Nested spans over the per-domain buffers.

    With observability disabled (the default) every entry point is a single
    atomic load and a tail call — no events, no allocation beyond the
    caller's closure. *)

val with_ :
  name:string ->
  ?args:(string * Event.arg) list ->
  ?result_args:('a -> (string * Event.arg) list) ->
  (unit -> 'a) ->
  'a
(** [with_ ~name f] runs [f] between a Begin and an End event on the calling
    domain's buffer.  [args] ride on the Begin event and [result_args]
    applied to [f]'s result on the End event (trace viewers merge the two);
    if [f] raises, the End event carries the exception under an ["exn"] arg
    and the exception is re-raised unchanged. *)

val instant : name:string -> ?args:(string * Event.arg) list -> unit -> unit
(** Record a point event (job submissions, terminal states). *)

val pool_probe : Cpla_util.Pool.probe
(** Task-wrapping probe for {!Cpla_util.Pool.set_probe}: spans each pool
    task on the worker domain that executes it, so parallelism is visible
    as per-domain tracks in the trace. *)
