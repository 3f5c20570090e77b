(** Blocking daemon client ([cpla submit], tests, benchmarks).

    One TCP connection, synchronous: {!recv} blocks for the next
    incoming message (response or job event); {!call} and
    {!await_terminal} layer the common request/response and
    event-streaming patterns on top.

    Not domain-safe: one client per domain. *)

type t

val connect : ?timeout_s:float -> host:string -> port:int -> unit -> t
(** Connect, retrying refused connections until [timeout_s] (default
    10 s) has elapsed — covers racing a daemon that is still binding.
    @raise Unix.Unix_error when the connection cannot be established. *)

val close : t -> unit
(** Idempotent. *)

val recv : ?timeout_s:float -> t -> (Protocol.incoming, string) result
(** Block for the next message.  [Error] covers malformed frames, server
    close, and — when [timeout_s] is given — expiry of the wait. *)

val call :
  ?timeout_s:float ->
  ?trace:string ->
  ?on_event:(Protocol.event -> unit) ->
  t ->
  Protocol.req ->
  (Protocol.response, string) result
(** Assign the next request id, send, and block until the matching
    response arrives.  Job events received while waiting go to
    [on_event] (they belong to this connection's earlier submissions).
    [timeout_s] bounds each individual wait, not the whole exchange. *)

val await_terminal :
  ?timeout_s:float ->
  ?on_event:(Protocol.event -> unit) ->
  t ->
  job:int ->
  (Cpla_serve.Job.terminal, string) result
(** Consume the event stream until [job] reaches a terminal state and
    reconstruct it ({!Protocol.terminal_of_event}).  [on_event] sees
    every event of [job], the terminal one included; other jobs' events
    and stray responses are skipped. *)
