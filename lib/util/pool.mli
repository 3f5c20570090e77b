(** Deterministic parallel map over OCaml 5 domains.

    A fixed-size domain pool pulls indices from a shared counter, so
    independent work items of similar size balance well.  Output order is
    by input index, so results are deterministic regardless of scheduling
    (provided [f] itself is deterministic and does not share mutable state
    across items).  Batch and daemon jobs run on {!Persistent} instead. *)

exception Worker_failure of exn
(** Wraps the first exception raised by [f] on a pooled domain.  The
    sequential fast path ([workers <= 1] or fewer than two items) raises
    [f]'s exception unwrapped. *)

val parallel_map : workers:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~workers f xs] maps [f] over [xs] using up to [workers]
    domains ([workers <= 1] runs sequentially, in-domain).  Exceptions in
    [f] are re-raised in the caller after all domains join, wrapped in
    {!Worker_failure}. *)

val recommended_workers : unit -> int
(** [Domain.recommended_domain_count - 1], at least 1. *)

(** Per-domain state slots (domain-local storage).

    A slot holds one value per domain, created lazily by the initialiser on
    first access from that domain.  The driver keeps its reusable solver
    workspaces in a slot: each pool worker sees its own workspace across
    every job it picks up, with no synchronisation — the value never
    crosses domains. *)
module Slot : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** Declare a slot.  The initialiser runs once per domain, on that
      domain, at its first {!get}. *)

  val get : 'a t -> 'a
  (** This domain's value (initialising it if absent). *)
end

type probe = { wrap : 'a. name:string -> index:int -> (unit -> 'a) -> 'a }
(** Task-execution hook.  [wrap ~name ~index f] must run [f] exactly once
    (on the calling — i.e. worker — domain) and return its result,
    re-raising its exceptions unchanged.  [index] is the task's input index
    ({!parallel_map}) or submission sequence number ({!Persistent}). *)

val set_probe : probe -> unit
(** Install the hook every pool task runs through.  The pool sits below
    the observability library in the dependency order, so span wrapping is
    injected here by [Cpla_obs.Obs.set_enabled] rather than called
    directly. *)

val null_probe : probe
(** The identity hook (default): runs the task bare. *)

(** Persistent fixed-size worker pool.

    Unlike {!parallel_map} — which spawns domains per call and fails the
    whole batch on the first exception — a persistent pool keeps its
    domains alive across many independent submissions and isolates
    failures per task: an exception inside one task is captured in that
    task's result and the workers carry on.  This is the substrate of the
    batch-optimisation service ({!Cpla_serve.Scheduler}).

    Thread-safety: every operation may be called from any domain.  Tasks
    are executed in FIFO submission order (callers wanting a different
    policy order their submissions, e.g. by draining a priority queue). *)
module Persistent : sig
  type t
  (** A pool of worker domains and its pending-task queue. *)

  type 'a task
  (** Handle for one submitted unit of work. *)

  exception Cancelled
  (** Terminal result of a task revoked by {!cancel} (or discarded by an
      aborting {!shutdown}) before any worker claimed it.  Surfaced as
      [Error Cancelled] from {!await}, never raised by the pool itself. *)

  val create : workers:int -> t
  (** Spawn [workers] domains that block waiting for submissions.
      @raise Invalid_argument when [workers < 1]. *)

  val submit : t -> (unit -> 'a) -> 'a task
  (** Enqueue a task; returns immediately.
      @raise Invalid_argument after {!shutdown}. *)

  val await : t -> 'a task -> ('a, exn) result
  (** Block until the task is terminal: [Ok v] on success, [Error e] when
      the task raised [e] or was cancelled ([Error Cancelled]). *)

  val cancel : t -> 'a task -> bool
  (** Revoke a task that no worker has claimed yet; [true] when the
      cancellation won (the task settles as [Error Cancelled]).  [false]
      when the task already started or finished — in-flight work is only
      stoppable cooperatively (see {!Cpla_serve.Token}). *)

  val shutdown : ?drain:bool -> t -> unit
  (** Stop the pool and join its domains.  [drain] (default [true]) runs
      every pending task first; [~drain:false] discards pending tasks as
      [Error Cancelled] and joins as soon as in-flight tasks finish.
      Idempotent; awaiting any previously submitted task remains valid. *)
end
