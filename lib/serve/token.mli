(** Cooperative cancellation tokens with wall-clock deadlines.

    A token is the channel between the scheduler (which cancels jobs and
    arms deadlines) and the optimisation loop (which polls {!check} at
    partition-solve boundaries via {!Cpla.Driver.optimize_released}'s
    [check] hook).  Cancellation is cooperative: nothing is interrupted
    until the running code polls.

    Domain-safe: {!cancel} and the polling functions may race from
    different domains; the first observed cause (user cancel or deadline
    expiry) is latched and reported consistently ever after. *)

type reason =
  | User      (** {!cancel} was called *)
  | Deadline  (** the wall-clock deadline elapsed *)

exception Cancelled of reason

type t

val create : ?deadline_s:float -> unit -> t
(** A live token.  [deadline_s] arms a wall-clock deadline that many
    seconds from now ([0.] expires on the first poll).
    @raise Invalid_argument on a negative deadline. *)

val cancel : t -> unit
(** Request cancellation.  No-op if the token already fired. *)

val cancelled : t -> bool
(** Whether the token has fired (either cause). *)

val status : t -> reason option
(** The latched cause, if any.  Polling this (or {!cancelled}/{!check})
    is what detects deadline expiry. *)

val check : t -> unit
(** @raise Cancelled when the token has fired.  This is the closure to
    pass as the driver's [check] hook. *)
