(** Scheduling-policy priority queue for ready jobs.

    Pop order is: higher [priority] first; within a priority level, lower
    [cost] first (shortest-expected-first, which minimises mean completion
    time for same-priority jobs); remaining ties resolve FIFO by insertion
    order.  Not thread-safe — the scheduler drains it before handing work
    to the domain pool. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val add : 'a t -> priority:int -> cost:float -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the next job by the policy above. *)

val drain : 'a t -> 'a list
(** Pop everything, in policy order. *)
