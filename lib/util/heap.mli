(** Binary min-heap of int values keyed by floats, used by the Dijkstra maze
    router.

    Keys and values are stored unboxed, so once the backing arrays have
    grown to the working size neither {!push} nor the pop path
    ({!min_key}, {!min_value}, {!remove_min}) allocates.  Entries with equal
    keys pop in an order fixed by the push sequence alone. *)

type t

val create : unit -> t

val is_empty : t -> bool

val clear : t -> unit
(** Drop every entry, keeping the backing arrays for reuse. *)

val push : t -> float -> int -> unit
(** Insert a value with the given priority. *)

val min_key : t -> float
(** Priority of the minimum entry.  @raise Invalid_argument when empty. *)

val min_value : t -> int
(** Value of the minimum entry.  @raise Invalid_argument when empty. *)

val remove_min : t -> unit
(** Remove the minimum entry.  @raise Invalid_argument when empty. *)
