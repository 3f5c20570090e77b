(** Binary min-heap of int values keyed by floats, used by the Dijkstra maze
    router.

    Keys move in and out through float arrays rather than as float
    arguments and results: a float that crosses a call that is not inlined
    is boxed, and dune's default profile ([-opaque]) inlines nothing across
    libraries.  Keys and values are stored unboxed, so once the backing
    arrays have grown to the working size neither {!push_from} nor
    {!pop_into} allocates.  Entries with equal keys pop in an order fixed by
    the push sequence alone. *)

type t

val create : unit -> t

val is_empty : t -> bool

val clear : t -> unit
(** Drop every entry, keeping the backing arrays for reuse. *)

val push_from : t -> float array -> int -> unit
(** [push_from t keys v] inserts the value [v] with priority [keys.(v)]. *)

val pop_into : t -> float array -> int -> int
(** [pop_into t dst i] removes the minimum entry, stores its priority in
    [dst.(i)] and returns its value.  @raise Invalid_argument when empty. *)
