(** Deterministic pseudo-random number generation.

    All stochastic parts of the library (synthetic benchmark generation,
    randomised tests, solver perturbation) draw from this SplitMix64-based
    generator so that every experiment is reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    streams are statistically independent. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val fill_gaussian : t -> float array -> n:int -> scale:float -> unit
(** [fill_gaussian t a ~n ~scale] writes [n] scaled standard-normal deviates
    into [a.(0..n-1)] without allocating: the draw sequence (and bit
    pattern) equals [n] calls of [gaussian t] each multiplied by [scale]. *)

val shuffle : t -> 'a array -> unit
  [@@cpla.allow "unused-export"]
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
