(** Dense float vectors.

    Thin wrappers over [float array] providing the handful of BLAS-1 style
    operations the solvers need; all operations are bounds-checked (the
    prefix variants once per call, against [n]) and allocate only where
    documented. *)

type t = float array

val create : int -> t
(** Zero vector of the given length. *)

val copy : t -> t

val dot : t -> t -> float
(** Inner product.  Raises [Invalid_argument] on length mismatch. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Maximum absolute entry; 0 on the empty vector. *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] sets [y <- alpha*x + y] in place. *)

val scale : float -> t -> unit
(** In-place scalar multiply. *)

val sub : t -> t -> t
(** Fresh [x - y]. *)

(** {1 Prefix variants}

    Allocation-free counterparts operating on the first [n] cells of
    (possibly larger) workspace buffers, for the batched SoA kernels.  Each
    performs the same floating-point operations in the same order as its
    whole-array sibling, so porting a kernel onto them is bitwise
    result-preserving.  All raise [Invalid_argument] when [n] exceeds a
    buffer's capacity. *)

val dot_n : int -> t -> t -> float
(** [dot_n n x y] is the inner product of the first [n] cells. *)

val norm_inf_n : int -> t -> float
(** Maximum absolute entry among the first [n] cells; 0 when [n = 0]. *)

val axpy_n : alpha:float -> int -> t -> t -> unit
(** [axpy_n ~alpha n x y] sets [y.(i) <- alpha*x.(i) + y.(i)] for [i < n]. *)

val scale_n : float -> int -> t -> unit
(** In-place scalar multiply of the first [n] cells. *)

val copy_n : int -> t -> t -> unit
(** [copy_n n src dst] blits the first [n] cells of [src] into [dst]. *)

val fill_n : int -> t -> float -> unit
(** [fill_n n x v] sets the first [n] cells to [v]. *)

val sub_n : int -> t -> t -> t -> unit
(** [sub_n n x y dst] writes [x - y] into [dst], first [n] cells. *)
