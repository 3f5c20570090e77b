(** Phase-1 call/reference graph and purity inference.

    {!collect} walks one unit and records, per (pseudo-)function: the
    calls it makes (with argument labels, for [check-not-threaded]), the
    external value references it contains (for [unused-export]), and its
    local impurities.  {!build_of_facts} assembles the whole-program graph
    from the per-unit facts and runs the fixpoint that propagates the
    determinism-breaking impurity kinds through resolved call edges (for
    [impure-kernel]).

    Pseudo-functions: a named local closure ([let solve f = ...] inside a
    definition) and an anonymous kernel lambda each get their own key, so a
    [parallel_map solve xs] site can be checked against exactly the code
    that will run on worker domains. *)

open Ppxlib

type key = int * string list
(** Unit id plus value path; pseudo-function segments are bracketed
    (["<kernel:3>"], ["<local:solve:1>"]). *)

val mutator_ident : string list -> bool
(** In-place mutators whose first [Nolabel] argument is the structure
    written ([:=], [incr], [Hashtbl.replace], [Array.set], ...). *)

type kind =
  | Io  (** writes to a channel / reads input *)
  | Clock  (** reads wall or CPU time *)
  | Rand  (** draws from [Stdlib.Random]'s ambient state *)
  | Global_mut  (** writes top-level mutable state (Atomic exempt) *)

type witness = Direct of string * Location.t | Via of key * Location.t

type call = {
  callee : Symtab.resolved;
  arg_labels : arg_label list;
  call_loc : Location.t;
  in_loop : bool;  (** lexically inside a [for]/[while] body *)
}

type fn = {
  fn_key : key;
  fn_loc : Location.t;
  fn_params : arg_label list;
  mutable fn_calls : call list;
  mutable fn_imps : (kind * string * Location.t) list;
}

type kernel_site = {
  k_unit : int;
  k_prim : Symtab.primitive;
  k_loc : Location.t;
  k_target : key option;  (** [None] when the kernel could not be resolved *)
}

type unit_facts
(** One unit's slice of the graph: its (pseudo-)functions with their calls
    and local impurities, kernel launch sites, cross-unit value references
    and [include]s. *)

type t

val collect : Symtab.t -> Symtab.unit_info -> structure -> unit_facts
(** Walk one unit's AST against the run's assembled symtab. *)

val build_of_facts : Symtab.t -> unit_facts array -> t
(** Assemble the graph from per-unit facts, indexed by uid, and run the
    purity fixpoint.  Facts are inserted in uid order, so every
    iteration-order-dependent result is a deterministic function of the
    worklist. *)

val kinds : t -> key -> (kind * witness) list

val referenced : t -> key -> bool
(** Was this symbol referenced from any {e other} unit? *)

val included : t -> int -> bool
(** Is the whole unit re-exported via [include] somewhere? *)

val fns : t -> fn list

val kernels : t -> kernel_site list
(** [parallel_map] / [Domain.spawn] applications ([Pool.Persistent.submit]
    tasks are isolated jobs, deliberately not audited for purity). *)

val pretty_key : t -> key -> string

val describe_kind : t -> key -> kind -> string option
(** Human-readable impurity witness chain, e.g.
    ["reads the clock: calls Ilp_method.solve at ..., which reads
    Unix.gettimeofday at lib/ilp/solver.ml:60"]. *)
