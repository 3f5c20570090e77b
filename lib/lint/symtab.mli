(** Phase-1 whole-program symbol table.

    Each compilation unit's top-level (and nested-module) value definitions
    with a shared-mutability classification and its [.mli] export list are
    recorded as AST-free {!unit_info} metadata; longidents resolve against
    the project's module structure — dune-wrapped library names
    ([Cpla_util.Pool.parallel_map]), same-library siblings ([Elmore.analyze]
    from [lib/timing]), [open]s and module aliases.

    Construction comes in two steps: {!parse_source} produces one unit's
    metadata plus its AST, and {!assemble} indexes the full ordered unit
    list, assigning positional uids. *)

open Ppxlib

type source = {
  src_path : string;  (** project-relative path, e.g. ["lib/util/pool.ml"] *)
  contents : string;
  linted : bool;  (** findings are only emitted for linted sources *)
}

type def = {
  def_path : string list;  (** e.g. [["Persistent"; "submit"]] *)
  def_loc : Location.t;
  def_params : arg_label list;  (** labels of the leading [fun] parameters *)
  def_mut : string option;
      (** [Some kind] when the binding evaluates to a value with mutable
          contents shared by everyone who reaches it (ref, Hashtbl, Buffer,
          Queue, Stack, array, bytes, mutable-record literal).  [Atomic] and
          the synchronisation primitives are exempt. *)
}

type export = {
  exp_path : string list;
  exp_loc : Location.t;
  exp_suppressed : bool;  (** [[\@\@cpla.allow "unused-export"]] on the val *)
}

type unit_info = {
  uid : int;  (** positional; assigned by {!assemble} *)
  path : string;
  area : Checks.area;
  lib : string option;  (** wrapped library module name, e.g. ["Cpla_util"] *)
  modname : string;  (** unit module name, e.g. ["Pool"] *)
  parsed : bool;
  parse_exn : string option;
  has_intf : bool;
  intf_path : string option;
  exports : export list;
  intf_bad_allows : (string option * Location.t) list;
      (** unknown rule id ([Some id]) or malformed payload ([None]) in the
          [.mli]'s [\@cpla.allow] attributes *)
  intf_parse_exn : string option;  (** the [.mli] exists but does not parse *)
  defs : def list;
  linted : bool;
}

type t

val parse_source : source -> intf:source option -> unit_info * structure
(** Parse one implementation and its optional interface into metadata plus
    the AST.  A file that fails to parse still yields an entry (with
    [parsed = false] and an empty structure) so the engine can report it.
    [uid] is a placeholder until {!assemble}.  Parsing uses compiler-libs'
    global lexer state — callers must not invoke this from multiple
    domains. *)

val assemble : unit_info list -> t
(** Index an ordered unit list, assigning [uid = position]. *)

val unit : t -> int -> unit_info

val n_units : t -> int

val find_def : unit_info -> string list -> def option

(** {2 Resolution} *)

type resolved =
  | Sym of int * string list  (** unit id, value path within that unit *)
  | Ext of string list  (** canonical path of an external (non-project) name *)
  | Local of string  (** shadowed by a local binding of the walker's scope *)

type env
(** Per-position resolution context: the [open]s and module aliases in
    force.  Walkers thread it through the traversal. *)

val env0 : env

val push_open : env -> Longident.t -> env

val push_alias : env -> string -> Longident.t -> env
(** [push_alias env "Pool" lid] records [module Pool = <lid>]. *)

val resolve :
  t -> cur:unit_info -> mpath:string list -> locals:(string -> bool) -> env -> Longident.t -> resolved
(** [mpath] is the walker's current nested-module path within [cur] (so
    unqualified names inside [module Persistent = struct .. end] resolve to
    [Persistent.x] first); [locals] says whether a name is bound in an
    enclosing [let]/parameter scope (locals shadow unit-level defs). *)

val resolve_unit : t -> cur:unit_info -> env -> Longident.t -> int option
(** Resolve a module path ([include M], alias targets) to a unit. *)

(** {2 Parallel primitives} *)

type primitive = Parallel_map | Pool_submit | Domain_spawn

val primitive_name : primitive -> string

val primitive_of_resolved : t -> resolved -> primitive option
(** Recognises [Pool.parallel_map] / [Pool.Persistent.submit] /
    [Domain.spawn] whether resolved to the project's own [Pool] unit or
    left external (so fixture projects without a real [Pool] still match). *)

val kernel_position : primitive -> int
(** Index, among the [Nolabel] arguments, of the function the primitive
    runs on another domain. *)

(** {2 Shared classifiers} *)

val mutable_fields_of : structure -> (string, unit) Hashtbl.t
val classify_rhs : (string, unit) Hashtbl.t -> expression -> string option
val params_of : expression -> arg_label list

(** Leading [fun] parameters with the bound name when the pattern is a
    plain variable. *)
val fun_params : expression -> (arg_label * string option * Location.t) list
val pattern_names : pattern -> (string * Location.t) list
val string_of_path : string list -> string
