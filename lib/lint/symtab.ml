open Ppxlib

(* ---- sources -------------------------------------------------------------- *)

type source = { src_path : string; contents : string; linted : bool }

(* ---- defs / exports ------------------------------------------------------- *)

type def = {
  def_path : string list;
  def_loc : Location.t;
  def_params : arg_label list;
  def_mut : string option;
}

type export = {
  exp_path : string list;
  exp_loc : Location.t;
  exp_suppressed : bool;
}

(* [unit_info] is the AST-free per-unit metadata.  [uid] is positional:
   {!parse_source} leaves a placeholder and {!assemble} assigns it. *)
type unit_info = {
  uid : int;
  path : string;
  area : Checks.area;
  lib : string option;
  modname : string;
  parsed : bool;
  parse_exn : string option;
  has_intf : bool;
  intf_path : string option;
  exports : export list;
  intf_bad_allows : (string option * Location.t) list;
      (** unknown / malformed [\@cpla.allow] payloads found in the [.mli] *)
  intf_parse_exn : string option;
  defs : def list;
  linted : bool;
}

type t = {
  units : unit_info array;
  by_lib : (string * string, int) Hashtbl.t;
  libs : (string, unit) Hashtbl.t;
}

(* ---- naming conventions --------------------------------------------------- *)

(* The repo follows dune's directory-to-library convention: [lib/cpla] is the
   wrapped module [Cpla], every other [lib/<d>] is [Cpla_<d>].  Deriving the
   wrapped name from the path (instead of parsing dune files) keeps in-memory
   fixture projects resolvable with the same rules. *)
let library_of_segments = function
  | "lib" :: dir :: _ :: _ ->
      (* dune only capitalizes the first letter: lib/lint -> Cpla_lint *)
      if String.equal dir "cpla" then Some "Cpla"
      else Some (String.capitalize_ascii ("cpla_" ^ dir))
  | _ -> None

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

(* ---- mutability classification -------------------------------------------- *)

let domain_safe lid =
  match Checks.strip_stdlib (Checks.flatten lid) with
  | "Atomic" :: _ | "Mutex" :: _ | "Condition" :: _ | "Semaphore" :: _ -> true
  | _ -> false

(* Constructors of values whose contents can change after creation.  [Atomic]
   and the synchronisation primitives are exempt: they are the sanctioned
   cross-domain mechanisms. *)
let mutable_creator lid =
  match Checks.strip_stdlib (Checks.flatten lid) with
  | [ "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] -> Some "Hashtbl"
  | [ "Buffer"; "create" ] -> Some "Buffer"
  | [ "Queue"; "create" ] -> Some "Queue"
  | [ "Stack"; "create" ] -> Some "Stack"
  | [ "Array"; ("make" | "create" | "init" | "copy" | "append" | "sub" | "of_list" | "make_matrix") ]
    ->
      Some "array"
  | [ "Bytes"; ("create" | "make" | "of_string" | "copy" | "init" | "sub") ] -> Some "bytes"
  | _ -> None

(* Mutable-record field names declared in a structure; a literal with one of
   these fields is as mutable as a [ref]. *)
let mutable_fields_of str =
  let fields = Hashtbl.create 16 in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! type_declaration td =
        (match td.ptype_kind with
        | Ptype_record lds ->
            List.iter
              (fun ld -> if ld.pld_mutable = Mutable then Hashtbl.replace fields ld.pld_name.txt ())
              lds
        | _ -> ());
        super#type_declaration td
    end
  in
  it#structure str;
  fields

(* Does the right-hand side of a binding evaluate, at bind time, to a value
   with mutable contents?  Walks below lets/sequences but not below functions
   or [lazy] (those allocate per call/force). *)
let rec classify_rhs mutable_fields (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      if domain_safe txt then None else mutable_creator txt
  | Pexp_array _ -> Some "array"
  | Pexp_record (fields, _) ->
      if
        List.exists
          (fun (({ txt; _ } : Longident.t loc), _) ->
            Hashtbl.mem mutable_fields (Checks.last (Checks.flatten txt)))
          fields
      then Some "mutable record"
      else None
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) | Pexp_open (_, body) -> classify_rhs mutable_fields body
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> classify_rhs mutable_fields e
  | Pexp_ifthenelse (_, a, Some b) -> (
      match classify_rhs mutable_fields a with
      | Some k -> Some k
      | None -> classify_rhs mutable_fields b)
  | _ -> None

(* ---- def collection ------------------------------------------------------- *)

let rec params_of (e : expression) =
  match e.pexp_desc with
  | Pexp_function (ps, _, body) ->
      let here =
        List.filter_map
          (fun p -> match p.pparam_desc with Pparam_val (l, _, _) -> Some l | Pparam_newtype _ -> None)
          ps
      in
      let rest =
        match body with
        | Pfunction_body ({ pexp_desc = Pexp_function _; _ } as inner) -> params_of inner
        | Pfunction_body _ -> []
        | Pfunction_cases _ -> [ Nolabel ]
      in
      here @ rest
  | Pexp_newtype (_, body) -> params_of body
  | _ -> []

(* Leading [fun] parameters with their bound names (None for tuple or
   wildcard patterns). *)
let rec fun_params (e : expression) =
  match e.pexp_desc with
  | Pexp_function (ps, _, body) ->
      let here =
        List.filter_map
          (fun p ->
            match p.pparam_desc with
            | Pparam_val (l, _, pat) ->
                let name =
                  match pat.ppat_desc with
                  | Ppat_var v -> Some v.txt
                  | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) -> Some v.txt
                  | _ -> None
                in
                Some (l, name, p.pparam_loc)
            | Pparam_newtype _ -> None)
          ps
      in
      let rest =
        match body with
        | Pfunction_body ({ pexp_desc = Pexp_function _; _ } as inner) -> fun_params inner
        | _ -> []
      in
      here @ rest
  | Pexp_newtype (_, body) -> fun_params body
  | _ -> []

let rec pattern_names (p : pattern) =
  match p.ppat_desc with
  | Ppat_var v -> [ (v.txt, p.ppat_loc) ]
  | Ppat_alias (inner, v) -> (v.txt, p.ppat_loc) :: pattern_names inner
  | Ppat_constraint (inner, _) -> pattern_names inner
  | Ppat_tuple ps -> List.concat_map pattern_names ps
  | _ -> []

let defs_of_structure str =
  let mutable_fields = mutable_fields_of str in
  let defs = ref [] in
  let rec items prefix is = List.iter (item prefix) is
  and item prefix (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            match pattern_names vb.pvb_pat with
            | [ (name, loc) ] ->
                defs :=
                  {
                    def_path = prefix @ [ name ];
                    def_loc = loc;
                    def_params = params_of vb.pvb_expr;
                    def_mut = classify_rhs mutable_fields vb.pvb_expr;
                  }
                  :: !defs
            | names ->
                List.iter
                  (fun (name, loc) ->
                    defs :=
                      { def_path = prefix @ [ name ]; def_loc = loc; def_params = []; def_mut = None }
                      :: !defs)
                  names)
          vbs
    | Pstr_module mb -> module_binding prefix mb
    | Pstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | Pstr_include inc -> module_expr prefix inc.pincl_mod
    | _ -> ()
  and module_binding prefix (mb : module_binding) =
    match mb.pmb_name.txt with
    | Some name -> module_expr (prefix @ [ name ]) mb.pmb_expr
    | None -> ()
  and module_expr prefix (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure is -> items prefix is
    | Pmod_constraint (me, _) -> module_expr prefix me
    | _ -> ()
  in
  items [] str;
  List.rev !defs

(* ---- exports (from the .mli) ---------------------------------------------- *)

let exports_of_signature sg =
  let bad = ref [] in
  let malformed loc = bad := (None, loc) :: !bad in
  let file_allowed =
    List.concat_map
      (fun (si : signature_item) ->
        match si.psig_desc with
        | Psig_attribute a -> List.map fst (Checks.allow_ids ~malformed:(fun _ -> ()) [ a ])
        | _ -> [])
      sg
  in
  let exports = ref [] in
  let allow_on attrs =
    let ids = Checks.allow_ids ~malformed attrs in
    List.iter (fun (id, loc) -> if not (Rule.known id) then bad := (Some id, loc) :: !bad) ids;
    List.exists (fun (id, _) -> String.equal id "unused-export") ids
  in
  let rec items prefix sg = List.iter (item prefix) sg
  and item prefix (si : signature_item) =
    match si.psig_desc with
    | Psig_value vd ->
        exports :=
          {
            exp_path = prefix @ [ vd.pval_name.txt ];
            exp_loc = vd.pval_name.loc;
            exp_suppressed =
              allow_on vd.pval_attributes || List.mem "unused-export" file_allowed;
          }
          :: !exports
    | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } -> module_type (prefix @ [ name ]) pmd_type
    | _ -> ()
  and module_type prefix (mt : module_type) =
    match mt.pmty_desc with
    | Pmty_signature sg -> items prefix sg
    | _ -> ()
  in
  items [] sg;
  (List.rev !exports, List.rev !bad, file_allowed)

(* ---- parsing -------------------------------------------------------------- *)

(* NOTE: compiler-libs' lexer keeps global mutable buffers, so parsing must
   stay on one domain; the per-file *analysis* over the resulting ASTs is
   what the engine parallelises. *)
let parse_impl ~filename contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf filename;
  Parse.implementation lexbuf

let parse_intf ~filename contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf filename;
  Parse.interface lexbuf

(* Parse one implementation (plus its optional interface) into AST-free unit
   metadata and the AST itself.  [uid] is a placeholder until {!assemble}. *)
let parse_source (s : source) ~(intf : source option) =
  let scope = Checks.scope_of_path s.src_path in
  let str, parsed, parse_exn =
    match parse_impl ~filename:scope.Checks.path s.contents with
    | str -> (str, true, None)
    | exception e ->
        Cpla_util.Exn.reraise_if_async e;
        ([], false, Some (Printexc.to_string e))
  in
  let exports, intf_bad_allows, intf_parse_exn =
    match intf with
    | None -> ([], [], None)
    | Some i -> (
        let ipath = (Checks.scope_of_path i.src_path).Checks.path in
        match parse_intf ~filename:ipath i.contents with
        | sg ->
            let exports, bad, _ = exports_of_signature sg in
            (exports, bad, None)
        | exception e ->
            Cpla_util.Exn.reraise_if_async e;
            ([], [], Some (Printexc.to_string e)))
  in
  ( {
      uid = -1;
      path = scope.Checks.path;
      area = scope.Checks.area;
      lib = library_of_segments scope.Checks.segments;
      modname = modname_of_path s.src_path;
      parsed;
      parse_exn;
      has_intf = intf <> None;
      intf_path =
        Option.map (fun (i : source) -> (Checks.scope_of_path i.src_path).Checks.path) intf;
      exports;
      intf_bad_allows;
      intf_parse_exn;
      defs = defs_of_structure str;
      linted = s.linted;
    },
    str )

let assemble (units : unit_info list) =
  let units = Array.of_list units in
  let units = Array.mapi (fun uid u -> { u with uid }) units in
  let by_lib = Hashtbl.create 64 in
  let libs = Hashtbl.create 16 in
  Array.iter
    (fun u ->
      match u.lib with
      | Some l ->
          Hashtbl.replace libs l ();
          Hashtbl.replace by_lib (l, u.modname) u.uid
      | None -> ())
    units;
  { units; by_lib; libs }

let unit t uid = t.units.(uid)

let n_units t = Array.length t.units

let find_def u path = List.find_opt (fun d -> d.def_path = path) u.defs

(* ---- resolution ----------------------------------------------------------- *)

type resolved =
  | Sym of int * string list
  | Ext of string list
  | Local of string

type env = { opens : string list list; aliases : (string * string list) list }

let env0 = { opens = []; aliases = [] }

let rec expand_alias env parts =
  match parts with
  | head :: tl -> (
      match List.assoc_opt head env.aliases with
      | Some target -> expand_alias { env with aliases = List.remove_assoc head env.aliases } (target @ tl)
      | None -> parts)
  | [] -> parts

let push_open env lid =
  let parts = expand_alias env (Checks.strip_stdlib (Checks.flatten lid)) in
  { env with opens = parts :: env.opens }

let push_alias env name lid =
  let parts = expand_alias env (Checks.strip_stdlib (Checks.flatten lid)) in
  { env with aliases = (name, parts) :: env.aliases }

(* [try_direct] maps a canonical path to an internal symbol:
   library-qualified ([Cpla_util; Pool; x]), same-library sibling
   ([Elmore; x] from another lib/timing unit), or own-unit ([x] or
   [Nested; x], tried against the walker's current module path first). *)
let try_direct t ~(cur : unit_info) ~mpath parts =
  match parts with
  | [] -> None
  | head :: tl -> (
      if Hashtbl.mem t.libs head then
        match tl with
        | m :: rest when rest <> [] -> (
            match Hashtbl.find_opt t.by_lib (head, m) with
            | Some uid -> Some (Sym (uid, rest))
            | None -> None)
        | _ -> None
      else
        let sibling () =
          match cur.lib with
          | Some l when tl <> [] && not (String.equal head cur.modname) -> (
              match Hashtbl.find_opt t.by_lib (l, head) with
              | Some uid -> Some (Sym (uid, tl))
              | None -> None)
          | _ -> None
        in
        let own () =
          let candidates = if mpath = [] then [ parts ] else [ mpath @ parts; parts ] in
          List.find_map
            (fun p -> if find_def cur p <> None then Some (Sym (cur.uid, p)) else None)
            candidates
        in
        match sibling () with Some r -> Some r | None -> own ())

let resolve t ~(cur : unit_info) ~mpath ~(locals : string -> bool) env lid =
  let parts = Checks.strip_stdlib (Checks.flatten lid) in
  match parts with
  | [] -> Ext []
  | [ name ] when locals name -> Local name
  | head :: _ :: _ when locals head && String.length head > 0 && head.[0] >= 'a' && head.[0] <= 'z'
    ->
      Local head
  | _ -> (
      let parts = expand_alias env parts in
      let candidates = List.map (fun o -> o @ parts) env.opens @ [ parts ] in
      match List.find_map (try_direct t ~cur ~mpath) candidates with
      | Some r -> r
      | None -> Ext parts)

(* Resolve a module path (e.g. an [include] or alias target) to a whole
   compilation unit. *)
let resolve_unit t ~(cur : unit_info) env lid =
  let parts = expand_alias env (Checks.strip_stdlib (Checks.flatten lid)) in
  match parts with
  | [ l; m ] when Hashtbl.mem t.libs l -> Hashtbl.find_opt t.by_lib (l, m)
  | [ m ] -> (
      match cur.lib with Some l -> Hashtbl.find_opt t.by_lib (l, m) | None -> None)
  | _ -> None

(* ---- parallel primitives -------------------------------------------------- *)

type primitive = Parallel_map | Pool_submit | Domain_spawn

let primitive_name = function
  | Parallel_map -> "Pool.parallel_map"
  | Pool_submit -> "Pool.Persistent.submit"
  | Domain_spawn -> "Domain.spawn"

let rec suffix_of n l = if List.length l <= n then l else suffix_of n (List.tl l)

let primitive_of_resolved t r =
  let of_path parts =
    match suffix_of 3 parts with
    | [ "Pool"; "Persistent"; "submit" ] -> Some Pool_submit
    | _ -> (
        match suffix_of 2 parts with
        | [ "Pool"; "parallel_map" ] -> Some Parallel_map
        | [ "Domain"; "spawn" ] -> Some Domain_spawn
        | _ -> None)
  in
  match r with
  | Ext parts -> of_path parts
  | Sym (uid, path) ->
      let u = unit t uid in
      if String.equal u.modname "Pool" then
        match path with
        | [ "parallel_map" ] -> Some Parallel_map
        | [ "Persistent"; "submit" ] -> Some Pool_submit
        | _ -> None
      else None
  | Local _ -> None

(* Index of the worker-function argument among the [Nolabel] arguments of an
   application of the primitive. *)
let kernel_position = function Parallel_map -> 0 | Domain_spawn -> 0 | Pool_submit -> 1

let string_of_path = String.concat "."
