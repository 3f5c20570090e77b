open Ppxlib

type minfo = {
  m_kind : string;
  m_chain : string list;
  m_origin : string * Location.t;
}

type param_id = Lbl of string | Pos of int

type cap_what = Outer of minfo | Param of param_id

type capture = {
  c_name : string;
  c_what : cap_what;
  c_written : bool;
  c_loc : Location.t;
}

type esc_kind = Captured | Kernel

type esc_info = { e_kind : esc_kind; e_written : bool; e_desc : string }

type race = {
  r_path : string;
  r_loc : Location.t;
  r_msg : string;
  r_origin : (string * Location.t) option;
  r_reported : bool;
}

type binding = Plain | Mut of minfo | Closure of capture list

type key = int * string list

(* ---- per-unit facts ------------------------------------------------------- *)

(* The escape analysis needs whole-program rounds (a parameter's escape is
   discovered while walking one unit and consumed while walking another),
   but everything the rounds consume can be computed from one unit's AST
   alone.  [collect] therefore classifies, at every relevant site, what the
   walk {e would} do — unconditional escape seeds and already-gated races,
   plus deferred events whose outcome depends on the global escape table or
   def-capture table — and [solve] replays the event streams in uid order
   until the escape table is stable, then once more to emit races.  The
   event list preserves walk order, so first-seed-wins tie-breaking is a
   deterministic function of the merged facts. *)

type arg_class =
  | A_mut of minfo  (** ident bound [Mut] in local scope *)
  | A_closure of string * capture list  (** ident bound [Closure] in scope *)
  | A_param of param_id  (** ident that is an enclosing-fn parameter *)
  | A_global of minfo  (** ident resolving to a top-level mutable *)
  | A_lambda of capture list  (** literal [fun] argument *)

type event =
  | E_seed of string list * param_id * esc_info
      (** unconditional [add_esc] on (own-unit fn path, param) *)
  | E_race of race  (** unconditional race, already area/risky-gated *)
  | E_defcaps of {
      dc_fn : string list;
      dc_target : key;
      dc_prim : string;
      dc_loc : Location.t;
    }  (** resolved-symbol kernel: consult the target's def-captures *)
  | E_arg of {
      a_fn : string list;
      a_callee : key;
      a_pid : param_id;
      a_cls : arg_class;
      a_loc : Location.t;
    }  (** argument handed to a possibly-escaping parameter *)

type unit_facts = {
  df_fire_ok : bool;
      (** not under [test/]: may produce races, reported only if linted *)
  df_def_caps : (string list * capture list) list;
  df_events : event list;  (** in walk order *)
}

let at (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let describe_pid = function
  | Pos i -> Printf.sprintf "argument %d" (i + 1)
  | Lbl s -> "~" ^ s

(* Arrays and bytes are only a race once some domain writes them; the other
   mutable kinds (ref, Hashtbl, Buffer, Queue, Stack, mutable record) have
   interior state that any sharing across domains puts at risk. *)
let risky kind ~written = written || not (List.mem kind [ "array"; "bytes" ])

let pid_of_args args =
  let npos = ref 0 in
  List.map
    (fun (lbl, a) ->
      let pid =
        match lbl with
        | Labelled s | Optional s -> Lbl s
        | Nolabel ->
            let p = Pos !npos in
            incr npos;
            p
      in
      (pid, a))
    args

(* The structure written by an in-place mutator argument: the ident under any
   number of field projections ([Queue.take p.tasks] mutates [p]'s contents). *)
let rec mut_target (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some lid
  | Pexp_field (b, _) -> mut_target b
  | _ -> None

let shallow_iter e ~f =
  let entered = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression sub =
        if not !entered then begin
          entered := true;
          super#expression sub
        end
        else f sub

      method! module_expr _ = ()
      method! structure_item _ = ()
    end
  in
  it#expression e

let pretty symtab ((uid, path) : key) =
  Printf.sprintf "%s.%s" (Symtab.unit symtab uid).Symtab.modname (Symtab.string_of_path path)

let global_minfo symtab (uid, path) (d : Symtab.def) =
  let kind = Option.get d.Symtab.def_mut in
  let name = pretty symtab (uid, path) in
  {
    m_kind = kind;
    m_chain = [ Printf.sprintf "top-level `%s` (%s) defined at %s" name kind (at d.Symtab.def_loc) ];
    m_origin = ((Symtab.unit symtab uid).Symtab.path, d.Symtab.def_loc);
  }

(* ---- free mutable variables of a closure ---------------------------------- *)

(* Walk a lambda collecting references that escape it: outer-scope mutable
   bindings, the enclosing definition's parameters, and top-level mutable
   symbols (same unit or cross-module).  [written] is sticky per name and
   records whether the closure itself mutates the value. *)
let collect_captures symtab ~(u : Symtab.unit_info) ~mpath ~env ~scope ~params lam =
  let inner : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let caps : (string, capture) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let note name what ~written loc =
    match Hashtbl.find_opt caps name with
    | Some c ->
        if written && not c.c_written then Hashtbl.replace caps name { c with c_written = true }
    | None ->
        Hashtbl.replace caps name { c_name = name; c_what = what; c_written = written; c_loc = loc };
        order := name :: !order
  in
  let bind_pat p =
    let names = List.map fst (Symtab.pattern_names p) in
    List.iter (fun n -> Hashtbl.add inner n 0) names;
    names
  in
  let unbind = List.iter (Hashtbl.remove inner) in
  let locals n = Hashtbl.mem inner n || Hashtbl.mem scope n || Hashtbl.mem params n in
  let rec ref_ident ~env ~written (lid : Longident.t loc) =
    match Checks.flatten lid.txt with
    | [ name ] when Hashtbl.mem inner name -> ()
    | [ name ] when Hashtbl.mem scope name -> (
        match Hashtbl.find scope name with
        | Mut info -> note name (Outer info) ~written lid.loc
        | Closure cs ->
            (* calling a local closure from worker code drags its own
               captures across the domain boundary too *)
            List.iter (fun c -> note c.c_name c.c_what ~written:c.c_written c.c_loc) cs
        | Plain -> ())
    | [ name ] when Hashtbl.mem params name ->
        note name (Param (Hashtbl.find params name)) ~written lid.loc
    | _ -> (
        match Symtab.resolve symtab ~cur:u ~mpath ~locals env lid.txt with
        | Symtab.Sym (uid, path) -> (
            match Symtab.find_def (Symtab.unit symtab uid) path with
            | Some d when d.Symtab.def_mut <> None ->
                note
                  (pretty symtab (uid, path))
                  (Outer (global_minfo symtab (uid, path) d))
                  ~written lid.loc
            | _ -> ())
        | _ -> ())
  and expr ~env (e : expression) =
    match e.pexp_desc with
    | Pexp_ident lid -> ref_ident ~env ~written:false lid
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) ->
        let p = Checks.strip_stdlib (Checks.flatten lid.txt) in
        (if Callgraph.mutator_ident p then
           match List.find_opt (fun (l, _) -> l = Nolabel) args with
           | Some (_, target) -> (
               match mut_target target with
               | Some tlid -> ref_ident ~env ~written:true tlid
               | None -> ())
           | None -> ());
        expr ~env f;
        List.iter (fun (_, a) -> expr ~env a) args
    | Pexp_setfield (base, _, v) ->
        (match mut_target base with
        | Some tlid -> ref_ident ~env ~written:true tlid
        | None -> ());
        expr ~env base;
        expr ~env v
    | Pexp_function (ps, _, body) ->
        let bound =
          List.concat_map
            (fun p ->
              match p.pparam_desc with
              | Pparam_val (_, d, pat) ->
                  Option.iter (expr ~env) d;
                  bind_pat pat
              | Pparam_newtype _ -> [])
            ps
        in
        (match body with
        | Pfunction_body b -> expr ~env b
        | Pfunction_cases (cases, _, _) -> List.iter (case ~env) cases);
        unbind bound
    | Pexp_let (_, vbs, body) ->
        List.iter (fun (vb : value_binding) -> expr ~env vb.pvb_expr) vbs;
        let bound = List.concat_map (fun (vb : value_binding) -> bind_pat vb.pvb_pat) vbs in
        expr ~env body;
        unbind bound
    | Pexp_open (od, body) ->
        let env =
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> Symtab.push_open env lid.txt
          | _ -> env
        in
        expr ~env body
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident lid; _ }, body) ->
        expr ~env:(Symtab.push_alias env name lid.txt) body
    | Pexp_for (pat, lo, hi, _, body) ->
        expr ~env lo;
        expr ~env hi;
        let bound = bind_pat pat in
        expr ~env body;
        unbind bound
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        expr ~env scrut;
        List.iter (case ~env) cases
    | _ -> shallow_iter e ~f:(expr ~env)
  and case ~env (c : case) =
    let bound = bind_pat c.pc_lhs in
    Option.iter (expr ~env) c.pc_guard;
    expr ~env c.pc_rhs;
    unbind bound
  in
  expr ~env lam;
  List.rev_map (Hashtbl.find caps) !order

(* ---- per-unit collection -------------------------------------------------- *)

let collect symtab (u : Symtab.unit_info) (str : structure) =
  let mut_fields = Symtab.mutable_fields_of str in
  let scope : (string, binding) Hashtbl.t = Hashtbl.create 64 in
  let fire_ok = u.Symtab.area <> Checks.Test in
  let events = ref [] in
  let def_caps = ref [] in
  let emit ev = events := ev :: !events in
  let fire ~loc ~origin steps =
    if fire_ok then
      emit
        (E_race
           {
             r_path = u.Symtab.path;
             r_loc = loc;
             r_msg =
               Printf.sprintf "mutable state shared across domains: %s"
                 (String.concat "; then " steps);
             r_origin = Some origin;
             r_reported = u.Symtab.linted;
           })
  in
  let fire_info ~loc ~written info step =
    if risky info.m_kind ~written then fire ~loc ~origin:info.m_origin (info.m_chain @ step)
  in
  let rec walk ~ckey ~params ~mpath ~env (e : expression) =
    let expr = walk ~ckey ~params ~mpath ~env in
    let locals n = Hashtbl.mem scope n || Hashtbl.mem params n in
    let resolve env lid = Symtab.resolve symtab ~cur:u ~mpath ~locals env lid in
    let collect lam = collect_captures symtab ~u ~mpath ~env ~scope ~params lam in
    let add_esc pid ei = emit (E_seed (snd ckey, pid, ei)) in
    (* mutable values captured by a closure about to run on another domain *)
    let handle_caps ~loc ~step_of caps =
      List.iter
        (fun c ->
          match c.c_what with
          | Outer info -> fire_info ~loc ~written:c.c_written info [ step_of c ]
          | Param pid ->
              add_esc pid { e_kind = Captured; e_written = c.c_written; e_desc = step_of c })
        caps
    in
    let kernel_value prim loc (k : expression) =
      let step_of c =
        Printf.sprintf "captured%s by the closure passed to %s at %s"
          (if c.c_written then " and written" else "")
          (Symtab.primitive_name prim) (at loc)
      in
      match k.pexp_desc with
      | Pexp_function _ -> handle_caps ~loc ~step_of (collect k)
      | Pexp_ident lid -> (
          match Checks.flatten lid.txt with
          | [ name ] when Hashtbl.mem scope name -> (
              match Hashtbl.find scope name with
              | Closure caps ->
                  handle_caps ~loc
                    ~step_of:(fun c ->
                      Printf.sprintf "captured%s by `%s`, used as the kernel of %s at %s"
                        (if c.c_written then " and written" else "")
                        name (Symtab.primitive_name prim) (at loc))
                    caps
              | _ -> ())
          | [ name ] when Hashtbl.mem params name ->
              add_esc (Hashtbl.find params name)
                {
                  e_kind = Kernel;
                  e_written = false;
                  e_desc =
                    Printf.sprintf "used as the kernel of %s at %s" (Symtab.primitive_name prim)
                      (at loc);
                }
          | _ -> (
              match resolve env lid.txt with
              | Symtab.Sym (uid, path) ->
                  emit
                    (E_defcaps
                       {
                         dc_fn = snd ckey;
                         dc_target = (uid, path);
                         dc_prim = Symtab.primitive_name prim;
                         dc_loc = loc;
                       })
              | _ -> ()))
      | _ -> ()
    in
    (* a value handed to a function parameter: classify what it is now; the
       solver decides later whether that parameter escapes *)
    let classify_arg (a : expression) =
      match a.pexp_desc with
      | Pexp_ident lid -> (
          match Checks.flatten lid.txt with
          | [ name ] when Hashtbl.mem scope name -> (
              match Hashtbl.find scope name with
              | Mut info -> Some (A_mut info)
              | Closure caps -> Some (A_closure (name, caps))
              | Plain -> None)
          | [ name ] when Hashtbl.mem params name -> Some (A_param (Hashtbl.find params name))
          | _ -> (
              match resolve env lid.txt with
              | Symtab.Sym (guid, gpath) -> (
                  match Symtab.find_def (Symtab.unit symtab guid) gpath with
                  | Some d when d.Symtab.def_mut <> None ->
                      Some (A_global (global_minfo symtab (guid, gpath) d))
                  | _ -> None)
              | _ -> None))
      | Pexp_function _ -> Some (A_lambda (collect a))
      | _ -> None
    in
    match e.pexp_desc with
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) ->
        let r = resolve env lid.txt in
        (match Symtab.primitive_of_resolved symtab r with
        | Some prim -> (
            let nolabels = List.filter (fun (l, _) -> l = Nolabel) args in
            match List.nth_opt nolabels (Symtab.kernel_position prim) with
            | Some (_, k) -> kernel_value prim e.pexp_loc k
            | None -> ())
        | None -> (
            match r with
            | Symtab.Sym (uid, path) ->
                List.iter
                  (fun (pid, a) ->
                    match classify_arg a with
                    | Some cls ->
                        emit
                          (E_arg
                             {
                               a_fn = snd ckey;
                               a_callee = (uid, path);
                               a_pid = pid;
                               a_cls = cls;
                               a_loc = e.pexp_loc;
                             })
                    | None -> ())
                  (pid_of_args args)
            | _ -> ()));
        expr f;
        List.iter (fun (_, a) -> expr a) args
    | Pexp_let (_, vbs, body) ->
        List.iter (fun (vb : value_binding) -> expr vb.pvb_expr) vbs;
        let bound =
          List.concat_map
            (fun (vb : value_binding) ->
              match Symtab.pattern_names vb.pvb_pat with
              | [ (name, _) ] ->
                  let b =
                    match vb.pvb_expr.pexp_desc with
                    | Pexp_function _ ->
                        Closure (collect_captures symtab ~u ~mpath ~env ~scope ~params vb.pvb_expr)
                    | Pexp_ident lid -> (
                        match Checks.flatten lid.txt with
                        | [ n ] when Hashtbl.mem scope n -> (
                            match Hashtbl.find scope n with
                            | Mut info ->
                                Mut
                                  {
                                    info with
                                    m_chain =
                                      info.m_chain
                                      @ [
                                          Printf.sprintf "aliased as `%s` at %s" name
                                            (at vb.pvb_loc);
                                        ];
                                  }
                            | b -> b)
                        | _ -> (
                            match resolve env lid.txt with
                            | Symtab.Sym (uid, path) -> (
                                match Symtab.find_def (Symtab.unit symtab uid) path with
                                | Some d when d.Symtab.def_mut <> None ->
                                    let info = global_minfo symtab (uid, path) d in
                                    Mut
                                      {
                                        info with
                                        m_chain =
                                          info.m_chain
                                          @ [
                                              Printf.sprintf "bound as `%s` at %s" name
                                                (at vb.pvb_loc);
                                            ];
                                      }
                                | _ -> Plain)
                            | _ -> Plain))
                    | _ -> (
                        match Symtab.classify_rhs mut_fields vb.pvb_expr with
                        | Some kind ->
                            Mut
                              {
                                m_kind = kind;
                                m_chain =
                                  [
                                    Printf.sprintf "created as `%s` (%s) at %s" name kind
                                      (at vb.pvb_loc);
                                  ];
                                m_origin = (u.Symtab.path, vb.pvb_loc);
                              }
                        | None -> Plain)
                  in
                  Hashtbl.add scope name b;
                  [ name ]
              | names ->
                  List.iter (fun (n, _) -> Hashtbl.add scope n Plain) names;
                  List.map fst names)
            vbs
        in
        expr body;
        List.iter (Hashtbl.remove scope) bound
    | Pexp_function (ps, _, body) ->
        let bound =
          List.concat_map
            (fun p ->
              match p.pparam_desc with
              | Pparam_val (_, d, pat) ->
                  Option.iter expr d;
                  let names = List.map fst (Symtab.pattern_names pat) in
                  List.iter (fun n -> Hashtbl.add scope n Plain) names;
                  names
              | Pparam_newtype _ -> [])
            ps
        in
        (match body with
        | Pfunction_body b -> expr b
        | Pfunction_cases (cases, _, _) -> List.iter (walk_case ~ckey ~params ~mpath ~env) cases);
        List.iter (Hashtbl.remove scope) bound
    | Pexp_open (od, body) ->
        let env =
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> Symtab.push_open env lid.txt
          | _ -> env
        in
        walk ~ckey ~params ~mpath ~env body
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident lid; _ }, body) ->
        walk ~ckey ~params ~mpath ~env:(Symtab.push_alias env name lid.txt) body
    | Pexp_for (pat, lo, hi, _, body) ->
        expr lo;
        expr hi;
        let names = List.map fst (Symtab.pattern_names pat) in
        List.iter (fun n -> Hashtbl.add scope n Plain) names;
        expr body;
        List.iter (Hashtbl.remove scope) names
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        expr scrut;
        List.iter (walk_case ~ckey ~params ~mpath ~env) cases
    | _ -> shallow_iter e ~f:expr
  and walk_case ~ckey ~params ~mpath ~env (c : case) =
    let names = List.map fst (Symtab.pattern_names c.pc_lhs) in
    List.iter (fun n -> Hashtbl.add scope n Plain) names;
    Option.iter (walk ~ckey ~params ~mpath ~env) c.pc_guard;
    walk ~ckey ~params ~mpath ~env c.pc_rhs;
    List.iter (Hashtbl.remove scope) names
  in
  let rec items ~mpath ~env is = ignore (List.fold_left (fun env si -> item ~mpath ~env si) env is)
  and item ~mpath ~env (si : structure_item) =
    match si.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        Symtab.push_open env lid.txt
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident lid -> Symtab.push_alias env name lid.txt
        | _ ->
            module_expr ~mpath:(mpath @ [ name ]) ~env pmb_expr;
            env)
    | Pstr_recmodule mbs ->
        List.iter
          (fun (mb : module_binding) ->
            match mb.pmb_name.txt with
            | Some name -> module_expr ~mpath:(mpath @ [ name ]) ~env mb.pmb_expr
            | None -> ())
          mbs;
        env
    | Pstr_include { pincl_mod; _ } ->
        module_expr ~mpath ~env pincl_mod;
        env
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            let ckey, params =
              match Symtab.pattern_names vb.pvb_pat with
              | [ (name, _) ] ->
                  let params : (string, param_id) Hashtbl.t = Hashtbl.create 8 in
                  let npos = ref 0 in
                  List.iter
                    (fun (lbl, nm, _) ->
                      let pid =
                        match lbl with
                        | Labelled s | Optional s -> Lbl s
                        | Nolabel ->
                            let p = Pos !npos in
                            incr npos;
                            p
                      in
                      match nm with Some n -> Hashtbl.replace params n pid | None -> ())
                    (Symtab.fun_params vb.pvb_expr);
                  ((u.Symtab.uid, mpath @ [ name ]), params)
              | _ -> ((u.Symtab.uid, mpath @ [ "<init>" ]), Hashtbl.create 1)
            in
            (match vb.pvb_expr.pexp_desc with
            | Pexp_function _ ->
                (* remember which top-level mutables the body touches, so a
                   cross-module [parallel_map M.f xs] can be audited *)
                let caps =
                  collect_captures symtab ~u ~mpath ~env ~scope:(Hashtbl.create 1)
                    ~params:(Hashtbl.create 1) vb.pvb_expr
                in
                let caps =
                  List.filter (fun c -> match c.c_what with Outer _ -> true | _ -> false) caps
                in
                def_caps := (snd ckey, caps) :: !def_caps
            | _ -> ());
            walk ~ckey ~params ~mpath ~env vb.pvb_expr)
          vbs;
        env
    | Pstr_eval (e, _) ->
        walk
          ~ckey:(u.Symtab.uid, mpath @ [ "<init>" ])
          ~params:(Hashtbl.create 1) ~mpath ~env e;
        env
    | _ -> env
  and module_expr ~mpath ~env (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure is -> items ~mpath ~env is
    | Pmod_constraint (me, _) -> module_expr ~mpath ~env me
    | _ -> ()
  in
  items ~mpath:[] ~env:Symtab.env0 str;
  { df_fire_ok = fire_ok; df_def_caps = List.rev !def_caps; df_events = List.rev !events }

(* ---- solver --------------------------------------------------------------- *)

let solve symtab (facts : unit_facts array) =
  let esc : (key * param_id, esc_info) Hashtbl.t = Hashtbl.create 64 in
  let def_caps : (key, capture list) Hashtbl.t = Hashtbl.create 128 in
  Array.iteri
    (fun uid f ->
      List.iter (fun (p, caps) -> Hashtbl.replace def_caps (uid, p) caps) f.df_def_caps)
    facts;
  let races = ref [] in
  let add_esc key pid (ei : esc_info) =
    if not (Hashtbl.mem esc (key, pid)) then Hashtbl.replace esc (key, pid) ei
  in
  let process ~emitting uid (f : unit_facts) =
    let u = Symtab.unit symtab uid in
    let fire ~loc ~origin steps =
      if emitting && f.df_fire_ok then
        races :=
          {
            r_path = u.Symtab.path;
            r_loc = loc;
            r_msg =
              Printf.sprintf "mutable state shared across domains: %s"
                (String.concat "; then " steps);
            r_origin = Some origin;
            r_reported = u.Symtab.linted;
          }
          :: !races
    in
    let fire_info ~loc ~written info step =
      if risky info.m_kind ~written then fire ~loc ~origin:info.m_origin (info.m_chain @ step)
    in
    List.iter
      (fun ev ->
        match ev with
        | E_seed (fn, pid, ei) -> add_esc (uid, fn) pid ei
        | E_race r -> if emitting then races := r :: !races
        | E_defcaps { dc_fn; dc_target; dc_prim; dc_loc } -> (
            match Hashtbl.find_opt def_caps dc_target with
            | Some caps ->
                let step_of c =
                  Printf.sprintf "referenced%s by `%s`, used as the kernel of %s at %s"
                    (if c.c_written then " and written" else "")
                    (pretty symtab dc_target) dc_prim (at dc_loc)
                in
                List.iter
                  (fun c ->
                    match c.c_what with
                    | Outer info -> fire_info ~loc:dc_loc ~written:c.c_written info [ step_of c ]
                    | Param pid ->
                        add_esc (uid, dc_fn) pid
                          { e_kind = Captured; e_written = c.c_written; e_desc = step_of c })
                  caps
            | None -> ())
        | E_arg { a_fn; a_callee = ckey; a_pid; a_cls; a_loc } -> (
            match Hashtbl.find_opt esc (ckey, a_pid) with
            | None -> ()
            | Some ei -> (
                let pass_step =
                  Printf.sprintf "passed to %s (%s) at %s" (pretty symtab ckey)
                    (describe_pid a_pid) (at a_loc)
                in
                match (a_cls, ei.e_kind) with
                | A_mut info, Captured ->
                    fire_info ~loc:a_loc ~written:ei.e_written info [ pass_step; ei.e_desc ]
                | A_closure (name, caps), Kernel ->
                    List.iter
                      (fun c ->
                        match c.c_what with
                        | Outer info ->
                            fire_info ~loc:a_loc ~written:c.c_written info
                              [
                                Printf.sprintf "captured%s by `%s`"
                                  (if c.c_written then " and written" else "")
                                  name;
                                pass_step;
                                ei.e_desc;
                              ]
                        | Param pid' ->
                            add_esc (uid, a_fn) pid'
                              {
                                e_kind = Captured;
                                e_written = c.c_written;
                                e_desc =
                                  Printf.sprintf "captured by `%s`, %s, then %s" name
                                    pass_step ei.e_desc;
                              })
                      caps
                | A_param pid_local, _ ->
                    add_esc (uid, a_fn) pid_local
                      {
                        e_kind = ei.e_kind;
                        e_written = ei.e_written;
                        e_desc = Printf.sprintf "%s, then %s" pass_step ei.e_desc;
                      }
                | A_global info, Captured ->
                    fire_info ~loc:a_loc ~written:ei.e_written info [ pass_step; ei.e_desc ]
                | A_lambda caps, Kernel ->
                    List.iter
                      (fun c ->
                        match c.c_what with
                        | Outer info ->
                            fire_info ~loc:a_loc ~written:c.c_written info
                              [
                                Printf.sprintf "captured%s by a closure %s"
                                  (if c.c_written then " and written" else "")
                                  pass_step;
                                ei.e_desc;
                              ]
                        | Param pid' ->
                            add_esc (uid, a_fn) pid'
                              {
                                e_kind = Captured;
                                e_written = c.c_written;
                                e_desc =
                                  Printf.sprintf "captured by a closure %s, then %s" pass_step
                                    ei.e_desc;
                              })
                      caps
                | _ -> ())))
      f.df_events
  in
  let process_all ~emitting = Array.iteri (process ~emitting) facts in
  (* escape summaries only ever gain entries, so the table size is a fixpoint
     witness; the round cap bounds pathological call chains *)
  let stable = ref false and rounds = ref 0 in
  while (not !stable) && !rounds < 8 do
    let before = Hashtbl.length esc in
    process_all ~emitting:false;
    stable := Hashtbl.length esc = before;
    incr rounds
  done;
  process_all ~emitting:true;
  let cmp a b =
    compare
      (a.r_path, a.r_loc.loc_start.pos_lnum, a.r_loc.loc_start.pos_cnum, a.r_msg)
      (b.r_path, b.r_loc.loc_start.pos_lnum, b.r_loc.loc_start.pos_cnum, b.r_msg)
  in
  let rec dedup = function
    | a :: b :: rest when cmp a b = 0 -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.sort cmp !races)
