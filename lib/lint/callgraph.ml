open Ppxlib

type key = int * string list

type kind = Io | Clock | Rand | Global_mut

let kind_name = function
  | Io -> "performs I/O"
  | Clock -> "reads the clock"
  | Rand -> "draws from the ambient PRNG"
  | Global_mut -> "mutates top-level state"

type witness = Direct of string * Location.t | Via of key * Location.t

type call = {
  callee : Symtab.resolved;
  arg_labels : arg_label list;
  call_loc : Location.t;
  in_loop : bool;
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
  k_target : key option;
}

type t = {
  symtab : Symtab.t;
  fns : (key, fn) Hashtbl.t;
  refs : (key, unit) Hashtbl.t;
  included : (int, unit) Hashtbl.t;
  mutable kernels : kernel_site list;
  kinds : (key, (kind * witness) list) Hashtbl.t;
}

(* ---- per-unit facts ------------------------------------------------------- *)

(* One unit's slice of the graph, in walk order: function keys are own-unit,
   references and kernel targets carry the uids of the run's symtab. *)
type unit_facts = {
  uf_fns : fn list;
  uf_kernels : kernel_site list;
  uf_refs : key list;
  uf_included : int list;
}

(* ---- impure external idents ----------------------------------------------- *)

let io_ident = function
  | [
      ( "print_string" | "print_endline" | "print_newline" | "print_char" | "print_int"
      | "print_float" | "print_bytes" | "prerr_string" | "prerr_endline" | "prerr_newline"
      | "output_string" | "output_char" | "output_bytes" | "output_value" | "open_out"
      | "open_in" | "input_line" | "read_line" );
    ] ->
      true
  | [ "Printf"; ("printf" | "eprintf") ] -> true
  | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline") ] -> true
  | _ -> false

let clock_ident = function
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] -> true
  | _ -> false

(* In-place mutators whose first [Nolabel] argument is the structure written. *)
let mutator_ident = function
  | [ (":=" | "incr" | "decr") ] -> true
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
    ->
      true
  | [ "Buffer"; f ] ->
      (String.length f >= 4 && String.equal (String.sub f 0 4) "add_")
      || List.mem f [ "clear"; "reset"; "truncate" ]
  | [ "Queue"; ("add" | "push" | "pop" | "take" | "clear" | "transfer") ] -> true
  | [ "Stack"; ("push" | "pop" | "clear") ] -> true
  | [ "Array"; ("set" | "fill" | "blit" | "sort" | "unsafe_set") ] -> true
  | [ "Bytes"; ("set" | "fill" | "blit" | "unsafe_set") ] -> true
  | _ -> false

(* ---- per-unit walk -------------------------------------------------------- *)

(* A custom recursion (rather than [Ast_traverse]) because resolution needs
   the binding environment: which names are local, which modules are open,
   what the current nested-module path is.

   The walk writes into per-unit sinks only (plus reads of the shared
   symtab).  Returns the function keys in creation order so the facts list
   — and therefore every downstream hashtable's insertion sequence — is a
   deterministic function of the unit's content. *)

let walk_unit ~symtab ~fns ~refs ~included ~kernels (u : Symtab.unit_info) (str : structure) =
  let order = ref [] in
  let scope : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let locals name = Hashtbl.mem scope name in
  let bind name = Hashtbl.add scope name 0 in
  let unbind name = Hashtbl.remove scope name in
  let bind_pat p =
    let names = List.map fst (Symtab.pattern_names p) in
    List.iter bind names;
    names
  in
  let local_fns : (string * key) list ref = ref [] in
  let fn_stack : fn list ref = ref [] in
  let get_fn key loc params =
    match Hashtbl.find_opt fns key with
    | Some f -> f
    | None ->
        let f = { fn_key = key; fn_loc = loc; fn_params = params; fn_calls = []; fn_imps = [] } in
        Hashtbl.replace fns key f;
        order := key :: !order;
        f
  in
  let record_call c = List.iter (fun f -> f.fn_calls <- c :: f.fn_calls) !fn_stack in
  let record_imp kind why loc =
    List.iter
      (fun f ->
        if not (List.exists (fun (k, _, _) -> k = kind) f.fn_imps) then
          f.fn_imps <- (kind, why, loc) :: f.fn_imps)
      !fn_stack
  in
  let resolve ~mpath env lid = Symtab.resolve symtab ~cur:u ~mpath ~locals env lid in
  let record_ref = function
    | Symtab.Sym (uid, path) when uid <> u.Symtab.uid -> Hashtbl.replace refs (uid, path) ()
    | _ -> ()
  in
  let gensym = ref 0 in
  let rec expr ~mpath ~env ~in_loop (e : expression) =
    match e.pexp_desc with
    | Pexp_ident lid ->
        let r = resolve ~mpath env lid.txt in
        record_ref r;
        let p = Checks.strip_stdlib (Checks.flatten lid.txt) in
        let name = String.concat "." p in
        if io_ident p then record_imp Io ("calls " ^ name) lid.loc
        else if clock_ident p then record_imp Clock ("reads " ^ name) lid.loc
        else (
          match p with
          | "Random" :: _ when not (locals "Random") ->
              record_imp Rand ("calls " ^ name) lid.loc
          | _ -> ())
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) -> (
        let r = resolve ~mpath env lid.txt in
        match Symtab.primitive_of_resolved symtab r with
        | Some prim ->
            expr ~mpath ~env ~in_loop f;
            kernel_apply ~mpath ~env ~in_loop prim e.pexp_loc args
        | None ->
            expr ~mpath ~env ~in_loop f;
            let p = Checks.strip_stdlib (Checks.flatten lid.txt) in
            (if mutator_ident p then
               match List.find_opt (fun (l, _) -> l = Nolabel) args with
               | Some (_, { pexp_desc = Pexp_ident target; _ }) -> (
                   match resolve ~mpath env target.txt with
                   | Symtab.Sym (uid, path)
                     when (match Symtab.find_def (Symtab.unit symtab uid) path with
                          | Some d -> d.Symtab.def_mut <> None
                          | None -> false) ->
                       record_imp Global_mut
                         ("writes top-level mutable " ^ Symtab.string_of_path path)
                         e.pexp_loc
                   | _ -> ())
               | _ -> ());
            record_call
              { callee = r; arg_labels = List.map fst args; call_loc = e.pexp_loc; in_loop };
            List.iter (fun (_, a) -> expr ~mpath ~env ~in_loop a) args)
    | Pexp_apply (f, args) ->
        expr ~mpath ~env ~in_loop f;
        List.iter (fun (_, a) -> expr ~mpath ~env ~in_loop a) args
    | Pexp_setfield (base, _, v) ->
        (match base.pexp_desc with
        | Pexp_ident lid -> (
            match resolve ~mpath env lid.txt with
            | Symtab.Sym (_, path) ->
                record_imp Global_mut
                  ("writes a field of top-level " ^ Symtab.string_of_path path)
                  e.pexp_loc
            | _ -> ())
        | _ -> ());
        expr ~mpath ~env ~in_loop base;
        expr ~mpath ~env ~in_loop v
    | Pexp_function (params, _, body) ->
        let bound =
          List.concat_map
            (fun p ->
              match p.pparam_desc with
              | Pparam_val (_, d, pat) ->
                  Option.iter (expr ~mpath ~env ~in_loop) d;
                  bind_pat pat
              | Pparam_newtype _ -> [])
            params
        in
        (match body with
        | Pfunction_body b -> expr ~mpath ~env ~in_loop b
        | Pfunction_cases (cases, _, _) -> List.iter (case ~mpath ~env ~in_loop) cases);
        List.iter unbind bound
    | Pexp_let (_, vbs, body) ->
        let bound = List.concat_map (fun (vb : value_binding) -> bind_pat vb.pvb_pat) vbs in
        List.iter
          (fun (vb : value_binding) ->
            match (Symtab.pattern_names vb.pvb_pat, vb.pvb_expr.pexp_desc) with
            | [ (name, _) ], Pexp_function _ ->
                (* a named local closure gets its own purity identity so a
                   later [parallel_map f xs] can look it up *)
                incr gensym;
                let key =
                  (u.Symtab.uid, mpath @ [ Printf.sprintf "<local:%s:%d>" name !gensym ])
                in
                local_fns := (name, key) :: !local_fns;
                let f = get_fn key vb.pvb_loc (Symtab.params_of vb.pvb_expr) in
                fn_stack := f :: !fn_stack;
                expr ~mpath ~env ~in_loop vb.pvb_expr;
                fn_stack := List.tl !fn_stack
            | _ -> expr ~mpath ~env ~in_loop vb.pvb_expr)
          vbs;
        expr ~mpath ~env ~in_loop body;
        List.iter unbind bound
    | Pexp_open (od, body) ->
        let env =
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> Symtab.push_open env lid.txt
          | _ -> env
        in
        expr ~mpath ~env ~in_loop body
    | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident lid; _ }, body) ->
        expr ~mpath ~env:(Symtab.push_alias env name lid.txt) ~in_loop body
    | Pexp_for (pat, lo, hi, _, body) ->
        expr ~mpath ~env ~in_loop lo;
        expr ~mpath ~env ~in_loop hi;
        let bound = bind_pat pat in
        expr ~mpath ~env ~in_loop:true body;
        List.iter unbind bound
    | Pexp_while (cond, body) ->
        expr ~mpath ~env ~in_loop cond;
        expr ~mpath ~env ~in_loop:true body
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        expr ~mpath ~env ~in_loop scrut;
        List.iter (case ~mpath ~env ~in_loop) cases
    | _ -> shallow_iter e ~f:(expr ~mpath ~env ~in_loop)
  and case ~mpath ~env ~in_loop (c : case) =
    let bound = bind_pat c.pc_lhs in
    Option.iter (expr ~mpath ~env ~in_loop) c.pc_guard;
    expr ~mpath ~env ~in_loop c.pc_rhs;
    List.iter unbind bound
  and kernel_apply ~mpath ~env ~in_loop prim loc args =
    let nolabels = List.filter (fun (l, _) -> l = Nolabel) args in
    let kernel = List.nth_opt nolabels (Symtab.kernel_position prim) in
    let record target =
      if prim <> Symtab.Pool_submit then
        kernels :=
          { k_unit = u.Symtab.uid; k_prim = prim; k_loc = loc; k_target = target } :: !kernels
    in
    let walked =
      match kernel with
      | Some (_, ({ pexp_desc = Pexp_function _; _ } as lam)) ->
          incr gensym;
          let key = (u.Symtab.uid, mpath @ [ Printf.sprintf "<kernel:%d>" !gensym ]) in
          let f = get_fn key lam.pexp_loc (Symtab.params_of lam) in
          fn_stack := f :: !fn_stack;
          expr ~mpath ~env ~in_loop lam;
          fn_stack := List.tl !fn_stack;
          record (Some key);
          [ lam ]
      | Some (_, { pexp_desc = Pexp_ident lid; _ }) ->
          (match resolve ~mpath env lid.txt with
          | Symtab.Sym (uid, path) -> record (Some (uid, path))
          | Symtab.Local name -> record (List.assoc_opt name !local_fns)
          | Symtab.Ext _ -> record None);
          []
      | _ -> []
    in
    List.iter (fun (_, a) -> if not (List.memq a walked) then expr ~mpath ~env ~in_loop a) args
  and shallow_iter e ~f =
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
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        (match Symtab.resolve_unit symtab ~cur:u env lid.txt with
        | Some uid -> Hashtbl.replace included uid ()
        | None -> ());
        env
    | Pstr_include { pincl_mod; _ } ->
        module_expr ~mpath ~env pincl_mod;
        env
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            let key, params =
              match Symtab.pattern_names vb.pvb_pat with
              | [ (name, _) ] ->
                  ((u.Symtab.uid, mpath @ [ name ]), Symtab.params_of vb.pvb_expr)
              | _ -> ((u.Symtab.uid, mpath @ [ "<init>" ]), [])
            in
            let f = get_fn key vb.pvb_loc params in
            fn_stack := [ f ];
            local_fns := [];
            expr ~mpath ~env ~in_loop:false vb.pvb_expr;
            fn_stack := [])
          vbs;
        env
    | Pstr_eval (e, _) ->
        let f = get_fn (u.Symtab.uid, mpath @ [ "<init>" ]) si.pstr_loc [] in
        fn_stack := [ f ];
        local_fns := [];
        expr ~mpath ~env ~in_loop:false e;
        fn_stack := [];
        env
    | _ -> env
  and module_expr ~mpath ~env (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure is -> items ~mpath ~env is
    | Pmod_constraint (me, _) -> module_expr ~mpath ~env me
    | _ -> ()
  in
  items ~mpath:[] ~env:Symtab.env0 str;
  List.rev !order

(* ---- collect / assemble --------------------------------------------------- *)

let collect symtab (u : Symtab.unit_info) (str : structure) =
  let fns = Hashtbl.create 64 in
  let refs = Hashtbl.create 64 in
  let included = Hashtbl.create 4 in
  let kernels = ref [] in
  let order = walk_unit ~symtab ~fns ~refs ~included ~kernels u str in
  {
    uf_fns = List.map (Hashtbl.find fns) order;
    uf_kernels = !kernels;
    uf_refs = Hashtbl.fold (fun k () acc -> k :: acc) refs [];
    uf_included = Hashtbl.fold (fun uid () acc -> uid :: acc) included [];
  }

(* ---- purity fixpoint ------------------------------------------------------ *)

let fixpoint t =
  Hashtbl.iter
    (fun key (f : fn) ->
      Hashtbl.replace t.kinds key
        (List.map (fun (k, why, loc) -> (k, Direct (why, loc))) f.fn_imps))
    t.fns;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key (f : fn) ->
        let cur = try Hashtbl.find t.kinds key with Not_found -> [] in
        let add = ref cur in
        List.iter
          (fun c ->
            match c.callee with
            | Symtab.Sym (uid, path) ->
                let ck = try Hashtbl.find t.kinds (uid, path) with Not_found -> [] in
                List.iter
                  (fun (k, _) ->
                    if not (List.exists (fun (k', _) -> k' = k) !add) then begin
                      add := (k, Via ((uid, path), c.call_loc)) :: !add;
                      changed := true
                    end)
                  ck
            | _ -> ())
          f.fn_calls;
        if !add != cur then Hashtbl.replace t.kinds key !add)
      t.fns
  done

(* Assemble the whole-program graph from per-unit facts in uid order, so
   every hashtable's insertion sequence — and with it every
   iteration-order-dependent result — follows the worklist, and run the
   purity fixpoint. *)
let build_of_facts symtab (facts : unit_facts array) =
  let t =
    {
      symtab;
      fns = Hashtbl.create 512;
      refs = Hashtbl.create 1024;
      included = Hashtbl.create 8;
      kernels = [];
      kinds = Hashtbl.create 512;
    }
  in
  Array.iter
    (fun uf ->
      List.iter (fun f -> Hashtbl.replace t.fns f.fn_key f) uf.uf_fns;
      List.iter (fun k -> Hashtbl.replace t.refs k ()) uf.uf_refs;
      List.iter (fun uid -> Hashtbl.replace t.included uid ()) uf.uf_included)
    facts;
  t.kernels <- List.concat_map (fun uf -> uf.uf_kernels) (Array.to_list facts);
  fixpoint t;
  t

(* ---- queries -------------------------------------------------------------- *)

let kinds t key = try Hashtbl.find t.kinds key with Not_found -> []

let referenced t key = Hashtbl.mem t.refs key

let included t uid = Hashtbl.mem t.included uid

let fns t = Hashtbl.fold (fun _ f acc -> f :: acc) t.fns []

let kernels t = t.kernels

let pretty_key t ((uid, path) : key) =
  let u = Symtab.unit t.symtab uid in
  let path =
    List.map
      (fun s ->
        if String.length s > 7 && String.equal (String.sub s 0 7) "<local:" then
          (* "<local:name:N>" -> "name" *)
          match String.split_on_char ':' s with _ :: name :: _ -> name | _ -> s
        else s)
      path
  in
  Printf.sprintf "%s.%s" u.Symtab.modname (Symtab.string_of_path path)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let rec describe_witness ?(depth = 0) t (kind : kind) (w : witness) =
  match w with
  | Direct (why, loc) -> Printf.sprintf "%s at %s:%d" why loc.loc_start.pos_fname (line_of loc)
  | Via (key, loc) ->
      let tail =
        if depth >= 6 then "..."
        else
          match List.assoc_opt kind (kinds t key) with
          | Some w' -> describe_witness ~depth:(depth + 1) t kind w'
          | None -> "?"
      in
      Printf.sprintf "calls %s at %s:%d, which %s" (pretty_key t key) loc.loc_start.pos_fname
        (line_of loc) tail

let describe_kind t key kind =
  match List.assoc_opt kind (kinds t key) with
  | Some w -> Some (Printf.sprintf "%s: %s" (kind_name kind) (describe_witness t kind w))
  | None -> None
