open Ppxlib

(* Allocation-effect analysis: verify [@cpla.zero_alloc] annotations.

   Phase A (syntactic, per unit): classify every allocating expression and
   attribute it to the enclosing *top-level* binding — the same flat
   attribution the call graph uses, so a closure's body charges the
   function that creates it.  Phase B (interprocedural): from each
   annotated root, walk the resolved call edges recorded by {!Callgraph}
   and report every reachable allocation with a creation-to-call witness
   chain, honouring [@cpla.allow "alloc-in-kernel"] at the allocation site
   (sanctioning e.g. one-time workspace growth inside [reserve]) or at any
   call edge on the chain (sanctioning a whole callee from one caller).

   Deliberate precision choices, documented in DESIGN.md §8: a local [ref]
   used only under [!]/[:=]/[incr]/[decr] is compiled to a mutable stack
   slot, not a heap cell, so it is not an allocation — only escaping refs
   are; arguments of [raise]/[invalid_arg]/[failwith] are skipped (error
   paths are off-budget); boxed-float returns of ordinary calls are left
   to the dynamic [Gc.allocated_bytes] budgets (flambda-dependent), while
   floats hitting polymorphic [compare]/[min]/[max] are flagged. *)

type witness = { w_desc : string; w_loc : Location.t }

let rule = "alloc-in-kernel"

let annot = "cpla.zero_alloc"

let has_annot (attrs : attributes) =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.txt annot) attrs

let is_pseudo seg = String.length seg > 0 && seg.[0] = '<'

(* ---- allocating externals -------------------------------------------------- *)

let allocator_call p =
  match p with
  | [ ("@" | "^") ] -> true
  | [ "Array";
      ( "make" | "create_float" | "init" | "make_matrix" | "append" | "concat" | "sub"
      | "copy" | "of_list" | "to_list" | "of_seq" | "map" | "mapi" | "map2" | "split"
      | "combine" ) ] ->
      true
  | [ "List";
      ( "init" | "cons" | "map" | "mapi" | "map2" | "rev" | "rev_map" | "rev_append"
      | "append" | "concat" | "concat_map" | "flatten" | "filter" | "filteri"
      | "filter_map" | "partition" | "split" | "combine" | "sort" | "stable_sort"
      | "fast_sort" | "sort_uniq" | "merge" | "of_seq" ) ] ->
      true
  | [ "String";
      ( "make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi" | "trim" | "escaped"
      | "uppercase_ascii" | "lowercase_ascii" | "capitalize_ascii" | "split_on_char"
      | "of_bytes" | "to_bytes" ) ] ->
      true
  | [ "Bytes";
      ( "create" | "make" | "init" | "copy" | "sub" | "sub_string" | "extend" | "cat"
      | "concat" | "of_string" | "to_string" ) ] ->
      true
  | [ "Buffer"; ("create" | "contents" | "sub" | "to_bytes") ] -> true
  | [ "Printf"; "sprintf" ] | [ "Format"; ("sprintf" | "asprintf") ] -> true
  | [ ("Hashtbl" | "Queue" | "Stack"); ("create" | "copy") ] -> true
  | [ ("string_of_int" | "string_of_float" | "string_of_bool") ] -> true
  | _ -> false

let raise_ident p =
  match p with
  | [ ("raise" | "raise_notrace" | "raise_with_backtrace" | "invalid_arg" | "failwith") ]
    ->
      true
  | _ -> false

let poly_compare p = match p with [ ("compare" | "min" | "max") ] -> true | _ -> false

(* ---- escaping-ref analysis ------------------------------------------------- *)

(* Every use of [name] directly under [!] / [:=] / [incr] / [decr] keeps the
   ref unboxed in a stack slot; any other occurrence (passed, returned,
   captured) forces the heap cell. *)
let ref_escapes name body =
  let escaped = ref false in
  let it =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_ident { txt = Lident n; _ } when String.equal n name -> escaped := true
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident ("!" | "incr" | "decr"); _ }; _ },
              [ (Nolabel, { pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }) ] )
          when String.equal n name ->
            ()
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
              (Nolabel, { pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }) :: rest )
          when String.equal n name ->
            List.iter (fun (_, a) -> self#expression a) rest
        | _ -> super#expression e
    end
  in
  it#expression body;
  !escaped

(* ---- per-unit witness collection ------------------------------------------ *)

let ref_rhs (e : expression) =
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (Nolabel, init) ])
    when Checks.strip_stdlib (Checks.flatten txt) = [ "ref" ] ->
      Some init
  | _ -> None

let collect_unit (str : structure) ~on_root ~on_witness =
  let add key desc (loc : Location.t) = on_witness key { w_desc = desc; w_loc = loc } in
  (* [quiet] silences recording under raise arguments; the walk still
     recurses so nested [let]s keep their scoping treatment. *)
  let rec walk key ~quiet (e : expression) =
    let note desc loc = if not quiet then add key desc loc in
    let sub = walk key ~quiet in
    match e.pexp_desc with
    | Pexp_function _ ->
        note "creates a closure" e.pexp_loc;
        walk_inside_fn key ~quiet e
    | Pexp_tuple es ->
        note "allocates a tuple" e.pexp_loc;
        List.iter sub es
    | Pexp_record (fields, base) ->
        note "allocates a record" e.pexp_loc;
        List.iter (fun (_, fe) -> sub fe) fields;
        Option.iter sub base
    | Pexp_construct ({ txt; _ }, Some arg) ->
        note
          (match Checks.last (Checks.flatten txt) with
          | "::" -> "allocates a list cell"
          | c -> Printf.sprintf "allocates constructor `%s`" c)
          e.pexp_loc;
        (* a multi-argument constructor carries its arguments as one
           syntactic tuple, but the block is flat — the tuple node is part
           of this allocation, not a second one *)
        (match arg.pexp_desc with
        | Pexp_tuple es -> List.iter sub es
        | _ -> sub arg)
    | Pexp_variant (tag, Some arg) ->
        note (Printf.sprintf "allocates polymorphic variant `%s`" tag) e.pexp_loc;
        sub arg
    | Pexp_array (_ :: _ as es) ->
        note "allocates an array literal" e.pexp_loc;
        List.iter sub es
    | Pexp_lazy inner ->
        note "allocates a lazy thunk" e.pexp_loc;
        sub inner
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) ->
        let p = Checks.strip_stdlib (Checks.flatten txt) in
        if raise_ident p then
          (* error path: allocation while raising is off-budget *)
          List.iter (fun (_, a) -> walk key ~quiet:true a) args
        else begin
          (match ref_rhs e with
          | Some _ -> note "allocates a ref cell" e.pexp_loc
          | None ->
              if poly_compare p && List.exists (fun (_, a) -> Checks.looks_float a) args
              then
                note
                  (Printf.sprintf "boxes a float at polymorphic `%s`"
                     (String.concat "." p))
                  e.pexp_loc
              else if allocator_call p then
                note
                  (Printf.sprintf "calls allocator `%s`" (String.concat "." p))
                  e.pexp_loc);
          sub f;
          List.iter (fun (_, a) -> sub a) args
        end
    | Pexp_let (rf, vbs, body) ->
        List.iter
          (fun (vb : value_binding) ->
            match (rf, vb.pvb_pat.ppat_desc, ref_rhs vb.pvb_expr, vb.pvb_expr.pexp_desc) with
            | Nonrecursive, Ppat_var { txt = name; _ }, Some init, _ ->
                (* accumulator pattern: non-escaping local refs live in
                   registers, escaping ones are heap cells *)
                if ref_escapes name body then
                  note
                    (Printf.sprintf "allocates a ref cell (`%s` escapes its uses)" name)
                    vb.pvb_expr.pexp_loc;
                sub init
            | _, Ppat_var { txt = name; _ }, None, Pexp_function _ ->
                note (Printf.sprintf "creates local closure `%s`" name) vb.pvb_expr.pexp_loc;
                walk_inside_fn key ~quiet vb.pvb_expr
            | _ -> sub vb.pvb_expr)
          vbs;
        sub body
    | _ ->
        (* generic shallow recursion over immediate sub-expressions *)
        let entered = ref false in
        let it =
          object
            inherit Ast_traverse.iter as super

            method! expression inner =
              if not !entered then begin
                entered := true;
                super#expression inner
              end
              else sub inner

            method! module_expr _ = ()
            method! structure_item _ = ()
          end
        in
        it#expression e
  (* the lambda spine itself is the function's own frame, not a runtime
     allocation: skip over it and walk the body (and any default args) *)
  and walk_inside_fn key ~quiet (e : expression) =
    match e.pexp_desc with
    | Pexp_function (params, _, body) ->
        List.iter
          (fun p ->
            match p.pparam_desc with
            | Pparam_val (_, Some d, _) -> walk key ~quiet d
            | _ -> ())
          params;
        (match body with
        | Pfunction_body b -> walk_inside_fn key ~quiet b
        | Pfunction_cases (cases, _, _) ->
            List.iter
              (fun (c : case) ->
                Option.iter (walk key ~quiet) c.pc_guard;
                walk key ~quiet c.pc_rhs)
              cases)
    | Pexp_newtype (_, b) -> walk_inside_fn key ~quiet b
    | _ -> walk key ~quiet e
  in
  let rec items mpath is = List.iter (item mpath) is
  and item mpath (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            let key =
              match Symtab.pattern_names vb.pvb_pat with
              | [ (name, _) ] -> mpath @ [ name ]
              | _ -> mpath @ [ "<init>" ]
            in
            if has_annot vb.pvb_attributes || has_annot vb.pvb_expr.pexp_attributes then
              on_root key vb.pvb_loc;
            walk_inside_fn key ~quiet:false vb.pvb_expr)
          vbs
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
        module_expr (mpath @ [ name ]) pmb_expr
    | Pstr_recmodule mbs ->
        List.iter
          (fun (mb : module_binding) ->
            match mb.pmb_name.txt with
            | Some name -> module_expr (mpath @ [ name ]) mb.pmb_expr
            | None -> ())
          mbs
    | Pstr_include { pincl_mod; _ } -> module_expr mpath pincl_mod
    | _ -> ()
  and module_expr mpath (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure is -> items mpath is
    | Pmod_constraint (me, _) -> module_expr mpath me
    | _ -> ()
  in
  items [] str

(* ---- per-unit facts -------------------------------------------------------- *)

(* Keys are value paths within the summarized unit (attribution is always
   own-unit); the engine re-keys them under the run's uids when merging. *)
type unit_facts = {
  af_roots : (string list * Location.t) list;
  af_witnesses : (string list * witness) list;  (** in collection order *)
}

let collect (str : structure) =
  let roots = ref [] and witnesses = ref [] in
  collect_unit str
    ~on_root:(fun key loc -> roots := (key, loc) :: !roots)
    ~on_witness:(fun key w -> witnesses := (key, w) :: !witnesses);
  { af_roots = List.rev !roots; af_witnesses = List.rev !witnesses }

(* ---- interprocedural verification ----------------------------------------- *)

let nolabels labels = List.length (List.filter (fun l -> l = Nolabel) labels)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let site (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname (line_of loc)

let max_depth = 12

let check ~allowed symtab cg (facts : unit_facts array) =
  let witnesses : (Callgraph.key, witness list ref) Hashtbl.t = Hashtbl.create 256 in
  let roots = ref [] in
  let on_witness key w =
    match Hashtbl.find_opt witnesses key with
    | Some l -> l := w :: !l
    | None -> Hashtbl.replace witnesses key (ref [ w ])
  in
  Array.iteri
    (fun uid f ->
      List.iter (fun (path, loc) -> roots := ((uid, path), loc) :: !roots) f.af_roots;
      List.iter (fun (path, w) -> on_witness (uid, path) w) f.af_witnesses)
    facts;
  (* resolved call edges and partial applications, per top-level key; pseudo
     frames are skipped — their calls are already charged to the enclosing
     top-level function by the call graph's stack-wide attribution *)
  let edges : (Callgraph.key, (Callgraph.key * Location.t) list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (f : Callgraph.fn) ->
      if not (List.exists is_pseudo (snd f.Callgraph.fn_key)) then begin
        let es =
          List.filter_map
            (fun (c : Callgraph.call) ->
              match c.Callgraph.callee with
              | Symtab.Sym (cuid, cpath) ->
                  (match Symtab.find_def (Symtab.unit symtab cuid) cpath with
                  | Some d
                    when nolabels d.Symtab.def_params > 0
                         && nolabels c.Callgraph.arg_labels < nolabels d.Symtab.def_params
                    ->
                      on_witness f.Callgraph.fn_key
                        {
                          w_desc =
                            Printf.sprintf "partially applies `%s` (allocates a closure)"
                              (Callgraph.pretty_key cg (cuid, cpath));
                          w_loc = c.Callgraph.call_loc;
                        }
                  | _ -> ());
                  Some ((cuid, cpath), c.Callgraph.call_loc)
              | _ -> None)
            f.Callgraph.fn_calls
        in
        Hashtbl.replace edges f.Callgraph.fn_key es
      end)
    (Callgraph.fns cg);
  let unit_path uid = (Symtab.unit symtab uid).Symtab.path in
  let findings = ref [] in
  List.iter
    (fun ((root_key, root_loc) : Callgraph.key * Location.t) ->
      let ru = Symtab.unit symtab (fst root_key) in
      let root_name = Callgraph.pretty_key cg root_key in
      let visited : (Callgraph.key, unit) Hashtbl.t = Hashtbl.create 64 in
      (* [hops] is the call chain root -> current key, oldest first *)
      let rec visit key hops depth =
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          let kpath = unit_path (fst key) in
          (match Hashtbl.find_opt witnesses key with
          | Some ws ->
              List.iter
                (fun w ->
                  (* per-site sanction at the allocation itself *)
                  if not (allowed rule kpath w.w_loc) && ru.Symtab.linted then
                    let chain =
                      List.map
                        (fun (callee, loc) ->
                          Printf.sprintf "calls `%s` at %s"
                            (Callgraph.pretty_key cg callee)
                            (site loc))
                        hops
                      @ [ Printf.sprintf "%s at %s" w.w_desc (site w.w_loc) ]
                    in
                    findings :=
                      Finding.v ~file:ru.Symtab.path ~loc:root_loc ~rule
                        ~msg:
                          (Printf.sprintf "`%s` is annotated [@cpla.zero_alloc] but %s"
                             root_name
                             (String.concat ", which " chain))
                      :: !findings)
                (List.rev !ws)
          | None -> ());
          if depth < max_depth then
            List.iter
              (fun ((callee, cloc) : Callgraph.key * Location.t) ->
                (* an allow on the call edge sanctions the whole callee for
                   this chain (e.g. a thunk handed to a worker domain) *)
                if not (allowed rule kpath cloc) then
                  visit callee (hops @ [ (callee, cloc) ]) (depth + 1))
              (try List.rev (Hashtbl.find edges key) with Not_found -> [])
        end
      in
      visit root_key [] 0)
    (List.rev !roots);
  !findings
