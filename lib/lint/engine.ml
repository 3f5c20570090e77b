(* Two-phase lint driver.

   Phase 1 turns each compilation unit into an {!entry}: the file-local
   {!Checks} findings and allow spans, and the per-unit fact slices of the
   four whole-program analyses.  Parsing is sequential (compiler-libs'
   lexer is global state) and precedes summarization, because the walkers
   resolve names against the symtab assembled from every unit.

   Phase 2 never touches an AST: it builds the {!Callgraph} and replays the
   {!Dataflow} event streams from the entries' facts in uid order, and
   layers the whole-program rules on top, so findings are a deterministic
   function of the worklist. *)

type source = Symtab.source = { src_path : string; contents : string; linted : bool }

(* Everything phase 2 needs about one compilation unit besides its symtab
   metadata. *)
type entry = {
  e_file_allows : (string * Ppxlib.Location.t) list;
  e_allow_spans : (string * Ppxlib.Location.t * Ppxlib.Location.t) list;
  e_local_findings : Finding.t list;  (** single-file syntactic findings *)
  e_local_uses : (string * Ppxlib.Location.t) list;
      (** allow spans consumed by local findings, replayed for stale-allow *)
  e_cg : Callgraph.unit_facts;
  e_df : Dataflow.unit_facts;
  e_alloc : Alloceffect.unit_facts;
  e_block : Blocking.unit_facts;
}

(* ---- whole-program suppression -------------------------------------------- *)

(* [@cpla.allow] handling for findings produced outside the per-file walk:
   a finding is suppressed when a same-rule annotation's span contains its
   location, or the rule is allowed file-wide.  Every successful
   suppression is recorded against the winning annotation's identity (its
   id location), and the per-file walk's suppressions are replayed from the
   entries through [use] — what is left unrecorded at the end is stale. *)
let within (span : Ppxlib.Location.t) (loc : Ppxlib.Location.t) =
  loc.loc_start.pos_cnum >= span.loc_start.pos_cnum
  && loc.loc_end.pos_cnum <= span.loc_end.pos_cnum

type allows = {
  allowed : string -> string -> Ppxlib.Location.t -> bool;
      (** [allowed rule path loc]: is a finding of [rule] at [loc] in unit
          [path] suppressed?  Records usage of the winning annotation. *)
  use : string -> string -> Ppxlib.Location.t -> unit;
      (** [use path id id_loc]: a suppression recorded by {!Checks.analyze}. *)
  stale : unit -> (string * string * Ppxlib.Location.t) list;
      (** Known-rule allow annotations in linted units that recorded no use:
          [(path, id, id_loc)]. *)
}

let build_allows symtab (entries : entry array) =
  let tbl :
      ( string,
        (string * Ppxlib.Location.t) list
        * (string * Ppxlib.Location.t * Ppxlib.Location.t) list )
      Hashtbl.t =
    Hashtbl.create 64
  in
  (* the audit set: every known-rule annotation in a linted unit, one entry
     per identity (a binding attribute surfaces under two spans).
     "stale-allow" annotations are themselves exempt from the audit — they
     exist to silence it. *)
  let annots : (string * string * Ppxlib.Location.t) list ref = ref [] in
  let used : (string * string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun uid (e : entry) ->
      let u = Symtab.unit symtab uid in
      let file_ids = e.e_file_allows in
      let spans = e.e_allow_spans in
      Hashtbl.replace tbl u.Symtab.path (file_ids, spans);
      if u.Symtab.linted then begin
        let seen = Hashtbl.create 16 in
        let audit id (id_loc : Ppxlib.Location.t) =
          let k = (id, id_loc.loc_start.pos_cnum) in
          if Rule.known id && (not (String.equal id "stale-allow")) && not (Hashtbl.mem seen k)
          then begin
            Hashtbl.replace seen k ();
            annots := (u.Symtab.path, id, id_loc) :: !annots
          end
        in
        List.iter (fun (id, id_loc, _) -> audit id id_loc) spans;
        List.iter (fun (id, id_loc) -> audit id id_loc) file_ids
      end)
    entries;
  let use path id (id_loc : Ppxlib.Location.t) =
    Hashtbl.replace used (path, id, id_loc.loc_start.pos_cnum) ()
  in
  let allowed rule path (loc : Ppxlib.Location.t) =
    match Hashtbl.find_opt tbl path with
    | None -> false
    | Some (file_ids, spans) -> (
        (* innermost containing span takes the usage credit *)
        let extent (s : Ppxlib.Location.t) = s.loc_end.pos_cnum - s.loc_start.pos_cnum in
        let best =
          List.fold_left
            (fun acc (id, id_loc, span) ->
              if String.equal id rule && within span loc then
                match acc with
                | Some (_, prev) when extent prev <= extent span -> acc
                | _ -> Some (id_loc, span)
              else acc)
            None spans
        in
        match best with
        | Some (id_loc, _) ->
            use path rule id_loc;
            true
        | None -> (
            match List.find_opt (fun (id, _) -> String.equal id rule) file_ids with
            | Some (_, id_loc) ->
                use path rule id_loc;
                true
            | None -> false))
  in
  let stale () =
    List.filter
      (fun (path, id, (id_loc : Ppxlib.Location.t)) ->
        not (Hashtbl.mem used (path, id, id_loc.loc_start.pos_cnum)))
      (List.rev !annots)
  in
  { allowed; use; stale }

(* ---- whole-program rules --------------------------------------------------- *)

(* A context unit's race is consulted like any other, so that an allow at a
   linted creation site it reaches earns its usage, and then dropped: a
   partial lint credits the allows a whole-tree lint would. *)
let domain_race ~allowed races =
  List.filter_map
    (fun (r : Dataflow.race) ->
      let suppressed =
        allowed "domain-race" r.Dataflow.r_path r.Dataflow.r_loc
        ||
        match r.Dataflow.r_origin with
        | Some (path, loc) -> allowed "domain-race" path loc
        | None -> false
      in
      if suppressed || not r.Dataflow.r_reported then None
      else
        Some
          (Finding.v ~file:r.Dataflow.r_path ~loc:r.Dataflow.r_loc ~rule:"domain-race"
             ~msg:r.Dataflow.r_msg))
    races

let impure_kernel ~allowed symtab cg =
  let kernels =
    List.filter_map
      (fun (k : Callgraph.kernel_site) ->
        let u = Symtab.unit symtab k.Callgraph.k_unit in
        match k.Callgraph.k_target with
        | Some key when u.Symtab.linted && u.Symtab.area <> Checks.Test -> (
            (* compute the impurities first: the allow is only consulted —
               and counted as used — when there is a finding to suppress *)
            match
              List.sort compare
                (List.filter_map
                   (fun (kind, _) -> Callgraph.describe_kind cg key kind)
                   (Callgraph.kinds cg key))
            with
            | [] -> None
            | _ when allowed "impure-kernel" u.Symtab.path k.Callgraph.k_loc -> None
            | msgs ->
                Some
                  (Finding.v ~file:u.Symtab.path ~loc:k.Callgraph.k_loc ~rule:"impure-kernel"
                     ~msg:
                       (Printf.sprintf "parallel kernel %s is impure: %s"
                          (Callgraph.pretty_key cg key)
                          (String.concat "; also " msgs))))
        | _ -> None)
      (Callgraph.kernels cg)
  in
  (* impure calls from solver inner loops: same determinism budget as a
     kernel — these run thousands of times inside numeric iteration *)
  let loops =
    List.concat_map
      (fun (f : Callgraph.fn) ->
        let u = Symtab.unit symtab (fst f.Callgraph.fn_key) in
        let scope = Checks.scope_of_path u.Symtab.path in
        if
          u.Symtab.linted
          && (Checks.under [ "lib"; "numeric" ] scope || Checks.under [ "lib"; "sdp" ] scope)
        then
          List.filter_map
            (fun (c : Callgraph.call) ->
              match c.Callgraph.callee with
              | Symtab.Sym (cuid, cpath) when c.Callgraph.in_loop -> (
                  match
                    List.sort compare
                      (List.filter_map
                         (fun (kind, _) -> Callgraph.describe_kind cg (cuid, cpath) kind)
                         (Callgraph.kinds cg (cuid, cpath)))
                  with
                  | [] -> None
                  | _ when allowed "impure-kernel" u.Symtab.path c.Callgraph.call_loc ->
                      None
                  | msgs ->
                      Some
                        (Finding.v ~file:u.Symtab.path ~loc:c.Callgraph.call_loc
                           ~rule:"impure-kernel"
                           ~msg:
                             (Printf.sprintf "impure call in a solver inner loop: %s"
                                (String.concat "; also " msgs))))
              | _ -> None)
            f.Callgraph.fn_calls
        else [])
      (Callgraph.fns cg)
  in
  kernels @ loops

let unused_export symtab cg =
  let findings = ref [] in
  for uid = 0 to Symtab.n_units symtab - 1 do
    let u = Symtab.unit symtab uid in
    if u.Symtab.linted && not (Callgraph.included cg uid) then
      match u.Symtab.intf_path with
      | Some intf ->
          List.iter
            (fun (e : Symtab.export) ->
              let refd = Callgraph.referenced cg (uid, e.Symtab.exp_path) in
              if e.Symtab.exp_suppressed then begin
                (* an extension-point allow on an export that is in fact
                   referenced no longer suppresses anything *)
                if refd then
                  findings :=
                    Finding.v ~file:intf ~loc:e.Symtab.exp_loc ~rule:"stale-allow"
                      ~msg:
                        (Printf.sprintf
                           "[@@cpla.allow \"unused-export\"] on `%s` is stale: the \
                            export is referenced outside %s; remove the annotation"
                           (Symtab.string_of_path e.Symtab.exp_path)
                           u.Symtab.modname)
                    :: !findings
              end
              else if not refd then
                findings :=
                  Finding.v ~file:intf ~loc:e.Symtab.exp_loc ~rule:"unused-export"
                    ~msg:
                      (Printf.sprintf
                         "`%s` is exported but never used outside %s; delete it or mark \
                          the extension point with [@@cpla.allow \"unused-export\"]"
                         (Symtab.string_of_path e.Symtab.exp_path)
                         u.Symtab.modname)
                  :: !findings)
            u.Symtab.exports
      | None -> ()
  done;
  !findings

let has_check labels =
  List.exists (function Ppxlib.Optional "check" -> true | _ -> false) labels

let passes_check labels =
  List.exists
    (function Ppxlib.Optional "check" | Ppxlib.Labelled "check" -> true | _ -> false)
    labels

let check_not_threaded ~allowed symtab cg =
  List.concat_map
    (fun (f : Callgraph.fn) ->
      let u = Symtab.unit symtab (fst f.Callgraph.fn_key) in
      if u.Symtab.linted && has_check f.Callgraph.fn_params then
        List.filter_map
          (fun (c : Callgraph.call) ->
            match c.Callgraph.callee with
            | Symtab.Sym (cuid, cpath) -> (
                match Symtab.find_def (Symtab.unit symtab cuid) cpath with
                | Some d
                  when has_check d.Symtab.def_params
                       && (not (passes_check c.Callgraph.arg_labels))
                       && not (allowed "check-not-threaded" u.Symtab.path c.Callgraph.call_loc)
                  ->
                    Some
                      (Finding.v ~file:u.Symtab.path ~loc:c.Callgraph.call_loc
                         ~rule:"check-not-threaded"
                         ~msg:
                           (Printf.sprintf
                              "%s takes the ?check cancellation hook but this call from \
                               %s does not pass it on; the callee's work cannot be \
                               cancelled"
                              (Callgraph.pretty_key cg (cuid, cpath))
                              (Callgraph.pretty_key cg f.Callgraph.fn_key)))
                | _ -> None)
            | _ -> None)
          f.Callgraph.fn_calls
      else [])
    (Callgraph.fns cg)

(* ---- phase 1: summarize one unit ------------------------------------------- *)

let summarize symtab (u : Symtab.unit_info) (str : Ppxlib.structure) =
  let uses = ref [] in
  let local_findings =
    if u.Symtab.linted && u.Symtab.parse_exn = None then
      Checks.analyze
        ~on_allow_use:(fun id id_loc -> uses := (id, id_loc) :: !uses)
        ~scope:(Checks.scope_of_path u.Symtab.path)
        str
    else []
  in
  {
    e_file_allows = Checks.file_allow_ids str;
    e_allow_spans = Checks.allow_spans str;
    e_local_findings = local_findings;
    e_local_uses = List.rev !uses;
    e_cg = Callgraph.collect symtab u str;
    e_df = Dataflow.collect symtab u str;
    e_alloc = Alloceffect.collect str;
    e_block = Blocking.collect str;
  }

(* ---- phase 2: findings from entries alone ---------------------------------- *)

let solve symtab (entries : entry array) =
  let cg = Callgraph.build_of_facts symtab (Array.map (fun e -> e.e_cg) entries) in
  let allows = build_allows symtab entries in
  let allowed = allows.allowed in
  let findings = ref [] in
  let add fs = findings := fs @ !findings in
  Array.iteri
    (fun uid (e : entry) ->
      let u = Symtab.unit symtab uid in
      if u.Symtab.linted then begin
        List.iter (fun (id, id_loc) -> allows.use u.Symtab.path id id_loc) e.e_local_uses;
        (match u.Symtab.parse_exn with
        | Some msg -> add [ Finding.file_level ~file:u.Symtab.path ~rule:"parse-error" ~msg ]
        | None -> add e.e_local_findings);
        if u.Symtab.parsed && u.Symtab.area = Checks.Lib && not u.Symtab.has_intf then (
          match List.find_opt (fun (id, _) -> String.equal id "missing-mli") e.e_file_allows with
          | Some (id, id_loc) -> allows.use u.Symtab.path id id_loc
          | None ->
              add
                [
                  Finding.file_level ~file:u.Symtab.path ~rule:"missing-mli"
                    ~msg:"no corresponding .mli; every lib/ module needs an interface";
                ]);
        (match (u.Symtab.intf_path, u.Symtab.intf_parse_exn) with
        | Some intf, Some msg ->
            add [ Finding.file_level ~file:intf ~rule:"parse-error" ~msg ]
        | _ -> ());
        match u.Symtab.intf_path with
        | Some intf ->
            add
              (List.map
                 (fun (id, loc) ->
                   Finding.v ~file:intf ~loc ~rule:"unknown-allow"
                     ~msg:
                       (match id with
                       | Some id -> Printf.sprintf "unknown rule id %S in [@cpla.allow]" id
                       | None -> "[@cpla.allow] expects rule-id string literal(s)"))
                 u.Symtab.intf_bad_allows)
        | None -> ()
      end)
    entries;
  add (domain_race ~allowed (Dataflow.solve symtab (Array.map (fun e -> e.e_df) entries)));
  add (impure_kernel ~allowed symtab cg);
  add (unused_export symtab cg);
  add (check_not_threaded ~allowed symtab cg);
  add (Alloceffect.check ~allowed symtab cg (Array.map (fun e -> e.e_alloc) entries));
  add (Blocking.check ~allowed symtab cg (Array.map (fun e -> e.e_block) entries));
  (* stale-allow runs last: every rule above has by now recorded which
     annotations earned their keep *)
  add
    (List.filter_map
       (fun (path, id, id_loc) ->
         if allowed "stale-allow" path id_loc then None
         else
           Some
             (Finding.v ~file:path ~loc:id_loc ~rule:"stale-allow"
                ~msg:
                  (Printf.sprintf
                     "[@cpla.allow %S] no longer suppresses any finding; remove it" id)))
       (allows.stale ()));
  List.sort_uniq Finding.compare !findings

(* ---- driver ---------------------------------------------------------------- *)

let lint_sources (sources : source list) =
  let intf_for path =
    List.find_opt (fun s -> String.equal s.src_path (path ^ "i")) sources
  in
  (* sequential: compiler-libs' lexer state is global *)
  let parsed =
    List.filter_map
      (fun s ->
        if Filename.check_suffix s.src_path ".ml" then
          Some (Symtab.parse_source s ~intf:(intf_for s.src_path))
        else None)
      sources
  in
  let symtab = Symtab.assemble (List.map fst parsed) in
  solve symtab
    (Array.of_list
       (List.mapi (fun uid (_, str) -> summarize symtab (Symtab.unit symtab uid) str) parsed))

let lint_string ?(has_mli = true) ~filename contents =
  let path = (Checks.scope_of_path filename).Checks.path in
  let sources =
    { src_path = path; contents; linted = true }
    ::
    (if has_mli && Filename.check_suffix path ".ml" then
       (* the interface exists but is not part of the analysis: satisfies
          [missing-mli] without inventing exports to audit *)
       [ { src_path = path ^ "i"; contents = ""; linted = false } ]
     else [])
  in
  lint_sources sources

(* ---- filesystem ------------------------------------------------------------ *)

let norm p = (Checks.scope_of_path p).Checks.path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec source_files path =
  match Sys.is_directory path with
  | true ->
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun entry ->
             if String.length entry > 0 && entry.[0] = '.' then []
             else if String.equal entry "_build" then []
             else source_files (Filename.concat path entry))
  | false ->
      if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
        [ path ]
      else []
  | exception Sys_error _ ->
      (* dangling symlink (readdir lists it, stat fails): keep sources so the
         read failure surfaces as a finding, drop anything else *)
      if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
        [ path ]
      else []

let default_roots = [ "lib"; "bin"; "bench"; "test" ]

let read_sources ?(context = default_roots) paths =
  let files = List.concat_map source_files paths in
  let seen = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace seen (norm p) ()) files;
  let ctx =
    context
    |> List.filter (fun r -> Sys.file_exists r && Sys.is_directory r)
    |> List.concat_map source_files
    |> List.filter (fun p -> not (Hashtbl.mem seen (norm p)))
  in
  let findings = ref [] in
  let src linted p =
    match read_file p with
    | contents -> Some { src_path = norm p; contents; linted }
    | exception Sys_error msg ->
        if linted then
          findings :=
            Finding.file_level ~file:(norm p) ~rule:"read-error" ~msg :: !findings;
        None
  in
  let sources = List.filter_map (src true) files @ List.filter_map (src false) ctx in
  (sources, List.rev !findings)

let lint_paths ?context paths =
  let sources, read_findings = read_sources ?context paths in
  List.sort_uniq Finding.compare (read_findings @ lint_sources sources)
