open Ppxlib

(* Event-loop blocking analysis: functions annotated [@cpla.event_loop]
   (the daemon's select loop) must never reach a blocking primitive —
   sleeps, process waits, blocking socket/file ops, lock acquisition,
   domain/thread joins, or an unbounded [while true] that contains no
   select/poll.  Witnesses are collected syntactically per top-level
   binding (flat attribution, like the call graph) so primitives that are
   merely *passed* ([List.iter Domain.join ds]) count too; reachability
   then follows the call graph's resolved edges from each root.

   Findings are reported at the blocking site — the per-site
   [@cpla.allow "blocking-in-loop"] contract: each sanctioned wait
   (nonblocking fd, brief critical section, post-loop drain) carries its
   own justification where the wait happens. *)

type witness = { w_desc : string; w_loc : Location.t }

let rule = "blocking-in-loop"

let annot = "cpla.event_loop"

let has_annot (attrs : attributes) =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.txt annot) attrs

let is_pseudo seg = String.length seg > 0 && seg.[0] = '<'

(* [Unix.select] itself is exempt: it is the loop's scheduling primitive. *)
let blocking_prim p =
  match p with
  | [ "Unix";
      ( "sleep" | "sleepf" | "wait" | "waitpid" | "system" | "connect" | "read" | "write"
      | "write_substring" | "single_write" | "recv" | "recvfrom" | "send"
      | "send_substring" | "sendto" | "accept" | "gethostbyname" | "gethostbyaddr"
      | "getaddrinfo" | "lockf" | "open_connection" | "establish_server" ) ] ->
      true
  | [ "Mutex"; ("lock" | "protect") ] -> true
  | [ "Condition"; "wait" ] -> true
  | [ "Domain"; "join" ] -> true
  | [ "Thread"; ("join" | "delay") ] -> true
  | [ ("input_line" | "really_input" | "really_input_string" | "read_line" | "read_int"
      | "read_float") ] ->
      true
  | _ -> false

(* ---- per-unit witness collection ------------------------------------------ *)

let mentions_select body =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match Checks.last (Checks.strip_stdlib (Checks.flatten txt)) with
            | "select" | "poll" -> found := true
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#expression body;
  !found

let collect_unit (str : structure) ~on_root ~on_witness =
  let walk key =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc; _ } ->
            let p = Checks.strip_stdlib (Checks.flatten txt) in
            if blocking_prim p then
              on_witness key
                {
                  w_desc =
                    Printf.sprintf "`%s` may block the event loop" (String.concat "." p);
                  w_loc = loc;
                }
        | Pexp_while
            ({ pexp_desc = Pexp_construct ({ txt = Lident "true"; _ }, None); _ }, body)
          when not (mentions_select body) ->
            on_witness key
              {
                w_desc =
                  "an unbounded `while true` without select/poll can starve the event \
                   loop";
                w_loc = e.pexp_loc;
              }
        | _ -> ());
        super#expression e

      method! module_expr _ = ()
      method! structure_item _ = ()
    end
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
            (walk key)#expression vb.pvb_expr)
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
  bf_roots : (string list * Location.t) list;
  bf_witnesses : (string list * witness) list;  (** in collection order *)
}

let collect (str : structure) =
  let roots = ref [] and witnesses = ref [] in
  collect_unit str
    ~on_root:(fun key loc -> roots := (key, loc) :: !roots)
    ~on_witness:(fun key w -> witnesses := (key, w) :: !witnesses);
  { bf_roots = List.rev !roots; bf_witnesses = List.rev !witnesses }

(* ---- reachability ---------------------------------------------------------- *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let site (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname (line_of loc)

let max_depth = 12

let check ~allowed symtab cg (facts : unit_facts array) =
  let witnesses : (Callgraph.key, witness list ref) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  let on_witness key w =
    match Hashtbl.find_opt witnesses key with
    | Some l -> l := w :: !l
    | None -> Hashtbl.replace witnesses key (ref [ w ])
  in
  Array.iteri
    (fun uid f ->
      List.iter (fun (path, loc) -> roots := ((uid, path), loc) :: !roots) f.bf_roots;
      List.iter (fun (path, w) -> on_witness (uid, path) w) f.bf_witnesses)
    facts;
  let edges : (Callgraph.key, (Callgraph.key * Location.t) list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (f : Callgraph.fn) ->
      if not (List.exists is_pseudo (snd f.Callgraph.fn_key)) then
        Hashtbl.replace edges f.Callgraph.fn_key
          (List.filter_map
             (fun (c : Callgraph.call) ->
               match c.Callgraph.callee with
               | Symtab.Sym (cuid, cpath) -> Some ((cuid, cpath), c.Callgraph.call_loc)
               | _ -> None)
             f.Callgraph.fn_calls))
    (Callgraph.fns cg);
  let unit_path uid = (Symtab.unit symtab uid).Symtab.path in
  let findings = ref [] in
  List.iter
    (fun ((root_key, _root_loc) : Callgraph.key * Location.t) ->
      let root_name = Callgraph.pretty_key cg root_key in
      let visited : (Callgraph.key, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec visit key hops depth =
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          let ku = Symtab.unit symtab (fst key) in
          (match Hashtbl.find_opt witnesses key with
          | Some ws ->
              List.iter
                (fun w ->
                  if not (allowed rule ku.Symtab.path w.w_loc) && ku.Symtab.linted then
                    let how =
                      match hops with
                      | [] ->
                          Printf.sprintf "directly inside [@cpla.event_loop] `%s`"
                            root_name
                      | hops ->
                          Printf.sprintf "reachable from [@cpla.event_loop] `%s`: %s"
                            root_name
                            (String.concat ", which "
                               (List.map
                                  (fun (callee, loc) ->
                                    Printf.sprintf "calls `%s` at %s"
                                      (Callgraph.pretty_key cg callee)
                                      (site loc))
                                  hops))
                    in
                    findings :=
                      Finding.v ~file:ku.Symtab.path ~loc:w.w_loc ~rule
                        ~msg:
                          (Printf.sprintf
                             "%s; %s.  Bound the wait or sanction this site with \
                              [@cpla.allow \"blocking-in-loop\"]"
                             w.w_desc how)
                      :: !findings)
                (List.rev !ws)
          | None -> ());
          if depth < max_depth then
            List.iter
              (fun ((callee, cloc) : Callgraph.key * Location.t) ->
                (* an allow on the call edge sanctions everything it reaches
                   (e.g. a thunk that runs on a worker domain, not the loop) *)
                if not (allowed rule (unit_path (fst key)) cloc) then
                  visit callee (hops @ [ (callee, cloc) ]) (depth + 1))
              (try List.rev (Hashtbl.find edges key) with Not_found -> [])
        end
      in
      visit root_key [] 0)
    (List.rev !roots);
  !findings
