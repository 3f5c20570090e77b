open Cpla_numeric

(* Column layout: x columns per (var, cand) in var order, then y columns per
   (pair, ca, cb), then V_o. *)
type layout = {
  x_base : int array;  (* x_base.(vi) + ci *)
  y_base : int array;  (* y_base.(pi) + (ca * |cands_b|) + cb *)
  vo : int;
  total : int;
}

let layout (f : Formulation.t) =
  let x_base = Array.make (Array.length f.Formulation.vars) 0 in
  let next = ref 0 in
  Array.iteri
    (fun vi v ->
      x_base.(vi) <- !next;
      next := !next + Array.length v.Formulation.cands)
    f.Formulation.vars;
  let y_base = Array.make (Array.length f.Formulation.pairs) 0 in
  Array.iteri
    (fun pi (p : Formulation.pair) ->
      y_base.(pi) <- !next;
      let na = Array.length f.Formulation.vars.(p.Formulation.a).Formulation.cands in
      let nb = Array.length f.Formulation.vars.(p.Formulation.b).Formulation.cands in
      next := !next + (na * nb))
    f.Formulation.pairs;
  let vo = !next in
  { x_base; y_base; vo; total = !next + 1 }

let y_col lay (f : Formulation.t) pi ca cb =
  let p = f.Formulation.pairs.(pi) in
  let nb = Array.length f.Formulation.vars.(p.Formulation.b).Formulation.cands in
  lay.y_base.(pi) + (ca * nb) + cb

(* [cols] sorted in place, a repeated column kept once — the columns a
   dense row holds after writing 1.0 at each of them. *)
let sorted_unique cols =
  Array.sort Int.compare cols;
  let kept = ref 0 in
  Array.iter
    (fun c ->
      if !kept = 0 || cols.(!kept - 1) <> c then begin
        cols.(!kept) <- c;
        incr kept
      end)
    cols;
  if !kept = Array.length cols then cols else Array.sub cols 0 !kept

let build_model ~alpha (f : Formulation.t) =
  let lay = layout f in
  let n = lay.total in
  let objective = Array.make n 0.0 in
  Array.iteri
    (fun vi (v : Formulation.var) ->
      Array.iteri (fun ci ts -> objective.(lay.x_base.(vi) + ci) <- ts) v.Formulation.ts)
    f.Formulation.vars;
  Array.iteri
    (fun pi (p : Formulation.pair) ->
      Array.iteri
        (fun ca row ->
          Array.iteri (fun cb tv -> objective.(y_col lay f pi ca cb) <- tv) row)
        p.Formulation.tv)
    f.Formulation.pairs;
  objective.(lay.vo) <- alpha;
  let rows = ref [] in
  let add row = rows := row :: !rows in
  (* (4b): one layer per segment *)
  Array.iteri
    (fun vi (v : Formulation.var) ->
      let k = Array.length v.Formulation.cands in
      let cols = Array.make k lay.x_base.(vi) in
      for ci = 1 to k - 1 do
        cols.(ci) <- cols.(ci) + ci
      done;
      add (Simplex.sparse ~cols ~coefs:(Array.make k 1.0) Simplex.Eq 1.0))
    f.Formulation.vars;
  (* (4c): edge capacity *)
  Array.iter
    (fun (r : Formulation.cap_row) ->
      let cols = Array.make (List.length r.Formulation.members) 0 in
      List.iteri (fun s (vi, ci) -> cols.(s) <- lay.x_base.(vi) + ci) r.Formulation.members;
      let cols = sorted_unique cols in
      add
        (Simplex.sparse ~cols
           ~coefs:(Array.make (Array.length cols) 1.0)
           Simplex.Le (float_of_int r.Formulation.limit)))
    f.Formulation.cap_rows;
  (* (4d) relaxed with V_o: Σ y − V_o ≤ limit; V_o is the last column *)
  Array.iter
    (fun (r : Formulation.via_row) ->
      let cols = Array.make (List.length r.Formulation.members + 1) lay.vo in
      List.iteri (fun s (pi, ca, cb) -> cols.(s) <- y_col lay f pi ca cb) r.Formulation.members;
      let cols = sorted_unique cols in
      let k = Array.length cols in
      let coefs = Array.make k 1.0 in
      coefs.(k - 1) <- -1.0;
      add (Simplex.sparse ~cols ~coefs Simplex.Le (float_of_int r.Formulation.limit)))
    f.Formulation.via_rows;
  (* (4e)–(4g): y = x_a · x_b linking; every x column precedes every y
     column, and a pair's two segments are distinct vars *)
  Array.iteri
    (fun pi (p : Formulation.pair) ->
      let na = Array.length f.Formulation.vars.(p.Formulation.a).Formulation.cands in
      let nb = Array.length f.Formulation.vars.(p.Formulation.b).Formulation.cands in
      for ca = 0 to na - 1 do
        for cb = 0 to nb - 1 do
          let y = y_col lay f pi ca cb in
          let xa = lay.x_base.(p.Formulation.a) + ca in
          let xb = lay.x_base.(p.Formulation.b) + cb in
          add (Simplex.sparse ~cols:[| xa; y |] ~coefs:[| -1.0; 1.0 |] Simplex.Le 0.0);
          add (Simplex.sparse ~cols:[| xb; y |] ~coefs:[| -1.0; 1.0 |] Simplex.Le 0.0);
          add
            (Simplex.sparse
               ~cols:[| Int.min xa xb; Int.max xa xb; y |]
               ~coefs:[| 1.0; 1.0; -1.0 |] Simplex.Le 1.0)
        done
      done)
    f.Formulation.pairs;
  let binary = Array.make n true in
  binary.(lay.vo) <- false;
  Cpla_ilp.Model.create ~objective ~rows:(List.rev !rows) ~binary

let solve ~options ~alpha ?ws ?(check = fun () -> ()) (f : Formulation.t) =
  if Array.length f.Formulation.vars = 0 then Some [||]
  else
    (* the search's shape, read only when tracing is on *)
    let nodes = ref 0 and complete = ref false and found = ref false in
    let result_args _ =
      let flag b = Cpla_obs.Event.Int (Bool.to_int b) in
      [
        ("nodes", Cpla_obs.Event.Int !nodes);
        ("proven_optimal", flag !complete);
        ("incumbent", flag !found);
      ]
    in
    Cpla_obs.Span.with_ ~name:"ilp/solve"
      ~args:[ ("vars", Cpla_obs.Event.Int (Array.length f.Formulation.vars)) ]
      ~result_args
    @@ fun () ->
    Cpla_obs.Metrics.incr "ilp/solves";
    check ();
    let model = build_model ~alpha f in
    check ();
    let search = Cpla_ilp.Solver.search ~options ?ws model in
    nodes := search.Cpla_ilp.Solver.nodes;
    complete := search.Cpla_ilp.Solver.complete;
    match search.Cpla_ilp.Solver.best with
    | None ->
        Cpla_obs.Metrics.incr "ilp/no-incumbent";
        None
    | Some outcome ->
        found := true;
        let lay = layout f in
        let choice =
          Array.mapi
            (fun vi (v : Formulation.var) ->
              let best = ref 0 and best_x = ref neg_infinity in
              Array.iteri
                (fun ci _ ->
                  let xv = outcome.Cpla_ilp.Solver.x.(lay.x_base.(vi) + ci) in
                  if xv > !best_x then begin
                    best_x := xv;
                    best := ci
                  end)
                v.Formulation.cands;
              v.Formulation.cands.(!best))
            f.Formulation.vars
        in
        Some choice
