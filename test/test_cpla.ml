open Cpla_route
open Cpla_timing
open Cpla

let pin px py = { Net.px; py; pl = 0 }

(* ---- Partition -------------------------------------------------------------- *)

let mk_items pts = List.mapi (fun i (x, y) -> { Partition.net = 0; seg = i; mid = (x, y) }) pts

let all_items leaves = List.concat_map (fun l -> l.Partition.items) leaves

let test_partition_covers_all () =
  let items = mk_items [ (0, 0); (5, 5); (10, 10); (63, 63); (31, 32); (12, 40) ] in
  let leaves = Partition.build ~width:64 ~height:64 ~k:4 ~max_segments:2 items in
  let got = all_items leaves in
  Alcotest.(check int) "every item in exactly one leaf" (List.length items) (List.length got);
  let ids = List.sort compare (List.map (fun i -> i.Partition.seg) got) in
  Alcotest.(check (list int)) "ids preserved" [ 0; 1; 2; 3; 4; 5 ] ids

let test_partition_bound_respected () =
  let rng = Cpla_util.Rng.create 3 in
  let items =
    List.init 200 (fun i ->
        { Partition.net = 0; seg = i; mid = (Cpla_util.Rng.int rng 64, Cpla_util.Rng.int rng 64) })
  in
  let leaves = Partition.build ~width:64 ~height:64 ~k:4 ~max_segments:10 items in
  List.iter
    (fun l ->
      let n = List.length l.Partition.items in
      let single_tile = l.Partition.x1 <= l.Partition.x0 && l.Partition.y1 <= l.Partition.y0 in
      Alcotest.(check bool) "bound or single tile" true (n <= 10 || single_tile))
    leaves

let test_partition_items_inside_leaf () =
  let rng = Cpla_util.Rng.create 7 in
  let items =
    List.init 100 (fun i ->
        { Partition.net = 0; seg = i; mid = (Cpla_util.Rng.int rng 48, Cpla_util.Rng.int rng 48) })
  in
  let leaves = Partition.build ~width:48 ~height:48 ~k:5 ~max_segments:5 items in
  List.iter
    (fun l ->
      List.iter
        (fun it ->
          let x, y = it.Partition.mid in
          Alcotest.(check bool) "inside bounds" true
            (x >= l.Partition.x0 && x <= l.Partition.x1 && y >= l.Partition.y0
            && y <= l.Partition.y1))
        l.Partition.items)
    leaves

let test_partition_hotspot_subdivides () =
  (* all items at one tile region: quadtree must not loop forever and leaves
     may exceed the bound only at single tiles *)
  let items = List.init 50 (fun i -> { Partition.net = 0; seg = i; mid = (3, 3) }) in
  let leaves = Partition.build ~width:64 ~height:64 ~k:2 ~max_segments:4 items in
  Alcotest.(check int) "all items in leaves" 50 (List.length (all_items leaves))

let test_partition_deterministic () =
  let items = mk_items [ (1, 1); (2, 2); (3, 3); (40, 40) ] in
  let a = Partition.build ~width:48 ~height:48 ~k:3 ~max_segments:1 items in
  let b = Partition.build ~width:48 ~height:48 ~k:3 ~max_segments:1 items in
  Alcotest.(check int) "same leaf count" (List.length a) (List.length b)

let partition_coverage_property =
  QCheck.Test.make ~name:"partition is a cover for random items" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (pair (int_bound 47) (int_bound 47)))
    (fun pts ->
      let items = mk_items pts in
      let leaves = Partition.build ~width:48 ~height:48 ~k:4 ~max_segments:6 items in
      List.length (all_items leaves) = List.length items)

(* ---- end-to-end fixtures ------------------------------------------------------ *)

let build_design ?(w = 32) ?(nets = 600) ?(cap = 8) ?(seed = 11) () =
  let spec =
    {
      Synth.default_spec with
      Synth.width = w;
      height = w;
      num_nets = nets;
      capacity = cap;
      seed;
      mean_extra_pins = 2.0;
    }
  in
  let graph, net_arr = Synth.generate spec in
  let routed = Router.route_all ~graph net_arr in
  let asg = Assignment.create ~graph ~nets:net_arr ~trees:routed.Router.trees in
  Init_assign.run asg;
  asg

let build_infos asg released =
  let infos = Hashtbl.create 16 in
  Array.iter (fun n -> Hashtbl.replace infos n (Critical.path_info asg n)) released;
  Hashtbl.find infos

let released_items asg released =
  Array.to_list released
  |> List.concat_map (fun net ->
         Array.to_list
           (Array.mapi
              (fun seg s -> { Partition.net; seg; mid = Segment.midpoint s })
              (Assignment.segments asg net)))

(* ---- Formulation ---------------------------------------------------------------- *)

let test_formulation_shape () =
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.01 in
  let infos = build_infos asg released in
  let items = released_items asg released in
  List.iter (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg) items;
  let f = Formulation.build asg ~infos ~items in
  Alcotest.(check int) "one var per item" (List.length items) (Formulation.var_count f);
  Alcotest.(check bool) "pairs exist on multi-segment nets" true
    (Array.length f.Formulation.pairs > 0);
  Array.iter
    (fun (v : Formulation.var) ->
      Alcotest.(check bool) "candidates non-empty" true (Array.length v.Formulation.cands > 0);
      Array.iter
        (fun ts -> Alcotest.(check bool) "ts finite positive" true (ts > 0.0 && Float.is_finite ts))
        v.Formulation.ts)
    f.Formulation.vars;
  Array.iter
    (fun (p : Formulation.pair) ->
      Alcotest.(check bool) "tv zero on diagonal-equal layers" true
        (Array.for_all (fun row -> Array.for_all (fun tv -> tv >= 0.0) row) p.Formulation.tv))
    f.Formulation.pairs

let test_formulation_requires_unassigned () =
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.01 in
  let infos = build_infos asg released in
  let items = released_items asg released in
  Alcotest.(check bool) "rejects assigned segments" true
    (match Formulation.build asg ~infos ~items with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_formulation_ts_prefers_high_layer_for_long () =
  (* a long critical segment must have lower ts on a higher layer *)
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.005 in
  let infos = build_infos asg released in
  let items = released_items asg released in
  List.iter (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg) items;
  let f = Formulation.build asg ~infos ~items in
  (* ts folds in boundary-via coupling, so a neighbour frozen on a low
     layer can locally favour staying low; the trend must still hold for
     the majority of long segments *)
  let checked = ref 0 and high_wins = ref 0 in
  Array.iter
    (fun (v : Formulation.var) ->
      let seg = (Assignment.segments asg v.Formulation.net).(v.Formulation.seg) in
      let n = Array.length v.Formulation.cands in
      if seg.Segment.len >= 6 && n >= 2 then begin
        incr checked;
        if v.Formulation.ts.(n - 1) < v.Formulation.ts.(0) then incr high_wins
      end)
    f.Formulation.vars;
  Alcotest.(check bool) "checked at least one long segment" true (!checked > 0);
  Alcotest.(check bool) "high layer wins for most long segments" true
    (2 * !high_wins >= !checked)

(* ---- Ilp_method / Sdp_method ----------------------------------------------------- *)

let leaf_formulations asg released =
  let infos = build_infos asg released in
  let items = released_items asg released in
  let graph = Assignment.graph asg in
  let leaves =
    Partition.build
      ~width:(Cpla_grid.Graph.width graph)
      ~height:(Cpla_grid.Graph.height graph)
      ~k:4 ~max_segments:8 items
  in
  List.map
    (fun leaf ->
      List.iter
        (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg)
        leaf.Partition.items;
      let f = Formulation.build asg ~infos ~items:leaf.Partition.items in
      (* re-assign to keep the state assigned for the next leaf *)
      Array.iter
        (fun (v : Formulation.var) ->
          Assignment.set_layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg
            ~layer:v.Formulation.cands.(0))
        f.Formulation.vars;
      f)
    leaves

let test_ilp_model_valid () =
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.01 in
  let fs = leaf_formulations asg released in
  List.iter
    (fun f ->
      if Formulation.var_count f > 0 then begin
        let model = Ilp_method.build_model ~alpha:2000.0 f in
        (* every var contributes exactly one assignment row; check row count
           is at least vars *)
        Alcotest.(check bool) "rows >= vars" true
          (Array.length model.Cpla_ilp.Model.rows >= Formulation.var_count f)
      end)
    fs

let test_sdp_problem_wellformed () =
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.01 in
  let fs = leaf_formulations asg released in
  List.iter
    (fun f ->
      if Formulation.var_count f > 0 then begin
        let { Sdp_method.problem = p; index; groups } =
          Sdp_method.build_problem ~alpha:Config.default.Config.alpha f
        in
        Alcotest.(check bool) "dim covers candidates" true
          (p.Cpla_sdp.Problem.dim >= Formulation.candidate_total f);
        Alcotest.(check int) "one group per row" p.Cpla_sdp.Problem.dim (Array.length groups);
        Array.iteri
          (fun vi (v : Formulation.var) ->
            Array.iteri
              (fun ci layer ->
                Alcotest.(check int) "candidate grouped by its layer" layer
                  groups.(index vi ci))
              v.Formulation.cands)
          f.Formulation.vars;
        Alcotest.(check int) "slacks unranked"
          (p.Cpla_sdp.Problem.dim - Formulation.candidate_total f)
          (Array.fold_left (fun a g -> if g < 0 then a + 1 else a) 0 groups)
      end)
    fs

(* ---- SDP ranked exit --------------------------------------------------------- *)

(* A random partition formulation straight from the record types: up to 9
   vars over 4 layers with 1-3 consecutive candidate layers each, random
   timing costs, via pairs with and without a capacity penalty, and random
   capacity rows (limit 0 included, which can leave the relaxation
   infeasible and the solve stalled). *)
let random_formulation seed =
  let module R = Cpla_util.Rng in
  let rng = R.create seed in
  let nl = 4 in
  let nvars = R.int_in rng 2 9 in
  let vars =
    Array.init nvars (fun vi ->
        let k = R.int_in rng 1 3 in
        let first = R.int rng nl in
        {
          Formulation.net = vi;
          seg = 0;
          dir = Cpla_grid.Tech.Horizontal;
          cands = Array.init k (fun c -> (first + c) mod nl);
          ts = Array.init k (fun _ -> 50.0 +. R.float rng 950.0);
          edges = [||];
        })
  in
  let ncands vi = Array.length vars.(vi).Formulation.cands in
  let pairs =
    Array.init (R.int rng nvars) (fun _ ->
        let a = R.int rng nvars in
        let b = (a + 1 + R.int rng (nvars - 1)) mod nvars in
        let table f = Array.init (ncands a) (fun _ -> Array.init (ncands b) (fun _ -> f ())) in
        {
          Formulation.a;
          b;
          tile = (0, 0);
          tv = table (fun () -> R.float rng 300.0);
          lambda = table (fun () -> if R.bool rng then 0.0 else R.float rng 100.0);
        })
  in
  let cap_rows =
    List.init nl Fun.id
    |> List.filter_map (fun layer ->
           let members =
             List.concat
               (List.init nvars (fun vi ->
                    List.filter_map
                      (fun ci ->
                        if vars.(vi).Formulation.cands.(ci) = layer && R.bool rng then
                          Some (vi, ci)
                        else None)
                      (List.init (ncands vi) Fun.id)))
           in
           if members = [] then None
           else
             Some
               {
                 Formulation.edge = { Cpla_grid.Graph.dir = Cpla_grid.Tech.Horizontal; x = 0; y = 0 };
                 layer;
                 limit = R.int_in rng 0 (List.length members);
                 members;
               })
    |> Array.of_list
  in
  { Formulation.vars; pairs; cap_rows; via_rows = [||] }

(* Post_map's Alg. 1 ranking of a solution: per layer (ascending), the vars
   with that candidate ordered by clamped value descending, NaN last, ties
   by ascending var index. *)
let post_map_order (f : Formulation.t) index x_diag =
  let x vi ci = Float.max 0.0 (Float.min 1.0 x_diag.(index vi ci)) in
  List.init 8 (fun layer ->
      let ranked = ref [] in
      Array.iteri
        (fun vi (v : Formulation.var) ->
          Array.iteri
            (fun ci l -> if l = layer then ranked := (x vi ci, vi) :: !ranked)
            v.Formulation.cands)
        f.Formulation.vars;
      List.sort
        (fun (a, va) (b, vb) ->
          match (Float.is_nan a, Float.is_nan b) with
          | true, true -> Int.compare va vb
          | true, false -> 1
          | false, true -> -1
          | false, false ->
              let c = Float.compare b a in
              if c <> 0 then c else Int.compare va vb)
        !ranked
      |> List.map snd)

let ranked_exits = Atomic.make 0

(* Whenever the ranked exit fires it saved rounds, stayed within the stall
   threshold, and returned exactly the state the plain loop reaches at that
   round, whose Post_map order equals the previous round's.  When it does
   not fire, the grouped solve is the plain solve bit for bit. *)
let ranked_exit_property =
  QCheck.Test.make ~name:"sdp ranked exit: settled order, fewer rounds, no stall" ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 2))
    (fun (seed, budget) ->
      let f = random_formulation seed in
      let { Sdp_method.problem; index; groups } =
        Sdp_method.build_problem ~alpha:Config.default.Config.alpha f
      in
      let sdp = Config.default.Config.sdp_options in
      let options =
        {
          (Cpla_sdp.Solver.kernel_options sdp) with
          Cpla_sdp.Kernel.inner_iters = [| 10; 25; 100 |].(max 0 (min 2 budget));
        }
      in
      let rank = sdp.Cpla_sdp.Solver.rank in
      let plain = Cpla_sdp.Kernel.compile ~rank problem in
      let grouped = Cpla_sdp.Kernel.compile ~groups ~rank problem in
      let dim, _ = Cpla_sdp.Kernel.dims plain in
      let ws = Cpla_sdp.Kernel.ws_create () in
      let solve ?(max_outer = options.Cpla_sdp.Kernel.max_outer) c =
        let x = Array.make dim 0.0 in
        Cpla_sdp.Kernel.solve_into ws c ~options:{ options with Cpla_sdp.Kernel.max_outer } ~x_diag:x;
        ( Array.map Int64.bits_of_float x,
          x,
          Cpla_sdp.Kernel.outer_rounds ws,
          Cpla_sdp.Kernel.max_violation ws,
          Cpla_sdp.Kernel.ranked_exit ws )
      in
      let full_bits, _, full_rounds, _, full_exit = solve plain in
      let bits, x, rounds, viol, exited = solve grouped in
      (not full_exit)
      &&
      if exited then begin
        Atomic.incr ranked_exits;
        let prefix_bits, _, _, _, _ = solve ~max_outer:rounds plain in
        let _, before, _, _, _ = solve ~max_outer:(rounds - 1) plain in
        rounds >= 2 && rounds < full_rounds
        && viol <= 100.0 *. options.Cpla_sdp.Kernel.feas_tol
        && bits = prefix_bits
        && post_map_order f index x = post_map_order f index before
      end
      else bits = full_bits && rounds = full_rounds)

let test_sdp_ranked_exit () =
  Atomic.set ranked_exits 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 20160605 |]) ranked_exit_property;
  (* the property is vacuous unless the exit actually fires *)
  Alcotest.(check bool)
    (Printf.sprintf "ranked exit fired (%d of 60)" (Atomic.get ranked_exits))
    true
    (Atomic.get ranked_exits > 0)

let test_sdp_x_values_in_range () =
  let asg = build_design () in
  let released = Critical.select asg ~ratio:0.005 in
  let fs = leaf_formulations asg released in
  List.iter
    (fun f ->
      if Formulation.var_count f > 0 then begin
        let { Sdp_method.frac; _ } =
          Sdp_method.solve ~options:Cpla_sdp.Solver.default_options
            ~alpha:Config.default.Config.alpha f
        in
        Array.iteri
          (fun vi (v : Formulation.var) ->
            let sum = ref 0.0 in
            Array.iteri
              (fun ci _ ->
                let value = frac.(vi).(ci) in
                Alcotest.(check bool) "x in [0,1]" true (value >= 0.0 && value <= 1.0);
                sum := !sum +. value)
              v.Formulation.cands;
            (* the augmented Lagrangian is run to a loose tolerance: the
               post-mapping only needs a usable ranking *)
            Alcotest.(check bool) "sums near 1" true (Float.abs (!sum -. 1.0) < 0.5))
          f.Formulation.vars
      end)
    fs

(* ---- Post_map ------------------------------------------------------------------ *)

let test_post_map_respects_capacity () =
  (* two segments share one edge with capacity 1 per layer: post-map must
     not stack both on the same layer *)
  let tech = Cpla_grid.Tech.default ~num_layers:4 () in
  let graph =
    Cpla_grid.Graph.create ~tech ~width:8 ~height:8 ~layer_capacity:(Array.make 4 1)
  in
  let n0 = Net.create ~id:0 ~name:"a" ~pins:[| pin 0 0; pin 4 0 |] in
  let n1 = Net.create ~id:1 ~name:"b" ~pins:[| pin 0 0; pin 4 0 |] in
  let t () = Stree.of_edges ~root:(0, 0) [ ((0, 0), (4, 0)) ] in
  let asg = Assignment.create ~graph ~nets:[| n0; n1 |] ~trees:[| Some (t ()); Some (t ()) |] in
  let infos = Hashtbl.create 4 in
  (* fully assign first so path_info works, then release *)
  Assignment.set_layer asg ~net:0 ~seg:0 ~layer:0;
  Assignment.set_layer asg ~net:1 ~seg:0 ~layer:2;
  Hashtbl.replace infos 0 (Critical.path_info asg 0);
  Hashtbl.replace infos 1 (Critical.path_info asg 1);
  Assignment.unassign asg ~net:0 ~seg:0;
  Assignment.unassign asg ~net:1 ~seg:0;
  let items =
    [ { Partition.net = 0; seg = 0; mid = (2, 0) }; { Partition.net = 1; seg = 0; mid = (2, 0) } ]
  in
  let f = Formulation.build asg ~infos:(Hashtbl.find infos) ~items in
  (* both want the top layer *)
  Post_map.run asg ~vars:f.Formulation.vars ~x:(fun _ _ -> 0.9);
  let l0 = Assignment.layer asg ~net:0 ~seg:0 and l1 = Assignment.layer asg ~net:1 ~seg:0 in
  Alcotest.(check bool) "both assigned" true (l0 >= 0 && l1 >= 0);
  Alcotest.(check bool) "different layers" true (l0 <> l1);
  Alcotest.(check int) "no overflow" 0 (Cpla_grid.Graph.edge_overflow graph)

let test_post_map_prefers_high_x () =
  let asg = build_design ~nets:200 () in
  let released = Critical.select asg ~ratio:0.01 in
  let infos = build_infos asg released in
  let items = released_items asg released in
  List.iter (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg) items;
  let f = Formulation.build asg ~infos ~items in
  (* x strongly favours the highest candidate of every var *)
  Post_map.run asg ~vars:f.Formulation.vars ~x:(fun vi ci ->
      let v = f.Formulation.vars.(vi) in
      if ci = Array.length v.Formulation.cands - 1 then 0.95 else 0.01);
  let total = Array.length f.Formulation.vars in
  let on_top = ref 0 in
  Array.iter
    (fun (v : Formulation.var) ->
      let l = Assignment.layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg in
      if l = v.Formulation.cands.(Array.length v.Formulation.cands - 1) then incr on_top)
    f.Formulation.vars;
  Alcotest.(check bool) "most vars on their top candidate" true
    (float_of_int !on_top >= 0.7 *. float_of_int total)

(* Regression for the ranking comparator: polymorphic [compare b a] left the
   order unspecified under NaN and broke value-ties by reversed construction
   order.  The total order must (a) survive NaN fractional values and still
   assign every variable, and (b) be a pure function of (value, index) so
   two identical designs map identically. *)
let test_post_map_nan_and_ties_deterministic () =
  let solve () =
    let asg = build_design ~nets:200 () in
    let released = Critical.select asg ~ratio:0.01 in
    let infos = build_infos asg released in
    let items = released_items asg released in
    List.iter
      (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg)
      items;
    let f = Formulation.build asg ~infos ~items in
    (* every value is a NaN or a shared constant: worst case for the sort *)
    Post_map.run asg ~vars:f.Formulation.vars ~x:(fun vi _ ->
        if vi mod 3 = 0 then Float.nan else 0.5);
    Array.map
      (fun (v : Formulation.var) ->
        Assignment.layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg)
      f.Formulation.vars
  in
  let a = solve () and b = solve () in
  Alcotest.(check bool) "every variable assigned despite NaN" true
    (Array.for_all (fun l -> l >= 0) a);
  Alcotest.(check bool) "identical runs map identically" true (a = b)

let test_post_map_nan_ranks_last () =
  (* same two-segment contention as the capacity test, but net 0's value is
     NaN: net 1 must win the contested top layer *)
  let tech = Cpla_grid.Tech.default ~num_layers:4 () in
  let graph =
    Cpla_grid.Graph.create ~tech ~width:8 ~height:8 ~layer_capacity:(Array.make 4 1)
  in
  let n0 = Net.create ~id:0 ~name:"a" ~pins:[| pin 0 0; pin 4 0 |] in
  let n1 = Net.create ~id:1 ~name:"b" ~pins:[| pin 0 0; pin 4 0 |] in
  let t () = Stree.of_edges ~root:(0, 0) [ ((0, 0), (4, 0)) ] in
  let asg = Assignment.create ~graph ~nets:[| n0; n1 |] ~trees:[| Some (t ()); Some (t ()) |] in
  let infos = Hashtbl.create 4 in
  Assignment.set_layer asg ~net:0 ~seg:0 ~layer:0;
  Assignment.set_layer asg ~net:1 ~seg:0 ~layer:2;
  Hashtbl.replace infos 0 (Critical.path_info asg 0);
  Hashtbl.replace infos 1 (Critical.path_info asg 1);
  Assignment.unassign asg ~net:0 ~seg:0;
  Assignment.unassign asg ~net:1 ~seg:0;
  let items =
    [ { Partition.net = 0; seg = 0; mid = (2, 0) }; { Partition.net = 1; seg = 0; mid = (2, 0) } ]
  in
  let f = Formulation.build asg ~infos:(Hashtbl.find infos) ~items in
  let x vi _ =
    if f.Formulation.vars.(vi).Formulation.net = 0 then Float.nan else 0.9
  in
  Post_map.run asg ~vars:f.Formulation.vars ~x;
  let l0 = Assignment.layer asg ~net:0 ~seg:0 and l1 = Assignment.layer asg ~net:1 ~seg:0 in
  Alcotest.(check bool) "both assigned" true (l0 >= 0 && l1 >= 0);
  Alcotest.(check bool) "real value outranks NaN on the contested layer" true (l1 > l0)

let test_fallback_layer_picks_freest () =
  let asg = build_design ~nets:50 () in
  let released = Critical.select asg ~ratio:0.02 in
  let infos = build_infos asg released in
  let items = released_items asg released in
  List.iter (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg) items;
  let f = Formulation.build asg ~infos ~items in
  Array.iter
    (fun (v : Formulation.var) ->
      let l = Post_map.fallback_layer asg v in
      Alcotest.(check bool) "fallback is a candidate" true (Array.mem l v.Formulation.cands))
    f.Formulation.vars;
  (* restore assignment for consistency *)
  Post_map.run asg ~vars:f.Formulation.vars ~x:(fun _ _ -> 0.5)

(* ---- Driver end-to-end ------------------------------------------------------------ *)

let test_driver_sdp_improves () =
  let asg = build_design ~w:32 ~nets:700 () in
  let released = Critical.select asg ~ratio:0.01 in
  let avg0, max0 = Critical.avg_max_tcp asg released in
  let rep = Driver.optimize_released asg ~released in
  Alcotest.(check bool) "avg improves" true (rep.Driver.avg_tcp <= avg0 +. 1e-9);
  Alcotest.(check bool) "max improves" true (rep.Driver.max_tcp <= max0 +. 1e-9);
  Alcotest.(check bool) "state consistent" true (Assignment.check_usage asg = Ok ());
  Alcotest.(check bool) "still fully assigned" true (Assignment.fully_assigned asg)

let test_driver_ilp_improves () =
  let asg = build_design ~w:32 ~nets:700 () in
  let released = Critical.select asg ~ratio:0.01 in
  let avg0, _ = Critical.avg_max_tcp asg released in
  let config = { Config.default with Config.method_ = Config.Ilp } in
  let rep = Driver.optimize_released ~config asg ~released in
  Alcotest.(check bool) "avg improves" true (rep.Driver.avg_tcp <= avg0 +. 1e-9);
  Alcotest.(check bool) "state consistent" true (Assignment.check_usage asg = Ok ())

let test_driver_sdp_close_to_ilp () =
  let mk () =
    let asg = build_design ~w:32 ~nets:700 ~seed:21 () in
    let released = Critical.select asg ~ratio:0.01 in
    (asg, released)
  in
  let asg_s, rel_s = mk () in
  let rep_s = Driver.optimize_released asg_s ~released:rel_s in
  let asg_i, rel_i = mk () in
  let config = { Config.default with Config.method_ = Config.Ilp } in
  let rep_i = Driver.optimize_released ~config asg_i ~released:rel_i in
  (* Fig. 7a/7b: SDP within a few percent of ILP *)
  Alcotest.(check bool) "avg within 10%" true
    (rep_s.Driver.avg_tcp <= rep_i.Driver.avg_tcp *. 1.10);
  Alcotest.(check bool) "max within 15%" true
    (rep_s.Driver.max_tcp <= rep_i.Driver.max_tcp *. 1.15)

let test_driver_no_edge_overflow_added () =
  let asg = build_design ~w:32 ~nets:700 () in
  let before = Cpla_grid.Graph.edge_overflow (Assignment.graph asg) in
  let released = Critical.select asg ~ratio:0.01 in
  ignore (Driver.optimize_released asg ~released);
  let after = Cpla_grid.Graph.edge_overflow (Assignment.graph asg) in
  Alcotest.(check bool) "edge overflow bounded" true (after <= before + 5)

let test_driver_requires_full_assignment () =
  let spec = { Synth.default_spec with Synth.num_nets = 50; width = 16; height = 16 } in
  let graph, nets = Synth.generate spec in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Alcotest.(check bool) "raises on unassigned" true
    (match Driver.optimize asg with exception Invalid_argument _ -> true | _ -> false)

let test_driver_empty_release () =
  let asg = build_design ~nets:100 () in
  let rep = Driver.optimize_released asg ~released:[||] in
  Alcotest.(check int) "no iterations" 0 rep.Driver.iterations

let test_metrics_measure () =
  let asg = build_design ~nets:150 () in
  let released = Critical.select asg ~ratio:0.02 in
  let m = Metrics.measure asg ~released ~cpu_s:1.5 in
  Alcotest.(check bool) "avg <= max" true (m.Metrics.avg_tcp <= m.Metrics.max_tcp);
  Alcotest.(check bool) "vias positive" true (m.Metrics.via_count > 0);
  Alcotest.(check (float 1e-9)) "cpu recorded" 1.5 m.Metrics.cpu_s

(* ---- SDP edge-capacity overflow ---------------------------------------------- *)

(* One var whose every candidate covers an edge-layer with no free track:
   (4b) asks Σx = 1 while each (4c) row caps its candidate at 0, so only
   the overflow can make the relaxation feasible. *)
let overfull_formulation () =
  let edge = { Cpla_grid.Graph.dir = Cpla_grid.Tech.Horizontal; x = 0; y = 0 } in
  let var =
    {
      Formulation.net = 0;
      seg = 0;
      dir = Cpla_grid.Tech.Horizontal;
      cands = [| 0; 2 |];
      ts = [| 400.0; 250.0 |];
      edges = [| edge |];
    }
  in
  let cap_rows =
    Array.mapi
      (fun ci layer -> { Formulation.edge; layer; limit = 0; members = [ (0, ci) ] })
      var.Formulation.cands
  in
  { Formulation.vars = [| var |]; pairs = [||]; cap_rows; via_rows = [||] }

(* Σ o of a solve's factor: the overflows are the trailing |cap_rows| rows,
   o = Σ_c V_{o,c}², summed as the kernel sums diag(VVᵀ). *)
let overflow_of_factor (f : Formulation.t) factor =
  let ncap = Array.length f.Formulation.cap_rows in
  let dim = Formulation.candidate_total f + (2 * ncap) in
  let r = Array.length factor / dim in
  let acc = ref 0.0 in
  for i = dim - ncap to dim - 1 do
    let o = ref 0.0 in
    for c = 0 to r - 1 do
      o := !o +. (factor.((i * r) + c) ** 2.0)
    done;
    acc := !acc +. !o
  done;
  !acc

(* Without the overflow this solve stalls at a violation of 1/3 after all
   [max_outer] rounds. *)
let test_sdp_capacity_overflow () =
  let options = Config.default.Config.sdp_options in
  let f = overfull_formulation () in
  let ws = Cpla_sdp.Kernel.ws_create () in
  let sol = Sdp_method.solve ~options ~alpha:Config.default.Config.alpha ~ws f in
  let viol = Cpla_sdp.Kernel.max_violation ws in
  Alcotest.(check bool)
    (Printf.sprintf "feasible (violation %g)" viol)
    true
    (viol <= 100.0 *. options.Cpla_sdp.Solver.feas_tol);
  Alcotest.(check bool) "stops before the round cap" true
    (Cpla_sdp.Kernel.outer_rounds ws < options.Cpla_sdp.Solver.max_outer);
  let overflow = overflow_of_factor f sol.Sdp_method.factor in
  Alcotest.(check bool) (Printf.sprintf "overflow carries the segment (Σ o = %g)" overflow) true
    (overflow >= 0.9)

(* Shape of the relaxation: per capacity row one slack (+1) and one overflow
   (−1) diagonal, the overflows unranked and costing α in the normalised
   units of T; dropping the capacity rows drops exactly their entries, and
   what remains does not depend on α. *)
let build_problem_shape =
  let module P = Cpla_sdp.Problem in
  QCheck.Test.make ~name:"sdp build_problem: slack and overflow per capacity row" ~count:100
    QCheck.(pair (int_range 1 1_000_000) (float_range 1.0 5000.0))
    (fun (seed, alpha) ->
      let f = random_formulation seed in
      let { Sdp_method.problem = p; groups; _ } = Sdp_method.build_problem ~alpha f in
      let ncand = Formulation.candidate_total f and ncap = Array.length f.Formulation.cap_rows in
      (* the normalisation of T: its largest |ts| or |tv + λ| *)
      let scale =
        let m = ref 1e-12 in
        let see x = m := Float.max !m (Float.abs x) in
        Array.iter
          (fun (v : Formulation.var) -> Array.iter see v.Formulation.ts)
          f.Formulation.vars;
        Array.iter
          (fun (pr : Formulation.pair) ->
            Array.iteri
              (fun ca row ->
                Array.iteri (fun cb tv -> see (tv +. pr.Formulation.lambda.(ca).(cb))) row)
              pr.Formulation.tv)
          f.Formulation.pairs;
        !m
      in
      let is_overflow i = i >= ncand + ncap in
      let extras (c : P.constr) = List.filter (fun (e : P.entry) -> e.P.i >= ncand) c.P.terms in
      let cap_constraints = List.filter (fun c -> extras c <> []) p.P.constraints in
      let slack_and_overflow c =
        let terms = List.map (fun (e : P.entry) -> (e.P.v, e.P.i, e.P.j)) (extras c) in
        match List.sort compare terms with
        | [ (-1.0, o, o'); (1.0, s, s') ] ->
            o = o' && s = s' && is_overflow o && s = o - ncap && s >= ncand
        | _ -> false
      in
      let overflow_costs = List.filter (fun (e : P.entry) -> is_overflow e.P.i) p.P.cost in
      let uncapped = { f with Formulation.cap_rows = [||] } in
      let bare = Sdp_method.build_problem ~alpha uncapped in
      p.P.dim = ncand + (2 * ncap)
      && List.length cap_constraints = ncap
      && List.for_all slack_and_overflow cap_constraints
      && List.sort compare (List.map (fun (e : P.entry) -> e.P.i) overflow_costs)
         = List.init ncap (fun ri -> ncand + ncap + ri)
      && List.for_all
           (fun (e : P.entry) -> e.P.i = e.P.j && e.P.v = alpha /. scale)
           overflow_costs
      && Array.for_all (fun g -> g = -1) (Array.sub groups ncand (2 * ncap))
      && bare.Sdp_method.problem.P.dim = ncand
      && bare.Sdp_method.problem.P.cost = List.filter (fun (e : P.entry) -> e.P.j < ncand) p.P.cost
      && bare.Sdp_method.problem.P.constraints
         = List.filter (fun c -> extras c = []) p.P.constraints
      && bare.Sdp_method.groups = Array.sub groups 0 ncand
      && (Sdp_method.build_problem ~alpha:(2.0 *. alpha) uncapped).Sdp_method.problem
         = bare.Sdp_method.problem)

let suite =
  [
    Alcotest.test_case "partition covers all" `Quick test_partition_covers_all;
    Alcotest.test_case "partition bound respected" `Quick test_partition_bound_respected;
    Alcotest.test_case "partition items inside leaf" `Quick test_partition_items_inside_leaf;
    Alcotest.test_case "partition hotspot subdivides" `Quick test_partition_hotspot_subdivides;
    Alcotest.test_case "partition deterministic" `Quick test_partition_deterministic;
    QCheck_alcotest.to_alcotest partition_coverage_property;
    Alcotest.test_case "formulation shape" `Quick test_formulation_shape;
    Alcotest.test_case "formulation requires unassigned" `Quick test_formulation_requires_unassigned;
    Alcotest.test_case "ts prefers high layer for long segs" `Quick
      test_formulation_ts_prefers_high_layer_for_long;
    Alcotest.test_case "ilp model valid" `Quick test_ilp_model_valid;
    Alcotest.test_case "sdp problem wellformed" `Quick test_sdp_problem_wellformed;
    Alcotest.test_case "sdp x values in range" `Slow test_sdp_x_values_in_range;
    Alcotest.test_case "sdp ranked exit property" `Quick test_sdp_ranked_exit;
    Alcotest.test_case "post-map respects capacity" `Quick test_post_map_respects_capacity;
    Alcotest.test_case "post-map prefers high x" `Quick test_post_map_prefers_high_x;
    Alcotest.test_case "post-map nan+tie determinism" `Quick
      test_post_map_nan_and_ties_deterministic;
    Alcotest.test_case "post-map nan ranks last" `Quick test_post_map_nan_ranks_last;
    Alcotest.test_case "fallback layer is a candidate" `Quick test_fallback_layer_picks_freest;
    Alcotest.test_case "driver sdp improves timing" `Slow test_driver_sdp_improves;
    Alcotest.test_case "driver ilp improves timing" `Slow test_driver_ilp_improves;
    Alcotest.test_case "driver sdp close to ilp" `Slow test_driver_sdp_close_to_ilp;
    Alcotest.test_case "driver keeps edges legal" `Slow test_driver_no_edge_overflow_added;
    Alcotest.test_case "driver requires full assignment" `Quick test_driver_requires_full_assignment;
    Alcotest.test_case "driver empty release" `Quick test_driver_empty_release;
    Alcotest.test_case "metrics measure" `Quick test_metrics_measure;
    Alcotest.test_case "sdp capacity overflow ends the stall" `Quick test_sdp_capacity_overflow;
    QCheck_alcotest.to_alcotest build_problem_shape;
  ]
