open Cpla_route
open Cpla_timing
open Cpla

(* Driver-level incrementality must be an optimisation, not a semantics
   change: with warm starts off, the dirty-partition loop commits layers
   bitwise identical to the from-scratch loop's, with the solve cache on
   or off.  Warm starts trade that identity for speed within score
   tolerance.  Plus the canonical-digest contract the solve cache keys on,
   and the convergence-loop regression fixtures (non-finite scores,
   discarded-sweep accounting). *)

let build_design ?(w = 24) ?(nets = 300) ?(cap = 8) ~seed () =
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

let layers_of asg =
  Array.init (Assignment.num_nets asg) (fun n ->
      Array.mapi
        (fun s _ -> Assignment.layer asg ~net:n ~seg:s)
        (Assignment.segments asg n))

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

(* ---- incremental ≡ from-scratch -------------------------------------------- *)

(* The from-scratch reference: [Driver]'s outer loop — the same score
   (Avg + 0.05·Max), the same restore on a worse or non-finite score, the
   same 1e-6 relative stop rule — over a scheduler whose every released net
   is re-dirtied before each sweep, so no leaf is ever skipped. *)
let from_scratch ~config asg ~released =
  let engine = Incremental.create asg in
  let st = Driver.Incr.create ~config ~engine asg ~released in
  let score () =
    let avg, mx = Incremental.avg_max_tcp engine released in
    avg +. (0.05 *. mx)
  in
  let snapshot () =
    Array.map
      (fun net ->
        Array.mapi (fun seg _ -> Assignment.layer asg ~net ~seg) (Assignment.segments asg net))
      released
  in
  let restore snap =
    Array.iteri
      (fun i net ->
        Array.iteri (fun seg layer -> Assignment.set_layer asg ~net ~seg ~layer) snap.(i))
      released
  in
  let best = ref (score ()) in
  let rec loop iter =
    if iter < config.Config.max_outer_iters then begin
      Array.iter (Driver.Incr.mark_net_dirty st) released;
      let snap = snapshot () in
      ignore (Driver.Incr.sweep st);
      let s = score () in
      if (not (Float.is_finite s)) || s > !best then restore snap
      else if s < !best -. (1e-6 *. Float.abs !best) then begin
        best := s;
        loop (iter + 1)
      end
    end
  in
  loop 0;
  Incremental.avg_max_tcp engine released

(* The core contract: over random designs, release sets (via the seed)
   and sweep budgets, the incremental driver with warm starts off commits
   exactly the layers the every-leaf-dirty loop commits. *)
let equivalence_property =
  QCheck.Test.make ~name:"driver: incremental ≡ from-scratch layers (warm off)" ~count:5
    QCheck.(pair (int_range 0 9999) (int_range 1 4))
    (fun (seed, iters) ->
      let mk () =
        let asg = build_design ~seed () in
        let released = Critical.select asg ~ratio:0.02 in
        (asg, released)
      in
      let asg_a, rel_a = mk () in
      let asg_b, rel_b = mk () in
      if rel_a <> rel_b then QCheck.Test.fail_report "fixture is non-deterministic";
      let config =
        { Config.default with Config.warm_start = false; max_outer_iters = iters }
      in
      let avg_a, max_a = from_scratch ~config asg_a ~released:rel_a in
      let rb = Driver.optimize_released ~config asg_b ~released:rel_b in
      layers_of asg_a = layers_of asg_b
      && close avg_a rb.Driver.avg_tcp
      && close max_a rb.Driver.max_tcp
      && Assignment.check_usage asg_b = Ok ())

(* A hit replays the stored cold-start solution, and with warm starts off
   every solve is a cold start — so the cache must be invisible in the
   committed layers, whether it is empty or shared with previous runs. *)
let cache_transparency_property =
  QCheck.Test.make ~name:"driver: solve cache invisible with warm starts off" ~count:4
    QCheck.(int_range 0 9999)
    (fun seed ->
      let mk () =
        let asg = build_design ~seed () in
        let released = Critical.select asg ~ratio:0.02 in
        (asg, released)
      in
      let config =
        { Config.default with Config.warm_start = false; max_outer_iters = 3 }
      in
      let asg_a, rel_a = mk () in
      let _ = Driver.optimize_released ~config asg_a ~released:rel_a in
      let cache = Solve_cache.create () in
      let asg_b, rel_b = mk () in
      let _ = Driver.optimize_released ~config ~solve_cache:cache asg_b ~released:rel_b in
      (* an identical rebuilt design replays through the now-warm cache *)
      let asg_c, rel_c = mk () in
      let _ = Driver.optimize_released ~config ~solve_cache:cache asg_c ~released:rel_c in
      layers_of asg_a = layers_of asg_b && layers_of asg_a = layers_of asg_c)

(* Warm starts change solver iterates, never validity: the state stays
   consistent and the score lands within tolerance of the cold loop. *)
let warm_start_validity_property =
  QCheck.Test.make ~name:"driver: warm starts valid and within score tolerance" ~count:4
    QCheck.(int_range 0 9999)
    (fun seed ->
      let mk () =
        let asg = build_design ~seed () in
        let released = Critical.select asg ~ratio:0.02 in
        (asg, released)
      in
      let asg_cold, rel_cold = mk () in
      let cold =
        Driver.optimize_released
          ~config:{ Config.default with Config.warm_start = false }
          asg_cold ~released:rel_cold
      in
      let asg_warm, rel_warm = mk () in
      let warm =
        Driver.optimize_released
          ~config:{ Config.default with Config.warm_start = true }
          asg_warm ~released:rel_warm
      in
      Assignment.fully_assigned asg_warm
      && Assignment.check_usage asg_warm = Ok ()
      && warm.Driver.avg_tcp <= (cold.Driver.avg_tcp *. 1.10) +. 1e-9
      && warm.Driver.max_tcp <= (cold.Driver.max_tcp *. 1.15) +. 1e-9)

let cache_fixture () =
  let asg = build_design ~w:32 ~nets:600 ~seed:11 () in
  let released = Critical.select asg ~ratio:0.01 in
  (asg, released)

let cache_config =
  { Config.default with Config.warm_start = false; max_outer_iters = 2 }

(* Deterministic cache fixture: a repeated identical run must actually hit
   (the property above only proves hits are harmless). *)
let test_cache_hits_on_repeat () =
  let mk = cache_fixture and config = cache_config in
  let cache = Solve_cache.create () in
  let asg_a, rel_a = mk () in
  let _ = Driver.optimize_released ~config ~solve_cache:cache asg_a ~released:rel_a in
  let misses_first = Solve_cache.misses cache in
  Alcotest.(check bool) "first run stores coupled solves" true
    (misses_first > 0 && Solve_cache.length cache > 0);
  let asg_b, rel_b = mk () in
  let _ = Driver.optimize_released ~config ~solve_cache:cache asg_b ~released:rel_b in
  Alcotest.(check bool) "identical rerun hits" true (Solve_cache.hits cache > 0);
  Alcotest.(check int) "identical rerun misses nothing new" misses_first
    (Solve_cache.misses cache);
  Alcotest.(check bool) "hit run commits the same layers" true
    (layers_of asg_a = layers_of asg_b)

(* ---- convergence-loop regressions ------------------------------------------- *)

(* An infinite sink load makes some Tcp infinite and the released-set
   average NaN (inf · 0 terms), so the loop's score goes non-finite.  NaN
   fails both orderings, and the loop used to fall through to "no
   improvement: stop" WITHOUT restoring, committing (and counting) a
   NaN-scored sweep.  Non-finite must be treated as a regression: restore
   and stop. *)
let test_nan_score_restores_and_does_not_count () =
  let spec =
    {
      Synth.default_spec with
      Synth.width = 16;
      height = 16;
      num_layers = 6;
      num_nets = 100;
      seed = 3;
      mean_extra_pins = 1.0;
      blockage_fraction = 0.0;
    }
  in
  let _, nets = Synth.generate spec in
  let tech =
    {
      (Cpla_grid.Tech.default ~num_layers:6 ()) with
      Cpla_grid.Tech.sink_c = Float.infinity;
    }
  in
  let graph =
    Cpla_grid.Graph.create ~tech ~width:16 ~height:16 ~layer_capacity:(Array.make 6 12)
  in
  let routed = Router.route_all ~graph nets in
  let asg = Assignment.create ~graph ~nets ~trees:routed.Router.trees in
  Init_assign.run asg;
  let released =
    Array.init (Assignment.num_nets asg) Fun.id |> Array.to_list
    |> List.filter (fun n -> Array.length (Assignment.segments asg n) > 0)
    |> fun l -> Array.of_list (List.filteri (fun i _ -> i < 12) l)
  in
  Alcotest.(check bool) "fixture releases nets" true (Array.length released > 0);
  let before = layers_of asg in
  let config = { Config.default with Config.max_outer_iters = 3 } in
  let rep = Driver.optimize_released ~config asg ~released in
  Alcotest.(check int) "stops after the first scored sweep" 1 rep.Driver.iterations;
  Alcotest.(check int) "discarded sweep is not counted" 0 rep.Driver.partitions_solved;
  Alcotest.(check bool) "entry layers restored" true (before = layers_of asg);
  Alcotest.(check bool) "usage consistent" true (Assignment.check_usage asg = Ok ())

(* The happy-path complement: committed sweeps do count. *)
let test_committed_sweeps_counted () =
  let asg = build_design ~seed:5 () in
  let released = Critical.select asg ~ratio:0.02 in
  let rep =
    Driver.optimize_released asg ~released
  in
  Alcotest.(check bool) "committed work is reported" true (rep.Driver.partitions_solved > 0);
  Alcotest.(check bool) "iterations reported" true (rep.Driver.iterations >= 1)

(* ---- Incr scheduler unit behaviour ------------------------------------------ *)

let test_incr_converges_and_redirties () =
  let asg = build_design ~seed:8 () in
  let released = Critical.select asg ~ratio:0.02 in
  let engine = Cpla_timing.Incremental.create asg in
  let config = { Config.default with Config.warm_start = false } in
  let st = Driver.Incr.create ~config ~engine asg ~released in
  Alcotest.(check int) "all leaves start dirty" (Driver.Incr.leaf_count st)
    (Driver.Incr.dirty_count st);
  let solved = Driver.Incr.sweep st in
  Alcotest.(check int) "cold sweep solves every leaf" (Driver.Incr.leaf_count st) solved;
  (* drive to a fixed point: each sweep only re-solves what the last one moved *)
  let budget = ref 12 in
  while Driver.Incr.dirty_count st > 0 && !budget > 0 do
    let s = Driver.Incr.sweep st in
    Alcotest.(check bool) "dirty sweeps shrink to the dirty set" true
      (s <= Driver.Incr.leaf_count st);
    decr budget
  done;
  Alcotest.(check bool) "fixed point reached" true (Driver.Incr.dirty_count st = 0);
  Alcotest.(check int) "sweep at a fixed point is a no-op" 0 (Driver.Incr.sweep st);
  (* an external change re-dirties that net's leaves and their neighbours *)
  Driver.Incr.mark_net_dirty st released.(0);
  Alcotest.(check bool) "marking a net dirties its leaves" true
    (Driver.Incr.dirty_count st > 0);
  Alcotest.(check bool) "re-sweep solves only the dirty region" true
    (Driver.Incr.sweep st < Driver.Incr.leaf_count st);
  Alcotest.(check bool) "unknown nets are ignored" true
    (Driver.Incr.mark_net_dirty st max_int = ())

(* ---- digest: the cache key's canonicalisation contract ----------------------- *)

let build_infos asg released =
  let infos = Hashtbl.create 16 in
  Array.iter (fun n -> Hashtbl.replace infos n (Critical.path_info asg n)) released;
  Hashtbl.find infos

let leaf_formulations asg released =
  let infos = build_infos asg released in
  let items =
    Array.to_list released
    |> List.concat_map (fun net ->
           Array.to_list
             (Array.mapi
                (fun seg s -> { Partition.net; seg; mid = Segment.midpoint s })
                (Assignment.segments asg net)))
  in
  let graph = Assignment.graph asg in
  let leaves =
    Partition.build
      ~width:(Cpla_grid.Graph.width graph)
      ~height:(Cpla_grid.Graph.height graph)
      ~k:4 ~max_segments:8 items
  in
  List.filter_map
    (fun leaf ->
      List.iter
        (fun it -> Assignment.unassign asg ~net:it.Partition.net ~seg:it.Partition.seg)
        leaf.Partition.items;
      let f = Formulation.build asg ~infos ~items:leaf.Partition.items in
      Array.iter
        (fun (v : Formulation.var) ->
          Assignment.set_layer asg ~net:v.Formulation.net ~seg:v.Formulation.seg
            ~layer:v.Formulation.cands.(0))
        f.Formulation.vars;
      if Formulation.var_count f > 0 then Some f else None)
    leaves

let digest_fixture () =
  let asg = build_design ~w:32 ~nets:600 ~seed:11 () in
  let released = Critical.select asg ~ratio:0.01 in
  leaf_formulations asg released

let rename_nets delta (f : Formulation.t) =
  {
    f with
    Formulation.vars =
      Array.map
        (fun (v : Formulation.var) -> { v with Formulation.net = v.Formulation.net + delta })
        f.Formulation.vars;
  }

let translate ~dx ~dy (f : Formulation.t) =
  let edge (e : Cpla_grid.Graph.edge2d) =
    { e with Cpla_grid.Graph.x = e.Cpla_grid.Graph.x + dx; y = e.Cpla_grid.Graph.y + dy }
  in
  let tile (x, y) = (x + dx, y + dy) in
  {
    Formulation.vars =
      Array.map
        (fun (v : Formulation.var) ->
          { v with Formulation.edges = Array.map edge v.Formulation.edges })
        f.Formulation.vars;
    pairs =
      Array.map
        (fun (p : Formulation.pair) -> { p with Formulation.tile = tile p.Formulation.tile })
        f.Formulation.pairs;
    cap_rows =
      Array.map
        (fun (c : Formulation.cap_row) ->
          { c with Formulation.edge = edge c.Formulation.edge })
        f.Formulation.cap_rows;
    via_rows =
      Array.map
        (fun (vr : Formulation.via_row) ->
          { vr with Formulation.tile = tile vr.Formulation.tile })
        f.Formulation.via_rows;
  }

let test_digest_stable_under_renaming () =
  let fs = digest_fixture () in
  Alcotest.(check bool) "fixture has formulations" true (fs <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "digest is deterministic" (Formulation.digest f)
        (Formulation.digest f);
      (* any order-preserving injective renaming of net ids is invisible:
         the digest symbolises nets by first appearance *)
      Alcotest.(check string) "net renumbering invisible" (Formulation.digest f)
        (Formulation.digest (rename_nets 1000 f));
      (* absolute grid coordinates are dropped: a translated copy of the
         same subproblem shares the key *)
      Alcotest.(check string) "grid translation invisible" (Formulation.digest f)
        (Formulation.digest (translate ~dx:3 ~dy:5 f)))
    fs;
  let distinct =
    List.sort_uniq compare (List.map Formulation.digest fs) |> List.length
  in
  Alcotest.(check bool) "different subproblems get different keys" true (distinct > 1)

let test_digest_row_order_canonical () =
  let fs = digest_fixture () in
  let rev_rows (f : Formulation.t) =
    {
      f with
      Formulation.cap_rows =
        (let c = Array.copy f.Formulation.cap_rows in
         let n = Array.length c in
         Array.init n (fun i -> c.(n - 1 - i)));
      via_rows =
        (let v = Array.copy f.Formulation.via_rows in
         let n = Array.length v in
         Array.init n (fun i -> v.(n - 1 - i)));
    }
  in
  List.iter
    (fun f ->
      Alcotest.(check string) "constraint-row order invisible" (Formulation.digest f)
        (Formulation.digest (rev_rows f)))
    fs

let test_digest_sensitive_to_coefficients () =
  let fs = digest_fixture () in
  let f = List.hd fs in
  let bump_ts (f : Formulation.t) =
    {
      f with
      Formulation.vars =
        Array.mapi
          (fun i (v : Formulation.var) ->
            if i = 0 then
              {
                v with
                Formulation.ts =
                  Array.mapi
                    (fun j t -> if j = 0 then t *. 1.001 else t)
                    v.Formulation.ts;
              }
            else v)
          f.Formulation.vars;
    }
  in
  Alcotest.(check bool) "timing coefficients are load-bearing" true
    (Formulation.digest f <> Formulation.digest (bump_ts f));
  match
    List.find_opt (fun f -> Array.length f.Formulation.cap_rows > 0) fs
  with
  | None -> Alcotest.fail "fixture produced no capacity-constrained leaf"
  | Some f ->
      let bump_limit (f : Formulation.t) =
        {
          f with
          Formulation.cap_rows =
            Array.mapi
              (fun i (c : Formulation.cap_row) ->
                if i = 0 then { c with Formulation.limit = c.Formulation.limit + 1 }
                else c)
              f.Formulation.cap_rows;
        }
      in
      Alcotest.(check bool) "capacity limits are load-bearing" true
        (Formulation.digest f <> Formulation.digest (bump_limit f))

(* ---- golden: the production driver path is pinned ----------------------------

   Digests of [Driver.optimize] with the default configuration — warm
   starts on — recorded before the from-scratch sweep was deleted: the MD5
   of every net's committed layers plus the bit patterns of Avg/Max Tcp.
   The equivalence properties above run with warm starts off; this pins the
   path production runs take, including a replay through a shared solve
   cache.  [critical_ratio] is raised so the small designs release enough
   nets to exercise several partitions. *)
let driver_digest asg (r : Driver.report) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun layers ->
      Array.iter (fun l -> Printf.bprintf b "%d " l) layers;
      Buffer.add_char b ';')
    (layers_of asg);
  Printf.sprintf "%s %h %h"
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    r.Driver.avg_tcp r.Driver.max_tcp

let golden_run ?solve_cache ~seed ~method_ () =
  let asg = build_design ~w:32 ~nets:600 ~seed () in
  let config = { Config.default with Config.method_; critical_ratio = 0.02 } in
  driver_digest asg (Driver.optimize ~config ?solve_cache asg)

let test_driver_golden () =
  List.iter
    (fun (label, seed, method_, digest) ->
      Alcotest.(check string) label digest (golden_run ~seed ~method_ ()))
    [
      ("seed 11 sdp", 11, Config.Sdp,
       "0486a9abc8af0a915c54fda0b3a101f5 0x1.bb09111111111p+10 0x1.609ffffffffffp+11");
      ("seed 11 ilp", 11, Config.Ilp,
       "53b6b9525accd8cd5682f41567b89753 0x1.bb18444444445p+10 0x1.609ffffffffffp+11");
      ("seed 23 sdp", 23, Config.Sdp,
       "b5988e5d80f70bb2749bb9def35910e5 0x1.d215555555555p+10 0x1.9290000000001p+11");
      ("seed 23 ilp", 23, Config.Ilp,
       "8885388ada7d22a5467277075f2558aa 0x1.d1e3bbbbbbbbcp+10 0x1.9290000000001p+11");
    ];
  (* the second run replays the first run's cold solves from the cache *)
  let cache = Solve_cache.create () in
  let first = golden_run ~solve_cache:cache ~seed:11 ~method_:Config.Sdp () in
  let replay = golden_run ~solve_cache:cache ~seed:11 ~method_:Config.Sdp () in
  Alcotest.(check string) "cache first run"
    "0486a9abc8af0a915c54fda0b3a101f5 0x1.bb09111111111p+10 0x1.609ffffffffffp+11" first;
  Alcotest.(check bool) "replay hits the cache" true (Solve_cache.hits cache > 0);
  Alcotest.(check string) "cache replay"
    "0486a9abc8af0a915c54fda0b3a101f5 0x1.bb09111111111p+10 0x1.609ffffffffffp+11" replay

(* The SDP charges edge overflow α, so α is part of the cache key: a cache
   filled at α = 2000 serves no solve at α = 1000, although the first
   sweep poses the same formulations. *)
let test_cache_keyed_on_alpha () =
  let options = cache_config.Config.sdp_options in
  Alcotest.(check bool) "keys differ" true
    (Solve_cache.key ~options ~alpha:2000.0 "d" <> Solve_cache.key ~options ~alpha:1000.0 "d");
  let cache = Solve_cache.create () in
  let asg_a, rel_a = cache_fixture () in
  let config = { cache_config with Config.alpha = 2000.0 } in
  let _ = Driver.optimize_released ~config ~solve_cache:cache asg_a ~released:rel_a in
  let hits = Solve_cache.hits cache and misses = Solve_cache.misses cache in
  Alcotest.(check bool) "first run stores" true (Solve_cache.length cache > 0);
  let asg_b, rel_b = cache_fixture () in
  let config = { cache_config with Config.alpha = 1000.0 } in
  let _ = Driver.optimize_released ~config ~solve_cache:cache asg_b ~released:rel_b in
  Alcotest.(check int) "no hit at another alpha" hits (Solve_cache.hits cache);
  Alcotest.(check bool) "the run looked up" true (Solve_cache.misses cache > misses)

let suite =
  [
    QCheck_alcotest.to_alcotest equivalence_property;
    QCheck_alcotest.to_alcotest cache_transparency_property;
    QCheck_alcotest.to_alcotest warm_start_validity_property;
    Alcotest.test_case "cache hits on identical rerun" `Quick test_cache_hits_on_repeat;
    Alcotest.test_case "nan score restores, uncounted" `Quick
      test_nan_score_restores_and_does_not_count;
    Alcotest.test_case "committed sweeps counted" `Quick test_committed_sweeps_counted;
    Alcotest.test_case "incr scheduler converges and re-dirties" `Quick
      test_incr_converges_and_redirties;
    Alcotest.test_case "digest stable under renaming/translation" `Quick
      test_digest_stable_under_renaming;
    Alcotest.test_case "digest row order canonical" `Quick test_digest_row_order_canonical;
    Alcotest.test_case "digest coefficient-sensitive" `Quick
      test_digest_sensitive_to_coefficients;
    Alcotest.test_case "golden driver digests" `Quick test_driver_golden;
    Alcotest.test_case "cache keyed on alpha" `Quick test_cache_keyed_on_alpha;
  ]
