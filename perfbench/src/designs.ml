(* Workload inputs as a pure function of the workload seed.

   The pipeline workloads run the experiment suite's designs exactly, for
   every seed.  Their cost is too sensitive to the input for a seed to vary
   it: offsetting the generator seed redraws the congestion hotspots (2-D
   overflow after routing then swings between 0 and ~3500 and routing time
   by 10-50x), and even relabelling the nets of the same placement changes
   id-based tie-breaks enough to move the optimiser between 2 and 4 outer
   iterations and 140 and 490 partition solves on newblue4 and bigblue1.
   The seed varies the daemon workload's designs, where each run averages
   hundreds of them. *)

let suite_spec name = (Cpla_expt.Suite.find name).Cpla_expt.Suite.spec

(* Daemon jobs: 24x24 grids with 600 nets, otherwise the generator's
   defaults.  Hot designs (submitted again and again) are the same for every
   seed, so the part of the load that repeats them does not change with the
   draw; designs submitted once are drawn from the workload seed. *)
let job_spec ~generator_seed i =
  {
    Cpla_route.Synth.default_spec with
    Cpla_route.Synth.name = Printf.sprintf "job%d" i;
    width = 24;
    height = 24;
    num_nets = 600;
    seed = generator_seed;
  }

let hot_spec i = job_spec ~generator_seed:(100_000 + i) i
let once_spec ~seed i = job_spec ~generator_seed:(200_000 + (1_000_003 * seed) + i) i

(* Render a generated design as ISPD'08 text, the way `cpla synth` does:
   the uniform per-layer capacity in the layer's routing direction. *)
let to_gr (spec : Cpla_route.Synth.spec) (graph, nets) =
  let module G = Cpla_grid.Graph in
  let module T = Cpla_grid.Tech in
  let nl = G.num_layers graph in
  let cap dir =
    Array.init nl (fun l -> if T.layer_dir (G.tech graph) l = dir then spec.capacity else 0)
  in
  let header =
    {
      Cpla_route.Ispd08.grid_x = G.width graph;
      grid_y = G.height graph;
      num_layers = nl;
      vertical_capacity = cap T.Vertical;
      horizontal_capacity = cap T.Horizontal;
      min_width = Array.make nl 1;
      min_spacing = Array.make nl 1;
      via_spacing = Array.make nl 1;
      lower_left_x = 0;
      lower_left_y = 0;
      tile_width = 10;
      tile_height = 10;
    }
  in
  Cpla_route.Ispd08.write { Cpla_route.Ispd08.header; nets; adjustments = [] }
