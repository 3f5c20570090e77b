type method_ = Sdp | Ilp

type t = {
  critical_ratio : float;
  k_div : int;
  max_segments_per_partition : int;
  method_ : method_;
  alpha : float;
  max_outer_iters : int;
  local_refinement : bool;
  boundary_coupling : bool;
  warm_start : bool;
  ilp_options : Cpla_ilp.Solver.options;
  sdp_options : Cpla_sdp.Solver.options;
}

let default =
  {
    critical_ratio = 0.005;
    k_div = 4;
    max_segments_per_partition = 10;
    method_ = Sdp;
    alpha = 2000.0;
    max_outer_iters = 5;
    local_refinement = true;
    boundary_coupling = true;
    warm_start = true;
    ilp_options = { Cpla_ilp.Solver.default_options with Cpla_ilp.Solver.time_limit_s = 10.0 };
    (* tuned: post-mapping plus the local refinement only read the
       per-layer *ranking* of diag(VVᵀ), and the kernel stops once that
       ranking settles.  Rank 2 keeps rank 6's L-BFGS iteration count
       (newblue4 117,823 vs 118,104) at ~3x less time per iteration, with
       the same Max(Tcp) on all 15 suite designs, Avg(Tcp) within 0.3%,
       and 45% less suite optimise CPU.  Rank 1 costs bigblue3 +1.2%
       Max(Tcp).  EXPERIMENTS.md, "SDP rank". *)
    sdp_options =
      {
        Cpla_sdp.Solver.default_options with
        Cpla_sdp.Solver.max_outer = 8;
        inner_iters = 100;
        rank = 2;
      };
  }
