(** CPLA run configuration. *)

type method_ =
  | Sdp  (** SDP relaxation + post-mapping (Sections 3.3–3.4) *)
  | Ilp  (** exact ILP (Section 3.1), budgeted branch-and-bound *)

type t = {
  critical_ratio : float;
      (** fraction of nets released as critical (the paper's 0.5% = 0.005) *)
  k_div : int;  (** the K of the K×K uniform pre-partition (Section 3.2) *)
  max_segments_per_partition : int;
      (** quadtree subdivision bound; the paper's default is 10 *)
  method_ : method_;
  alpha : float;  (** weight of the via-overflow variable V_o (paper: 2000) *)
  max_outer_iters : int;
      (** outer refreeze-and-reoptimise iterations; the paper "stops when no
          further optimizations can be achieved" *)
  local_refinement : bool;
      (** run the greedy 1-opt cleanup after post-mapping (SDP method only);
          disable for ablation studies *)
  boundary_coupling : bool;
      (** fold via delays to fixed neighbours outside the partition into the
          objective (default true); ablatable *)
  warm_start : bool;
      (** seed each leaf's SDP factor from its previous sweep's final
          iterate instead of the deterministic gaussian draw (default
          true), with a cold retry if the warm solve stalls.  Changes
          iterates (not validity); disable and the dirty-leaf sweeps
          commit bitwise the layers of sweeps that re-solve every leaf.
          SDP method only. *)
  ilp_options : Cpla_ilp.Solver.options;
  sdp_options : Cpla_sdp.Solver.options;
}

val default : t
(** ratio 0.005, K = 4, Nmax = 10, SDP method, alpha = 2000, 5 outer
    iterations. *)
