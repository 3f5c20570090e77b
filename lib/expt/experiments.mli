(** One runner per table/figure of the paper's evaluation (Section 4).

    Every runner prints a self-describing plain-text block (tables via
    {!Cpla_util.Table}, distributions via {!Cpla_util.Histogram}) so that
    `bench/main.exe` regenerates the full evaluation in one run.  All
    runners are deterministic except for the CPU-seconds columns. *)

val fig1 : unit -> unit
(** Pin-delay distribution of critical nets on adaptec1 at 0.5% released:
    TILA versus this work (two histograms). *)

val fig3b : unit -> unit
(** Routing-density map of adaptec1 after global routing. *)

val fig7 : unit -> unit
(** ILP versus SDP on the six small cases: Avg(Tcp), Max(Tcp), runtime. *)

val fig8 : unit -> unit
(** Partition-granularity sweep (max segments ∈ {5,10,20,40,80}) on
    adaptec1/adaptec2/bigblue1: impact on Avg(Tcp), Max(Tcp), runtime. *)

val fig9 : unit -> unit
(** Critical-ratio sweep (0.5%–2.5%) on adaptec1: TILA versus SDP impact on
    Avg(Tcp), Max(Tcp), runtime. *)

val table2 : unit -> unit
(** Full TILA-0.5% versus SDP-0.5% comparison across all 15 benchmarks with
    average and ratio rows. *)

(** {2 Building blocks (exposed for the CLI and tests)} *)

val released_at : Suite.prepared -> ratio:float -> int array
(** The release set used for a ratio — identical across methods because
    preparation is deterministic. *)

val extended : unit -> unit
(** Extended comparison beyond the paper: initial assignment, the
    delay-greedy class of methods (reference [9], no via-capacity model),
    TILA, and the SDP — exposing the via-overflow cost of ignoring Eqn (1). *)

val steiner : unit -> unit
(** Router-topology refinement study: Prim vs iterated-1-Steiner topology
    (wirelength, overflow, routing time, resulting Avg(Tcp)). *)

val ablations : unit -> unit
(** Ablation table for the design choices DESIGN.md calls out: 1-opt
    refinement, quadtree adaptation, partition count, SDP rank. *)
