(** Congestion-aware 2-D global router.

    Plays the role NCTU-GR plays in the paper: produces the initial routing
    topology that layer assignment then works on.  Nets are routed in
    ascending-HPWL order with L/Z pattern candidates scored by a congestion
    cost, falling back to Dijkstra maze routing ({!Maze}) when every pattern
    overflows; an optional rip-up-and-reroute pass cleans residual 2-D
    overflow.  Edge costs live in per-direction cost planes that are
    updated as demand changes, so scoring a path or a maze step is an array
    read.

    The router tracks 2-D demand against the layer-aggregated capacities of
    the grid; per-layer usage is installed later by the initial layer
    assignment. *)

type result = {
  trees : Stree.t option array;
      (** [trees.(i)] is net [i]'s Steiner tree (compressed, pin tiles kept
          as nodes); [None] when the net's pins collapse to a single tile *)
  overflow_2d : int;  (** total 2-D edge overflow after routing *)
  maze_routes : int;  (** connections that needed the maze fallback *)
}

val route_all :
  ?rrr_passes:int -> ?steiner:bool -> graph:Cpla_grid.Graph.t -> Net.t array -> result
(** Route every net.  [rrr_passes] (default 1) rip-up-and-reroute passes are
    applied to nets crossing overflowed 2-D edges.  [steiner] (default
    false) refines each net's topology with iterated-1-Steiner points
    ({!Steiner}) before routing — shorter trees at extra routing time. *)

val route_net :
  ?steiner:bool ->
  graph:Cpla_grid.Graph.t ->
  demand:(Cpla_grid.Graph.edge2d -> int) ->
  Net.t ->
  Stree.t option
(** Route a single net against an external demand snapshot without mutating
    anything; exposed for tests and incremental use. *)

val cost_planes :
  graph:Cpla_grid.Graph.t -> demand:(Cpla_grid.Graph.edge2d -> int) -> Maze.costs
(** The congestion cost of crossing every 2-D edge given a demand snapshot —
    the planes [route_net] routes against and [route_all] keeps in step with
    its own demand. *)

val best_pattern :
  Maze.costs -> covered:Maze.point list -> Maze.point -> Maze.point -> Maze.point list * float * int
(** [best_pattern costs ~covered a b] is the pattern path the router takes
    from pin [a] toward tree tile [b] when [covered] is the tree: of the
    straight run (when [a] and [b] share a coordinate) or the two Ls and up
    to six Zs, each cut at its first covered tile, the first cheapest.
    Returns its tiles, its cost (Σ of edge costs in path order) and its
    edge count; exposed for tests.

    @raise Invalid_argument if the cost planes are smaller than the grid or
    [a], [b] or a [covered] tile lies outside it. *)
