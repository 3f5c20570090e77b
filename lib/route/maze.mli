(** Dijkstra maze routing on the 2-D projection of the grid.

    Fallback path search of the global router for connections whose pattern
    (L/Z) candidates are all congested.  The cost of crossing each 2-D edge
    is read from caller-owned cost planes, which lets the router encode
    congestion penalties without this module knowing about capacities. *)

type point = int * int

type costs = {
  width : int;
  height : int;
  h : float array;
      (** cost of the horizontal edge from [(x, y)] to [(x+1, y)], indexed
          [y*(width-1)+x] *)
  v : float array;
      (** cost of the vertical edge from [(x, y)] to [(x, y+1)], indexed
          [y*width+x] *)
}
(** Per-edge crossing costs; [infinity] (or NaN) blocks an edge.  The
    layout matches the router's demand planes. *)

type ws
(** Reusable search state (distances, predecessors, target marks and the
    heap).  One workspace serves any number of queries on grids of any
    size; it is not safe to share between domains. *)

val ws_create : unit -> ws

val route : ws -> costs -> sources:point list -> targets:point list -> point list option
(** Cheapest tile path from any source to any target; [None] when the inputs
    are empty or disconnected.  The returned path starts at a source and
    ends at a target, listing every tile visited (consecutive tiles are grid
    neighbours).  A degenerate source=target query returns the single-point
    path.  Ties are broken by the heap's push order: sources in list order,
    then neighbours in +x, -x, +y, -y order. *)
