(** Rectilinear Steiner trees on the routing grid.

    A tree is a set of nodes at tile coordinates with parent pointers rooted
    at the net's source tile; every tree edge joins a node to its parent
    along a straight horizontal or vertical run.  Tree edges are exactly the
    *segments* of the paper's formulation once [compress] has merged
    collinear runs. *)

type point = int * int

type t = {
  nodes : point array;
  parent : int array;  (** [parent.(root) = -1]; otherwise index into [nodes] *)
  root : int;
}

val of_edges : root:point -> (point * point) list -> t
(** Build a tree from undirected straight edges.  Node set is inferred; the
    node at [root] becomes the root.

    @raise Invalid_argument if an edge is not axis-aligned, the edges do not
    form a connected acyclic graph, or [root] is not among the endpoints. *)

val num_nodes : t -> int

val node : t -> int -> point

val children : t -> int array array
(** [children t].(i) lists the child node indices of node [i]. *)


val total_wirelength : t -> int

val find_node : t -> point -> int option

val find_node_xy : t -> int -> int -> int
(** [find_node_xy t x y] is the index of the node at (x, y), or [-1] when
    there is none; {!find_node} without the option. *)

val contains_point : t -> point -> bool
(** Whether the point lies on any tree edge (not necessarily at a node). *)

val compress : keep:point list -> t -> t
(** Merge every non-root degree-2 node whose two incident edges are
    collinear, except nodes at coordinates listed in [keep] (pin tiles must
    stay nodes so pin vias land on tree nodes).  The result has the same
    wire shape with maximal straight edges. *)

val path_to_root : t -> int -> int list
(** Node indices from the given node up to (and including) the root. *)

val validate : t -> (unit, string) result
(** Structural invariants: single root, acyclic parents, axis-aligned edges,
    no zero-length edges, no duplicate node coordinates. *)
