(** The 3-D grid graph of Section 2.1.

    A [width] × [height] array of tiles replicated over the layer stack.
    Edges in x (resp. y) exist only on layers whose preferred direction is
    horizontal (resp. vertical) and carry per-layer routing capacities; vias
    connect vertically adjacent tiles and are limited per Eqn (1).

    This module is the single owner of all capacity/usage accounting: the
    router, the layer-assignment state and the optimisation engines all
    mutate usage through it, so overflow numbers are consistent everywhere. *)

type t

type edge2d = {
  dir : Tech.dir;
  x : int;
  y : int;
}
(** The 2-D projection of a routing edge.  A [Horizontal] edge at [(x, y)]
    joins tiles [(x, y)] and [(x+1, y)]; a [Vertical] edge joins [(x, y)] and
    [(x, y+1)]. *)

val create : tech:Tech.t -> width:int -> height:int -> layer_capacity:int array -> t
(** Fresh graph with uniform per-layer edge capacity [layer_capacity.(l)]
    (entries for the wrong direction are ignored — an H layer only has H
    edges).  Raises [Invalid_argument] on non-positive dimensions or a
    capacity array shorter than the layer count. *)

val tech : t -> Tech.t
val width : t -> int
val height : t -> int
val num_layers : t -> int

val edge_exists : t -> edge2d -> bool
(** Whether the 2-D edge lies inside the grid. *)

val edge_layers : t -> edge2d -> int list
(** Layers on which this edge can be routed (layers matching its direction),
    ascending. *)

val capacity : t -> edge2d -> layer:int -> int
(** Routing capacity of the edge on [layer]; 0 when the layer direction does
    not match.  @raise Invalid_argument for out-of-grid edges. *)

val reduce_capacity : t -> edge2d -> layer:int -> by:int -> unit
(** Model a blockage: permanently lower the capacity (floored at 0). *)

val usage : t -> edge2d -> layer:int -> int

val free : t -> edge2d -> layer:int -> int
(** [capacity - usage]; may be negative when overflowed. *)

val add_usage : t -> edge2d -> layer:int -> int -> unit
(** Add (or with a negative delta, release) wires on an edge-layer.
    @raise Invalid_argument if the resulting usage would be negative. *)

val capacity_2d : t -> edge2d -> int
(** Total capacity across all layers of the edge's direction. *)

val usage_2d : t -> edge2d -> int

val via_capacity : t -> x:int -> y:int -> crossing:int -> int
(** Eqn (1) evaluated at tile [(x,y)] for the boundary between layers
    [crossing] and [crossing+1], using the *available* (free) capacity of the
    two incident edges on the lower layer of the crossing, per Section 2.1
    ("if these two connected edges are full of routing wires, then no vias
    are allowed to pass through this grid"). *)

val via_usage : t -> x:int -> y:int -> crossing:int -> int

val add_via_usage : t -> x:int -> y:int -> crossing:int -> int -> unit
(** @raise Invalid_argument if the resulting usage would be negative. *)

val edge_overflow : t -> int
(** Σ over edge-layers of [max 0 (usage − capacity)]. *)

val via_overflow : t -> int
(** Σ over tiles and crossings of [max 0 (usage − via_capacity)].  This is
    the OV# column of Table 2. *)

val total_via_usage : t -> int
(** Σ of via usage over all tiles and crossings (the via# column reports
    stacked-via crossings). *)

val density : t -> float array array
(** [density g].(y).(x) ∈ [0, ∞): wire congestion of tile (x,y), the maximum
    usage/capacity ratio over its incident edges across layers (Fig. 3b). *)

val density_map : t -> string
(** ASCII rendering of [density] (one char per tile, '.' to '9' then '#'). *)

val iter_edges : t -> (edge2d -> unit) -> unit
(** Visit every 2-D edge of the grid once. *)

val clone : t -> t
(** Deep copy (capacities and usage), for what-if evaluation. *)
