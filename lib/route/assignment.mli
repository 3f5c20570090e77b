(** Design-wide layer-assignment state.

    Owns, for every net, the Steiner tree, its segments and their current
    layers, and keeps the grid graph's edge and via usage consistent with
    the assignment at all times: [set_layer] atomically releases the old
    wires/vias and claims the new ones.

    Via accounting follows the stacked-via model of Section 2: at every tree
    node the incident assigned segments (plus any pin at that tile) define a
    layer span [lo, hi]; the net consumes one via per layer boundary crossed
    by the span at that tile. *)

type t

val create : graph:Cpla_grid.Graph.t -> nets:Net.t array -> trees:Stree.t option array -> t
(** Fresh state with every segment unassigned (no usage installed).
    @raise Invalid_argument when array lengths differ. *)

val graph : t -> Cpla_grid.Graph.t
val tech : t -> Cpla_grid.Tech.t
val num_nets : t -> int
val net : t -> int -> Net.t
val tree : t -> int -> Stree.t option
val segments : t -> int -> Segment.t array
(** Segments of a net (empty for single-tile nets). *)

val node_to_seg : t -> int -> int array

val children : t -> int -> int array array
(** Per tree node: child node indices (precomputed at [create]; empty for
    nets without a tree). *)

val sink_nodes : t -> int -> (int * int) array
(** Per non-source pin of the net, in pin order: (tree node, pin layer).
    Empty for nets without a tree. *)

val generation : t -> int -> int
(** Monotonic per-net modification counter: bumped by every effective
    [set_layer] / [unassign] on the net.  Timing caches compare generations
    to decide whether a memoized analysis of the net is still valid. *)

val layer : t -> net:int -> seg:int -> int
(** Current layer of a segment, or -1 when unassigned. *)

val set_layer : t -> net:int -> seg:int -> layer:int -> unit
(** Assign (or move) a segment, updating edge and via usage.
    @raise Invalid_argument when the layer's direction does not match the
    segment's. *)

val unassign : t -> net:int -> seg:int -> unit
(** Release a segment's wires and update vias accordingly. *)

val unassign_net : t -> int -> unit

val fully_assigned : t -> bool

val pin_layers_at : t -> net:int -> node:int -> int list
(** Layers of the net's pins located at the given tree node's tile. *)

val check_usage : t -> (unit, string) result
(** Recompute all edge and via usage from scratch and compare with the
    graph's incremental accounting; the invariant every mutation must
    preserve.  For tests. *)
