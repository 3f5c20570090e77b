type edge2d = {
  dir : Tech.dir;
  x : int;
  y : int;
}

type t = {
  tech : Tech.t;
  width : int;
  height : int;
  (* cap.(l) / use_.(l): per-layer edge arrays.  For a horizontal layer the
     array has (width-1)*height entries indexed y*(width-1)+x; for a vertical
     layer width*(height-1) entries indexed y*width+x. *)
  cap : int array array;
  use_ : int array array;
  (* vias.(c): via usage at the boundary between layers c and c+1, one entry
     per tile, indexed y*width+x. *)
  vias : int array array;
  (* ascending indices of the horizontal / vertical layers, so the 2-D sums
     walk an array instead of rebuilding the layer list per call *)
  h_layers : int array;
  v_layers : int array;
}

let tech t = t.tech
let width t = t.width
let height t = t.height
let num_layers t = Tech.num_layers t.tech

let edge_array_size ~width ~height = function
  | Tech.Horizontal -> (width - 1) * height
  | Tech.Vertical -> width * (height - 1)

let create ~tech ~width ~height ~layer_capacity =
  if width < 2 || height < 2 then invalid_arg "Graph.create: grid must be at least 2x2";
  if Array.length layer_capacity < Tech.num_layers tech then
    invalid_arg "Graph.create: capacity array shorter than layer count";
  let nl = Tech.num_layers tech in
  let cap =
    Array.init nl (fun l ->
        let size = edge_array_size ~width ~height (Tech.layer_dir tech l) in
        Array.make size (max 0 layer_capacity.(l)))
  in
  let use_ =
    Array.init nl (fun l ->
        Array.make (edge_array_size ~width ~height (Tech.layer_dir tech l)) 0)
  in
  let vias = Array.init (nl - 1) (fun _ -> Array.make (width * height) 0) in
  let layers dir = Array.of_list (Tech.layers_of_dir tech dir) in
  {
    tech;
    width;
    height;
    cap;
    use_;
    vias;
    h_layers = layers Tech.Horizontal;
    v_layers = layers Tech.Vertical;
  }

let in_bounds t ~x ~y = x >= 0 && x < t.width && y >= 0 && y < t.height

let edge_exists t e =
  match e.dir with
  | Tech.Horizontal -> e.x >= 0 && e.x < t.width - 1 && e.y >= 0 && e.y < t.height
  | Tech.Vertical -> e.x >= 0 && e.x < t.width && e.y >= 0 && e.y < t.height - 1

let edge_index t e =
  if not (edge_exists t e) then invalid_arg "Graph: edge out of grid";
  match e.dir with
  | Tech.Horizontal -> (e.y * (t.width - 1)) + e.x
  | Tech.Vertical -> (e.y * t.width) + e.x

let edge_layers t e = Tech.layers_of_dir t.tech e.dir

let capacity t e ~layer =
  if Tech.layer_dir t.tech layer <> e.dir then 0 else t.cap.(layer).(edge_index t e)

let reduce_capacity t e ~layer ~by =
  if Tech.layer_dir t.tech layer = e.dir then begin
    let i = edge_index t e in
    t.cap.(layer).(i) <- max 0 (t.cap.(layer).(i) - by)
  end

let usage t e ~layer =
  if Tech.layer_dir t.tech layer <> e.dir then 0 else t.use_.(layer).(edge_index t e)

let free t e ~layer = capacity t e ~layer - usage t e ~layer

let add_usage t e ~layer delta =
  if Tech.layer_dir t.tech layer <> e.dir then
    invalid_arg "Graph.add_usage: layer direction mismatch";
  let i = edge_index t e in
  let v = t.use_.(layer).(i) + delta in
  if v < 0 then invalid_arg "Graph.add_usage: usage would become negative";
  t.use_.(layer).(i) <- v

(* Σ over the layers of [e]'s direction of [per_layer.(l)] at [e]'s index;
   an edge with no layer in its direction sums to 0 without a bounds check. *)
let sum_2d t per_layer e =
  let ls = match e.dir with Tech.Horizontal -> t.h_layers | Tech.Vertical -> t.v_layers in
  if Array.length ls = 0 then 0
  else begin
    let i = edge_index t e in
    let acc = ref 0 in
    for k = 0 to Array.length ls - 1 do
      acc := !acc + per_layer.(ls.(k)).(i)
    done;
    !acc
  end

let capacity_2d t e = sum_2d t t.cap e

let usage_2d t e = sum_2d t t.use_ e

let tile_index t ~x ~y =
  if not (in_bounds t ~x ~y) then invalid_arg "Graph: tile out of grid";
  (y * t.width) + x

(* The two incident edges of tile (x,y) along [layer]'s direction; missing
   edges at the grid border contribute capacity 0. *)
let incident_free t ~x ~y ~layer =
  let dir = Tech.layer_dir t.tech layer in
  let edges =
    match dir with
    | Tech.Horizontal -> [ { dir; x = x - 1; y }; { dir; x; y } ]
    | Tech.Vertical -> [ { dir; x; y = y - 1 }; { dir; x; y } ]
  in
  List.map (fun e -> if edge_exists t e then max 0 (free t e ~layer) else 0) edges

let via_capacity t ~x ~y ~crossing =
  if crossing < 0 || crossing >= num_layers t - 1 then
    invalid_arg "Graph.via_capacity: crossing out of range";
  match incident_free t ~x ~y ~layer:crossing with
  | [ cap_e0; cap_e1 ] -> Tech.via_per_boundary t.tech ~cap_e0 ~cap_e1
  | _ -> assert false

let via_usage t ~x ~y ~crossing =
  if crossing < 0 || crossing >= num_layers t - 1 then
    invalid_arg "Graph.via_usage: crossing out of range";
  t.vias.(crossing).(tile_index t ~x ~y)

let add_via_usage t ~x ~y ~crossing delta =
  if crossing < 0 || crossing >= num_layers t - 1 then
    invalid_arg "Graph.add_via_usage: crossing out of range";
  let i = tile_index t ~x ~y in
  let v = t.vias.(crossing).(i) + delta in
  if v < 0 then invalid_arg "Graph.add_via_usage: usage would become negative";
  t.vias.(crossing).(i) <- v

let iter_edges t f =
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 2 do
      f { dir = Tech.Horizontal; x; y }
    done
  done;
  for y = 0 to t.height - 2 do
    for x = 0 to t.width - 1 do
      f { dir = Tech.Vertical; x; y }
    done
  done

let edge_overflow t =
  let acc = ref 0 in
  for l = 0 to num_layers t - 1 do
    Array.iteri
      (fun i u ->
        let over = u - t.cap.(l).(i) in
        if over > 0 then acc := !acc + over)
      t.use_.(l)
  done;
  !acc

let via_overflow t =
  let acc = ref 0 in
  for c = 0 to num_layers t - 2 do
    for y = 0 to t.height - 1 do
      for x = 0 to t.width - 1 do
        let u = via_usage t ~x ~y ~crossing:c in
        if u > 0 then begin
          let over = u - via_capacity t ~x ~y ~crossing:c in
          if over > 0 then acc := !acc + over
        end
      done
    done
  done;
  !acc

let total_via_usage t =
  Array.fold_left (fun acc per_tile -> Array.fold_left ( + ) acc per_tile) 0 t.vias

let density t =
  let d = Array.make_matrix t.height t.width 0.0 in
  iter_edges t (fun e ->
      let cap = capacity_2d t e in
      let ratio = if cap <= 0 then 0.0 else float_of_int (usage_2d t e) /. float_of_int cap in
      let touch x y = if in_bounds t ~x ~y then d.(y).(x) <- Float.max d.(y).(x) ratio in
      touch e.x e.y;
      match e.dir with
      | Tech.Horizontal -> touch (e.x + 1) e.y
      | Tech.Vertical -> touch e.x (e.y + 1));
  d

let density_map t =
  let d = density t in
  let buf = Buffer.create (t.width * t.height) in
  for y = t.height - 1 downto 0 do
    for x = 0 to t.width - 1 do
      let v = d.(y).(x) in
      let ch =
        if v <= 0.0 then '.'
        else if v >= 1.0 then '#'
        else Char.chr (Char.code '0' + int_of_float (v *. 10.0))
      in
      Buffer.add_char buf ch
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let clone t =
  {
    t with
    cap = Array.map Array.copy t.cap;
    use_ = Array.map Array.copy t.use_;
    vias = Array.map Array.copy t.vias;
  }
