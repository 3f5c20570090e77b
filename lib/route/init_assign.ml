open Cpla_grid

(* [free] is the remaining capacity *after* the candidate wire is added. *)
let[@inline] congestion_penalty ~free =
  if free < 0 then 1000.0 +. (100.0 *. float_of_int (-free))
  else if free = 0 then 8.0
  else if free = 1 then 2.0
  else 0.0

(* [h_layers]/[v_layers] are the candidate layers of each direction,
   built once per run. *)
let assign_net ~h_layers ~v_layers asg net_idx =
  match Assignment.tree asg net_idx with
  | None -> ()
  | Some tree ->
      let graph = Assignment.graph asg in
      Assignment.unassign_net asg net_idx;
      let segs = Assignment.segments asg net_idx in
      let node_to_seg = Assignment.node_to_seg asg net_idx in
      let candidates seg =
        match segs.(seg).Segment.dir with Tech.Horizontal -> h_layers | Tech.Vertical -> v_layers
      in
      let seg_cost seg l =
        let edges = segs.(seg).Segment.edges in
        let acc = ref 0.0 in
        for k = 0 to Array.length edges - 1 do
          acc := !acc +. congestion_penalty ~free:(Graph.free graph edges.(k) ~layer:l - 1)
        done;
        !acc
      in
      (* Via cost: one unit per layer crossed — pure via-count minimisation,
         independent of the node (congestion on vias is handled by CPLA). *)
      let via_cost ~node:_ a b = float_of_int (abs (a - b)) in
      let pins_at node = Assignment.pin_layers_at asg ~net:net_idx ~node in
      let chosen = Tree_dp.solve ~tree ~node_to_seg ~pins_at ~candidates ~seg_cost ~via_cost in
      for seg = 0 to Array.length chosen - 1 do
        Assignment.set_layer asg ~net:net_idx ~seg ~layer:chosen.(seg)
      done

let run ?(order = `Hpwl_ascending) asg =
  let n = Assignment.num_nets asg in
  let keyed = Array.init n (fun i -> (Net.hpwl (Assignment.net asg i), i)) in
  Array.sort compare keyed;
  (match order with
  | `Hpwl_ascending -> ()
  | `Hpwl_descending ->
      let len = Array.length keyed in
      for i = 0 to (len / 2) - 1 do
        let tmp = keyed.(i) in
        keyed.(i) <- keyed.(len - 1 - i);
        keyed.(len - 1 - i) <- tmp
      done);
  let tech = Assignment.tech asg in
  let h_layers = Tech.layers_of_dir tech Tech.Horizontal
  and v_layers = Tech.layers_of_dir tech Tech.Vertical in
  Array.iter (fun (_, i) -> assign_net ~h_layers ~v_layers asg i) keyed
