open Cpla_route

type entry = {
  mutable detail_gen : int;
  mutable detail : Elmore.detail option;
  mutable pinfo_gen : int;
  mutable pinfo : Critical.path_info option;
}

type t = {
  asg : Assignment.t;
  entries : entry array;
  ws : Elmore.workspace; (* reused by every re-analysis *)
}

let fresh_entry () = { detail_gen = -1; detail = None; pinfo_gen = -1; pinfo = None }

let create asg =
  {
    asg;
    entries = Array.init (Assignment.num_nets asg) (fun _ -> fresh_entry ());
    ws = Elmore.make_workspace ();
  }

let assignment t = t.asg

let is_dirty t i = t.entries.(i).detail_gen <> Assignment.generation t.asg i

let dirty_count t =
  let c = ref 0 in
  for i = 0 to Array.length t.entries - 1 do
    if is_dirty t i then incr c
  done;
  !c

let detail t i =
  let e = t.entries.(i) in
  let g = Assignment.generation t.asg i in
  match e.detail with
  | Some d when e.detail_gen = g -> d
  | _ ->
      let d = Elmore.analyze_with t.ws t.asg i in
      e.detail <- Some d;
      e.detail_gen <- g;
      d

let net_tcp t i = (detail t i).Elmore.worst_delay

let path_info t i =
  let e = t.entries.(i) in
  let d = detail t i in
  let g = Assignment.generation t.asg i in
  match e.pinfo with
  | Some p when e.pinfo_gen = g -> p
  | _ ->
      let p = Critical.path_info_of_detail t.asg i d in
      e.pinfo <- Some p;
      e.pinfo_gen <- g;
      p

let refresh t =
  Cpla_obs.Span.with_ ~name:"timing/refresh" @@ fun () ->
  let n = Array.length t.entries in
  let dirty = ref [] in
  for i = n - 1 downto 0 do
    if is_dirty t i then dirty := i :: !dirty
  done;
  Cpla_obs.Metrics.incr ~by:(List.length !dirty) "timing/dirty_nets";
  List.iter (fun i -> ignore (detail t i)) !dirty

(* Same ranking, ordering and tie-breaking as [Critical.select], but net
   delays come from the cache: after an incremental change only the dirty
   nets are re-analysed. *)
let select t ~ratio =
  if ratio <= 0.0 then [||]
  else begin
    let n = Assignment.num_nets t.asg in
    let count = min n (int_of_float (Float.ceil (ratio *. float_of_int n))) in
    let keyed =
      Array.init n (fun i ->
          let tcp =
            if Array.length (Assignment.segments t.asg i) = 0 then neg_infinity
            else net_tcp t i
          in
          (tcp, i))
    in
    Array.sort (fun (a, _) (b, _) -> compare b a) keyed;
    Array.sub keyed 0 count
    |> Array.to_list
    |> List.filter (fun (tcp, _) -> tcp > neg_infinity)
    |> List.map snd
    |> Array.of_list
  end

let pin_delays t nets =
  Array.to_list nets
  |> List.concat_map (fun i ->
         Array.to_list (detail t i).Elmore.sink_delays |> List.map snd)
  |> Array.of_list

let avg_max_tcp t nets =
  let tcps = Array.map (fun i -> net_tcp t i) nets in
  (Cpla_util.Stats.mean tcps, Cpla_util.Stats.max tcps)
