(* Span trees rebuilt from drained trace events, and the self-time
   arithmetic over them.

   {!Cpla_obs.Sink} records flat Begin/End events per domain; nesting is
   implied by order.  [of_events] replays each domain's events against a
   stack to recover every span's parent.  A span's self time is its
   duration minus the part of it that its children cover; children may
   overlap each other (spans from several domains under one parent), so the
   covered part is the length of the union of their intervals, not the sum
   of their durations. *)

type span = {
  id : int;
  name : string;
  dom : int;
  start_ns : int64;
  stop_ns : int64;
  parent : int option;
}

let duration_ns s = Int64.sub s.stop_ns s.start_ns

let of_events (events : Cpla_obs.Event.t list) =
  let stacks = Hashtbl.create 4 in
  let spans = ref [] in
  let next = ref 0 in
  List.iter
    (fun (e : Cpla_obs.Event.t) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.dom) in
      match e.ph with
      | Cpla_obs.Event.Begin ->
          let id = !next in
          incr next;
          Hashtbl.replace stacks e.dom ((id, e.name, e.ts_ns) :: stack)
      | Cpla_obs.Event.End -> (
          match stack with
          | (id, name, start_ns) :: rest ->
              Hashtbl.replace stacks e.dom rest;
              let parent = match rest with (p, _, _) :: _ -> Some p | [] -> None in
              spans := { id; name; dom = e.dom; start_ns; stop_ns = e.ts_ns; parent } :: !spans
          | [] -> ())
      | Cpla_obs.Event.Instant -> ())
    events;
  List.sort (fun a b -> compare a.id b.id) !spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

let interval s = (s.start_ns, s.stop_ns)

(* Per span name: count, total and self time, largest self time first —
   where a traced run's time went.  Children are grouped by parent once, so
   this stays linear in the number of spans. *)
let self_table spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun c -> Option.iter (fun p -> Hashtbl.add children p (interval c)) c.parent)
    spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        Int64.sub (duration_ns s)
          (covered_ns ~lo:s.start_ns ~hi:s.stop_ns (Hashtbl.find_all children s.id))
      in
      let n, total, self_total =
        Option.value ~default:(0, 0L, 0L) (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name (n + 1, Int64.add total (duration_ns s), Int64.add self_total self))
    spans;
  Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Int64.compare b a)

(* Summed duration of every span called [name]. *)
let total_ns spans name =
  List.fold_left
    (fun acc s -> if s.name = name then Int64.add acc (duration_ns s) else acc)
    0L spans

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* Time inside [s] covered by the spans whose name is in [names], wherever
   they are recorded (nested at any depth, or on another domain). *)
let covered_by spans s names =
  let inside =
    List.filter_map
      (fun c -> if c.id <> s.id && List.mem c.name names then Some (interval c) else None)
      spans
  in
  covered_ns ~lo:s.start_ns ~hi:s.stop_ns inside

let seconds ns = Int64.to_float ns /. 1e9
