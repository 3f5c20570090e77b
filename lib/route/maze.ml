type point = int * int

type costs = {
  width : int;
  height : int;
  h : float array;
  v : float array;
}

(* [dist]/[prev] of tile i are live only when [seen.(i) = stamp], and tile i
   is a target only when [target.(i) = stamp]: bumping the stamp resets both
   in O(1), so a query touches only the tiles it reaches. *)
type ws = {
  mutable dist : float array;
  mutable prev : int array;
  mutable seen : int array;
  mutable target : int array;
  mutable stamp : int;
  heap : Cpla_util.Heap.t;
}

let ws_create () =
  {
    dist = [||];
    prev = [||];
    seen = [||];
    target = [||];
    stamp = 0;
    heap = Cpla_util.Heap.create ();
  }

let reserve ws n =
  if Array.length ws.dist < n then begin
    ws.dist <- Array.make n infinity;
    ws.prev <- Array.make n (-1);
    ws.seen <- Array.make n 0;
    ws.target <- Array.make n 0
  end

(* Relax the edge of cost [c] from tile [i] (settled at distance [d]) into
   tile [ni]; an unreached tile is at distance [infinity]. *)
let[@inline] relax ws d i ni c =
  if c < infinity then begin
    let nd = d +. c in
    if nd < (if ws.seen.(ni) = ws.stamp then ws.dist.(ni) else infinity) then begin
      ws.seen.(ni) <- ws.stamp;
      ws.dist.(ni) <- nd;
      ws.prev.(ni) <- i;
      Cpla_util.Heap.push ws.heap nd ni
    end
  end

let route ws c ~sources ~targets =
  if sources = [] || targets = [] then None
  else begin
    let w = c.width and hgt = c.height in
    reserve ws (w * hgt);
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp and heap = ws.heap in
    Cpla_util.Heap.clear heap;
    let idx (x, y) = (y * w) + x in
    List.iter (fun p -> ws.target.(idx p) <- stamp) targets;
    List.iter
      (fun p ->
        let i = idx p in
        ws.seen.(i) <- stamp;
        ws.dist.(i) <- 0.0;
        ws.prev.(i) <- -1;
        Cpla_util.Heap.push heap 0.0 i)
      sources;
    let found = ref (-1) in
    while !found < 0 && not (Cpla_util.Heap.is_empty heap) do
      let d = Cpla_util.Heap.min_key heap and i = Cpla_util.Heap.min_value heap in
      Cpla_util.Heap.remove_min heap;
      (* a stale entry (the tile was reached cheaper after this push) is
         skipped *)
      if d <= ws.dist.(i) then begin
        if ws.target.(i) = stamp then found := i
        else begin
          let x = i mod w and y = i / w in
          if x + 1 < w then relax ws d i (i + 1) c.h.((y * (w - 1)) + x);
          if x > 0 then relax ws d i (i - 1) c.h.((y * (w - 1)) + x - 1);
          if y + 1 < hgt then relax ws d i (i + w) c.v.(i);
          if y > 0 then relax ws d i (i - w) c.v.(i - w)
        end
      end
    done;
    if !found < 0 then None
    else begin
      (* the walk stops at a source because its prev is -1 *)
      let rec walk acc i = if i < 0 then acc else walk ((i mod w, i / w) :: acc) ws.prev.(i) in
      Some (walk [] !found)
    end
  end
