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
  key : float array;  (* the popped key, handed over by [Heap.pop_into] *)
}

let ws_create () =
  {
    dist = [||];
    prev = [||];
    seen = [||];
    target = [||];
    stamp = 0;
    heap = Cpla_util.Heap.create ();
    key = [| 0.0 |];
  }

let reserve ws n =
  if Array.length ws.dist < n then begin
    ws.dist <- Array.make n infinity;
    ws.prev <- Array.make n (-1);
    ws.seen <- Array.make n 0;
    ws.target <- Array.make n 0
  end

(* Relax the edge of cost [c] from tile [i] (settled at distance [d]) into
   tile [ni]; an unreached tile is at distance [infinity].  The key goes to
   the heap through [dist], which holds it after the relaxation. *)
let[@inline] relax (dist : float array) (prev : int array) (seen : int array) heap stamp d i ni
    (c : float) =
  if c < infinity then begin
    let nd = d +. c in
    if nd < (if Array.unsafe_get seen ni = stamp then Array.unsafe_get dist ni else infinity)
    then begin
      Array.unsafe_set seen ni stamp;
      Array.unsafe_set dist ni nd;
      Array.unsafe_set prev ni i;
      Cpla_util.Heap.push_from heap dist ni
    end
  end

(* Dijkstra from the seeded heap until a target tile pops; returns that tile
   or -1.  Every tile index read here is a neighbour of a popped tile inside
   the [w]x[hgt] grid, and [reserve] sized the arrays to it, so the reads are
   unchecked. *)
let search ws (c : costs) =
  let w = c.width and hgt = c.height and h = c.h and v = c.v in
  let dist = ws.dist and prev = ws.prev and seen = ws.seen and target = ws.target in
  let stamp = ws.stamp and heap = ws.heap and key = ws.key in
  let found = ref (-1) in
  while !found < 0 && not (Cpla_util.Heap.is_empty heap) do
    let i = Cpla_util.Heap.pop_into heap key 0 in
    let d = Array.unsafe_get key 0 in
    (* a stale entry (the tile was reached cheaper after this push) is
       skipped *)
    if d <= Array.unsafe_get dist i then begin
      if Array.unsafe_get target i = stamp then found := i
      else begin
        let y = i / w in
        let x = i - (y * w) in
        if x + 1 < w then relax dist prev seen heap stamp d i (i + 1) (Array.unsafe_get h ((y * (w - 1)) + x));
        if x > 0 then relax dist prev seen heap stamp d i (i - 1) (Array.unsafe_get h ((y * (w - 1)) + x - 1));
        if y + 1 < hgt then relax dist prev seen heap stamp d i (i + w) (Array.unsafe_get v i);
        if y > 0 then relax dist prev seen heap stamp d i (i - w) (Array.unsafe_get v (i - w))
      end
    end
  done;
  !found
[@@cpla.zero_alloc]

let route ws c ~sources ~targets =
  if sources = [] || targets = [] then None
  else begin
    let w = c.width and hgt = c.height in
    if Array.length c.h < (w - 1) * hgt || Array.length c.v < w * (hgt - 1) then
      invalid_arg "Maze.route: cost planes smaller than the grid";
    reserve ws (w * hgt);
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp and heap = ws.heap in
    Cpla_util.Heap.clear heap;
    let idx (x, y) =
      if x < 0 || x >= w || y < 0 || y >= hgt then invalid_arg "Maze.route: point outside the grid";
      (y * w) + x
    in
    List.iter (fun p -> ws.target.(idx p) <- stamp) targets;
    List.iter
      (fun p ->
        let i = idx p in
        ws.seen.(i) <- stamp;
        ws.dist.(i) <- 0.0;
        ws.prev.(i) <- -1;
        Cpla_util.Heap.push_from heap ws.dist i)
      sources;
    let found = search ws c in
    if found < 0 then None
    else begin
      (* the walk stops at a source because its prev is -1 *)
      let rec walk acc i = if i < 0 then acc else walk ((i mod w, i / w) :: acc) ws.prev.(i) in
      Some (walk [] found)
    end
  end
