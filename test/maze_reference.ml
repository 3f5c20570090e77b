(* Reference maze router: the closure-per-edge Dijkstra that Maze.route
   replaced, kept verbatim together with the polymorphic binary heap it
   popped from.  The plane-based router must return the same path option
   on every input, ties included, so this copy pins its output. *)

open Cpla_grid

module Heap = struct
  type 'a t = {
    mutable keys : float array;
    mutable vals : 'a option array;
    mutable len : int;
  }

  let create () = { keys = Array.make 16 0.0; vals = Array.make 16 None; len = 0 }

  let grow t =
    let n = Array.length t.keys in
    let keys = Array.make (2 * n) 0.0 and vals = Array.make (2 * n) None in
    Array.blit t.keys 0 keys 0 t.len;
    Array.blit t.vals 0 vals 0 t.len;
    t.keys <- keys;
    t.vals <- vals

  let swap t i j =
    let k = t.keys.(i) and v = t.vals.(i) in
    t.keys.(i) <- t.keys.(j);
    t.vals.(i) <- t.vals.(j);
    t.keys.(j) <- k;
    t.vals.(j) <- v

  let push t key value =
    if t.len = Array.length t.keys then grow t;
    t.keys.(t.len) <- key;
    t.vals.(t.len) <- Some value;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while !i > 0 && t.keys.((!i - 1) / 2) > t.keys.(!i) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop_min t =
    if t.len = 0 then None
    else begin
      let key = t.keys.(0) and value = t.vals.(0) in
      t.len <- t.len - 1;
      t.keys.(0) <- t.keys.(t.len);
      t.vals.(0) <- t.vals.(t.len);
      t.vals.(t.len) <- None;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && t.keys.(l) < t.keys.(!smallest) then smallest := l;
        if r < t.len && t.keys.(r) < t.keys.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap t !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      match value with Some v -> Some (key, v) | None -> None
    end
end

let route ~width ~height ~cost ~sources ~targets =
  if sources = [] || targets = [] then None
  else begin
    let idx (x, y) = (y * width) + x in
    let dist = Array.make (width * height) infinity in
    let prev = Array.make (width * height) (-1) in
    let target_set = Array.make (width * height) false in
    List.iter (fun p -> target_set.(idx p) <- true) targets;
    let heap = Heap.create () in
    List.iter
      (fun p ->
        dist.(idx p) <- 0.0;
        Heap.push heap 0.0 p)
      sources;
    let found = ref None in
    let continue = ref true in
    while !continue do
      match Heap.pop_min heap with
      | None -> continue := false
      | Some (d, ((x, y) as p)) ->
          if d <= dist.(idx p) then begin
            if target_set.(idx p) then begin
              found := Some p;
              continue := false
            end
            else begin
              let try_move nx ny edge =
                if nx >= 0 && nx < width && ny >= 0 && ny < height then begin
                  let c = cost edge in
                  if c < infinity then begin
                    let nd = d +. c in
                    let ni = idx (nx, ny) in
                    if nd < dist.(ni) then begin
                      dist.(ni) <- nd;
                      prev.(ni) <- idx p;
                      Heap.push heap nd (nx, ny)
                    end
                  end
                end
              in
              try_move (x + 1) y { Graph.dir = Tech.Horizontal; x; y };
              try_move (x - 1) y { Graph.dir = Tech.Horizontal; x = x - 1; y };
              try_move x (y + 1) { Graph.dir = Tech.Vertical; x; y };
              try_move x (y - 1) { Graph.dir = Tech.Vertical; x; y = y - 1 }
            end
          end
    done;
    match !found with
    | None -> None
    | Some goal ->
        let rec walk acc i =
          if i < 0 then acc else walk ((i mod width, i / width) :: acc) prev.(i)
        in
        Some (walk [] (idx goal))
  end
