(* Binary heap ordered by (priority desc, cost asc, insertion seq asc).
   The float-keyed Cpla_util.Heap cannot express this lexicographic order
   without lossy key packing, hence a small dedicated heap. *)

type key = { priority : int; cost : float; seq : int }

type 'a t = {
  mutable data : (key * 'a) array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty q = q.len = 0

(* a should pop before b *)
let before a b =
  if a.priority <> b.priority then a.priority > b.priority
  else if a.cost <> b.cost then a.cost < b.cost
  else a.seq < b.seq

let swap q i j =
  let tmp = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (fst q.data.(i)) (fst q.data.(parent)) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < q.len && before (fst q.data.(l)) (fst q.data.(!best)) then best := l;
  if r < q.len && before (fst q.data.(r)) (fst q.data.(!best)) then best := r;
  if !best <> i then begin
    swap q i !best;
    sift_down q !best
  end

let add q ~priority ~cost v =
  let key = { priority; cost; seq = q.next_seq } in
  q.next_seq <- q.next_seq + 1;
  if q.len = Array.length q.data then begin
    let cap = max 8 (2 * q.len) in
    let data = Array.make cap (key, v) in
    Array.blit q.data 0 data 0 q.len;
    q.data <- data
  end;
  q.data.(q.len) <- (key, v);
  q.len <- q.len + 1;
  sift_up q (q.len - 1)

let pop q =
  if q.len = 0 then None
  else begin
    let _, v = q.data.(0) in
    q.len <- q.len - 1;
    if q.len > 0 then begin
      q.data.(0) <- q.data.(q.len);
      sift_down q 0
    end;
    Some v
  end

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some v -> go (v :: acc) in
  go []
