(* Reference heap: the swap-based binary heap that Cpla_util.Heap's
   hole-moving sifts replaced, kept verbatim (minus its lint annotations).
   The maze router's paths depend on the order in which equal keys pop, so
   the rewritten heap must pop every push/pop sequence in exactly this
   heap's order. *)
type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable len : int;
}

let create () = { keys = Array.make 16 0.0; vals = Array.make 16 0; len = 0 }

let is_empty t = t.len = 0

let clear t = t.len <- 0

let grow t =
  let n = Array.length t.keys in
  let keys = Array.make (2 * n) 0.0 and vals = Array.make (2 * n) 0 in
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
  t.vals.(t.len) <- value;
  t.len <- t.len + 1;
  let i = ref (t.len - 1) in
  while !i > 0 && t.keys.((!i - 1) / 2) > t.keys.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_key t =
  if t.len = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let min_value t =
  if t.len = 0 then invalid_arg "Heap.min_value: empty heap";
  t.vals.(0)

let remove_min t =
  if t.len = 0 then invalid_arg "Heap.remove_min: empty heap";
  t.len <- t.len - 1;
  t.keys.(0) <- t.keys.(t.len);
  t.vals.(0) <- t.vals.(t.len);
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
  done
