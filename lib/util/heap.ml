(* Keys and values live unboxed in two parallel arrays: a float array holds
   raw doubles and an int array immediates, so neither a push nor a pop
   allocates once the arrays have grown to the working size. *)
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

(* Both sifts move a hole instead of swapping: parents (children) shift into
   the hole and the entry is written once where the hole stops.  The
   comparisons are those of a swap-based sift, so the final layout (and with
   it the pop order of equal keys) is the same. *)

(* Insert [key]/[value] by moving a hole up from slot [i]. *)
let[@inline] sift_up t i key value =
  let keys = t.keys and vals = t.vals in
  let i = ref i in
  while !i > 0 && Array.unsafe_get keys ((!i - 1) / 2) > key do
    let p = (!i - 1) / 2 in
    Array.unsafe_set keys !i (Array.unsafe_get keys p);
    Array.unsafe_set vals !i (Array.unsafe_get vals p);
    i := p
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set vals !i value
[@@cpla.zero_alloc]

(* Re-insert [key]/[value] by moving a hole down from slot [i]. *)
let[@inline] sift_down t i key value =
  let keys = t.keys and vals = t.vals and len = t.len in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i and smallest_key = ref key in
    if l < len && Array.unsafe_get keys l < !smallest_key then begin
      smallest := l;
      smallest_key := Array.unsafe_get keys l
    end;
    if r < len && Array.unsafe_get keys r < !smallest_key then smallest := r;
    if !smallest <> !i then begin
      Array.unsafe_set keys !i (Array.unsafe_get keys !smallest);
      Array.unsafe_set vals !i (Array.unsafe_get vals !smallest);
      i := !smallest
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set vals !i value
[@@cpla.zero_alloc]

let push_from t keys value =
  if t.len = Array.length t.keys then (grow t [@cpla.allow "alloc-in-kernel"]);
  t.len <- t.len + 1;
  sift_up t (t.len - 1) keys.(value) value
[@@cpla.zero_alloc]

let pop_into t dst slot =
  if t.len = 0 then invalid_arg "Heap.pop_into: empty heap";
  dst.(slot) <- t.keys.(0);
  let v = t.vals.(0) in
  t.len <- t.len - 1;
  let n = t.len in
  sift_down t 0 t.keys.(n) t.vals.(n);
  v
[@@cpla.zero_alloc]
