type t = float array

let create n = Array.make n 0.0

let copy = Array.copy

let check_len a b name =
  if Array.length a <> Array.length b then invalid_arg ("Vec." ^ name ^ ": length mismatch")

let dot x y =
  check_len x y "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 x

let axpy ~alpha x y =
  check_len x y "axpy";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let scale alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- alpha *. x.(i)
  done

let sub x y =
  check_len x y "sub";
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

(* ---- prefix (in-place) variants -------------------------------------------

   The batched SoA kernels operate on the first [n] cells of preallocated
   workspace buffers whose capacity may exceed the live problem, so every
   operation below takes the live length explicitly.  Arithmetic order is
   identical to the whole-array variants above: a kernel ported onto these
   produces bitwise-equal floats.

   Each op range-checks its buffers once per call ([check_cap]) and then
   runs an unchecked loop: the SDP kernel calls these hundreds of thousands
   of times on vectors of ~100 cells, where a bounds check per element is a
   measurable share of the work. *)

let check_cap a n name =
  if n < 0 || n > Array.length a then invalid_arg ("Vec." ^ name ^ ": prefix out of range")

let dot_n n x y =
  check_cap x n "dot_n";
  check_cap y n "dot_n";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc
[@@cpla.zero_alloc]

let norm_inf_n n x =
  check_cap x n "norm_inf_n";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := Float.max !acc (Float.abs (Array.unsafe_get x i))
  done;
  !acc
[@@cpla.zero_alloc]

let axpy_n ~alpha n x y =
  check_cap x n "axpy_n";
  check_cap y n "axpy_n";
  for i = 0 to n - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i +. (alpha *. Array.unsafe_get x i))
  done
[@@cpla.zero_alloc]

let scale_n alpha n x =
  check_cap x n "scale_n";
  for i = 0 to n - 1 do
    Array.unsafe_set x i (alpha *. Array.unsafe_get x i)
  done
[@@cpla.zero_alloc]

let copy_n n src dst =
  check_cap src n "copy_n";
  check_cap dst n "copy_n";
  Array.blit src 0 dst 0 n
[@@cpla.zero_alloc]

let fill_n n x v =
  check_cap x n "fill_n";
  Array.fill x 0 n v
[@@cpla.zero_alloc]

let sub_n n x y dst =
  check_cap x n "sub_n";
  check_cap y n "sub_n";
  check_cap dst n "sub_n";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get x i -. Array.unsafe_get y i)
  done
[@@cpla.zero_alloc]

