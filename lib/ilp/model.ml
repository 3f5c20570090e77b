open Cpla_numeric

type t = {
  objective : float array;
  rows : Simplex.row array;
  binary : bool array;
}

let create ~objective ~rows ~binary =
  let n = Array.length objective in
  if Array.length binary <> n then invalid_arg "Model.create: binary flags length mismatch";
  List.iter
    (fun (r : Simplex.row) ->
      let k = Array.length r.Simplex.cols in
      if k > 0 && r.Simplex.cols.(k - 1) >= n then invalid_arg "Model.create: column out of range")
    rows;
  { objective; rows = Array.of_list rows; binary }

let num_vars t = Array.length t.objective

(* the coefficients of every bound row *)
let unit_coef = [| 1.0 |]

let relaxation t =
  let bound_rows = ref [] in
  for i = num_vars t - 1 downto 0 do
    if t.binary.(i) then
      bound_rows := Simplex.sparse ~cols:[| i |] ~coefs:unit_coef Simplex.Le 1.0 :: !bound_rows
  done;
  { Simplex.objective = t.objective; rows = Array.append t.rows (Array.of_list !bound_rows) }

let value t x =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. x.(i))) t.objective;
  !acc

let integral ?(tol = 1e-6) t x =
  let ok = ref true in
  for i = 0 to num_vars t - 1 do
    if t.binary.(i) then begin
      let v = x.(i) in
      if Float.abs (v -. Float.round v) > tol then ok := false
    end
  done;
  !ok

(* The relaxation's constraints without building it: its bound row for
   binary i sums to exactly x_i, so it is checked as x_i ≤ 1 + tol. *)
let check ?(tol = 1e-6) t x =
  integral ~tol t x
  && Simplex.feasible ~tol { Simplex.objective = t.objective; rows = t.rows } x
  &&
  let ok = ref true in
  for i = 0 to num_vars t - 1 do
    if t.binary.(i) && not (x.(i) <= 1.0 +. tol) then ok := false
  done;
  !ok
