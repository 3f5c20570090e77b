(* Repetitions that fill a measurement window. *)

(* Run [f 0], [f 1], ... while the window has room: a repetition starts
   only while [elapsed ()] plus the median duration so far stays within
   [seconds], and at least one always runs. *)
let repeat ~seconds ~elapsed f =
  let rec go i walls acc =
    if acc <> [] && elapsed () +. Pct.median (Array.of_list walls) > seconds then List.rev acc
    else
      let t0 = elapsed () in
      let r = f i in
      go (i + 1) ((elapsed () -. t0) :: walls) (r :: acc)
  in
  go 0 [] []
