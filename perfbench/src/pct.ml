(* Order statistics for the run report.

   A tail percentile is only reported when the run has enough samples to
   back it: at least [min_beyond] samples must lie strictly above the
   reported value, otherwise the "p90" of a handful of samples is just the
   maximum.  With distinct samples, p90 needs 100 of them. *)

let min_beyond = 10

let median xs = Cpla_util.Stats.percentile xs 50.0

let beyond xs v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 xs

let tail xs p =
  let v = Cpla_util.Stats.percentile xs p in
  if beyond xs v >= min_beyond then Some v else None
