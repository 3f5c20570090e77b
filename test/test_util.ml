open Cpla_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let x = Rng.int a 1000000 and y = Rng.int c 1000000 in
  Alcotest.(check bool) "streams diverge" true (x <> y)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_minmax () =
  check_float "max" 4.0 (Stats.max [| 1.0; 4.0; 3.0 |]);
  check_float "min" 1.0 (Stats.min [| 1.0; 4.0; 3.0 |]);
  (* documented: empty inputs yield 0, not ±infinity — an empty released
     set must not poison score accumulators *)
  check_float "empty max" 0.0 (Stats.max [||]);
  check_float "empty min" 0.0 (Stats.min [||])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 50.0);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  (* empty samples report 0, matching min/max — a latency report over an
     empty bucket must not abort the bench run *)
  check_float "empty p50" 0.0 (Stats.percentile [||] 50.0);
  check_float "empty p99" 0.0 (Stats.percentile [||] 99.0);
  Alcotest.check_raises "p out of range still raises"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [||] 101.0))

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [| 3.0; 3.0; 3.0 |]);
  check_float "spread" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_stats_geomean () =
  check_float "geo" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  check_float "nonpositive" 0.0 (Stats.geometric_mean [| 1.0; -2.0 |])

let test_table_render () =
  let t = Table.create ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "10"; "20" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.index_opt s 'a' <> None);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_histogram_counts () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Histogram.add h 0.5;
  Histogram.add h 9.5;
  Histogram.add h 100.0;
  (* counted as overflow, not clamped into the last bin *)
  Histogram.add h (-3.0);
  (* counted as underflow, not clamped into the first bin *)
  let c = Histogram.counts h in
  Alcotest.(check int) "first bin" 1 c.(0);
  Alcotest.(check int) "last bin" 1 c.(9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Histogram.overflow h);
  Alcotest.(check int) "total" 4 (Histogram.total h)

let test_histogram_nan_and_render () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:4 in
  Histogram.add_all h [| 1.0; Float.nan; 20.0; -1.0; Float.nan |];
  Alcotest.(check int) "nan samples skipped, counted" 2 (Histogram.nan_count h);
  Alcotest.(check int) "nan not in total" 3 (Histogram.total h);
  Alcotest.(check int) "in-range bins unpolluted" 1
    (Array.fold_left ( + ) 0 (Histogram.counts h));
  let r = Histogram.render ~label:"t" h in
  let has needle =
    let n = String.length needle and m = String.length r in
    let rec go i = i + n <= m && (String.sub r i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render shows underflow tail" true (has "below range");
  Alcotest.(check bool) "render shows overflow tail" true (has "above range");
  Alcotest.(check bool) "render shows nan tail" true (has "skipped");
  (* a fully in-range histogram keeps the old, tail-free rendering *)
  let h2 = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:4 in
  Histogram.add h2 5.0;
  let r2 = Histogram.render ~label:"t" h2 in
  Alcotest.(check bool) "no tails when tallies are zero" false
    (let n = String.length r2 in
     let rec go i = i + 5 <= n && (String.sub r2 i 5 = "range" || go (i + 1)) in
     go 0)

let test_histogram_centers () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  check_float "center of bin 0" 0.5 (Histogram.bin_center h 0);
  check_float "center of bin 9" 9.5 (Histogram.bin_center h 9)

(* Drain a heap into its (key, value) pops, minimum first. *)
let heap_drain h =
  let dst = [| 0.0 |] in
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let v = Heap.pop_into h dst 0 in
      go ((dst.(0), v) :: acc)
    end
  in
  go []

let test_heap_ordering () =
  let h = Heap.create () in
  (* each value is pushed under its own number as the key *)
  let keys = Array.init 8 float_of_int in
  List.iter (fun v -> Heap.push_from h keys v) [ 5; 1; 3; 2; 4 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.map snd (heap_drain h));
  Heap.push_from h keys 7;
  Heap.clear h;
  Alcotest.(check bool) "clear empties" true (Heap.is_empty h);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Heap.pop_into: empty heap") (fun () ->
      ignore (Heap.pop_into h [| 0.0 |] 0))

let test_heap_random =
  QCheck.Test.make ~name:"heap pops in sorted order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () and key_arr = Array.of_list keys in
      List.iteri (fun i _ -> Heap.push_from h key_arr i) keys;
      let popped = heap_drain h in
      List.map fst popped = List.sort compare keys
      (* every value pops exactly once, under the key it was pushed with *)
      && List.sort compare (List.map snd popped) = List.init (List.length keys) Fun.id
      && List.for_all (fun (k, v) -> List.nth keys v = k) popped)

(* Random interleavings of pushes and pops with keys from {0, 1, 2}, so
   equal keys are the rule: the heap must pop the same (key, value)
   sequence as the swap-based reference, whose tie order the maze router's
   paths depend on. *)
type heap_op = Push of int | Pop

let test_heap_tie_order =
  let op = QCheck.Gen.(frequency [ (3, map (fun k -> Push k) (int_range 0 2)); (2, return Pop) ]) in
  let print ops =
    String.concat " " (List.map (function Push k -> string_of_int k | Pop -> "pop") ops)
  in
  QCheck.Test.make ~count:500 ~name:"heap pops ties in the reference order"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 200) op))
    (fun ops ->
      let h = Heap.create () and r = Heap_reference.create () in
      let keys = Array.make (List.length ops) 0.0 and dst = [| 0.0 |] in
      let got = ref [] and want = ref [] in
      let pop_both () =
        if not (Heap_reference.is_empty r) then begin
          want := (Heap_reference.min_key r, Heap_reference.min_value r) :: !want;
          Heap_reference.remove_min r
        end;
        if not (Heap.is_empty h) then begin
          let v = Heap.pop_into h dst 0 in
          got := (dst.(0), v) :: !got
        end
      in
      List.iteri
        (fun i -> function
          | Push k ->
              let key = float_of_int k in
              Heap_reference.push r key i;
              keys.(i) <- key;
              Heap.push_from h keys i
          | Pop -> pop_both ())
        ops;
      while not (Heap_reference.is_empty r && Heap.is_empty h) do
        pop_both ()
      done;
      !got = !want)

let test_float_cmp () =
  Alcotest.(check bool) "equal" true (Float_cmp.approx_eq 1.0 1.0);
  Alcotest.(check bool) "within atol" true (Float_cmp.approx_eq 0.0 1e-13);
  Alcotest.(check bool) "within rtol" true (Float_cmp.approx_eq 1e9 (1e9 +. 0.5));
  Alcotest.(check bool) "outside tolerance" false (Float_cmp.approx_eq 1.0 1.001);
  Alcotest.(check bool) "explicit atol" true (Float_cmp.approx_eq ~rtol:0.0 ~atol:0.1 1.0 1.05);
  Alcotest.(check bool) "infinities equal" true (Float_cmp.approx_eq infinity infinity);
  Alcotest.(check bool) "opposite infinities" false
    (Float_cmp.approx_eq infinity neg_infinity);
  Alcotest.(check bool) "nan never equal" false (Float_cmp.approx_eq nan nan);
  Alcotest.(check bool) "is_zero default" true (Float_cmp.is_zero 1e-13);
  Alcotest.(check bool) "is_zero exact rejects" false (Float_cmp.is_zero ~atol:0.0 1e-300);
  Alcotest.(check bool) "is_zero exact neg zero" true (Float_cmp.is_zero ~atol:0.0 (-0.0));
  Alcotest.(check bool) "nonzero nan" true (Float_cmp.nonzero nan);
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Float_cmp: atol must be a non-negative float") (fun () ->
      ignore (Float_cmp.is_zero ~atol:(-1.0) 0.0))

let test_exn_async () =
  Alcotest.(check bool) "oom is async" true (Exn.is_async Out_of_memory);
  Alcotest.(check bool) "stack overflow is async" true (Exn.is_async Stack_overflow);
  Alcotest.(check bool) "break is async" true (Exn.is_async Sys.Break);
  Alcotest.(check bool) "failure is not" false (Exn.is_async (Failure "x"));
  Alcotest.check_raises "reraises async" Stack_overflow (fun () ->
      Exn.reraise_if_async Stack_overflow);
  Exn.reraise_if_async Not_found (* returns unit for ordinary exceptions *)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "float_cmp" `Quick test_float_cmp;
    Alcotest.test_case "exn async discipline" `Quick test_exn_async;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_invalid;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats min/max" `Quick test_stats_minmax;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats geometric mean" `Quick test_stats_geomean;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "histogram counts+range" `Quick test_histogram_counts;
    Alcotest.test_case "histogram nan+render" `Quick test_histogram_nan_and_render;
    Alcotest.test_case "histogram centers" `Quick test_histogram_centers;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    QCheck_alcotest.to_alcotest test_heap_random;
    QCheck_alcotest.to_alcotest test_heap_tie_order;
  ]
