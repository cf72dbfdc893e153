open Test_util
module S = Statsched_stats
module Welford = S.Welford
module Tally = S.Tally
module Student_t = S.Student_t
module Confidence = S.Confidence
module Summary = S.Summary

let welford_known_values () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float ~eps:1e-12 "mean" 5.0 (Welford.mean w);
  check_float ~eps:1e-12 "population variance" 4.0 (Welford.population_variance w);
  check_float ~eps:1e-12 "sample variance" (32.0 /. 7.0) (Welford.variance w);
  check_float ~eps:1e-12 "population std" 2.0 (Welford.population_std w);
  check_float "min" 2.0 (Welford.min_value w);
  check_float "max" 9.0 (Welford.max_value w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let welford_empty_and_single () =
  let w = Welford.create () in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Welford.mean w));
  Welford.add w 3.0;
  check_float "single mean" 3.0 (Welford.mean w);
  Alcotest.(check bool) "single variance nan" true (Float.is_nan (Welford.variance w));
  check_float "single population variance" 0.0 (Welford.population_variance w)

let welford_merge () =
  let a = Welford.create () and b = Welford.create () and whole = Welford.create () in
  let xs = [ 1.0; 5.0; 2.0; 8.0; 3.0; 9.0; 4.0 ] in
  List.iteri (fun i x ->
      Welford.add whole x;
      if i mod 2 = 0 then Welford.add a x else Welford.add b x)
    xs;
  let merged = Welford.merge a b in
  check_float ~eps:1e-12 "merged mean" (Welford.mean whole) (Welford.mean merged);
  check_float ~eps:1e-9 "merged variance" (Welford.variance whole) (Welford.variance merged);
  Alcotest.(check int) "merged count" (Welford.count whole) (Welford.count merged);
  check_float "merged min" (Welford.min_value whole) (Welford.min_value merged);
  check_float "merged max" (Welford.max_value whole) (Welford.max_value merged)

let welford_merge_empty () =
  let a = Welford.create () in
  Welford.add a 2.0;
  let empty = Welford.create () in
  let m1 = Welford.merge a empty and m2 = Welford.merge empty a in
  check_float "merge with empty (left)" 2.0 (Welford.mean m1);
  check_float "merge with empty (right)" 2.0 (Welford.mean m2)

let welford_reset_copy () =
  let w = Welford.create () in
  Welford.add w 1.0;
  let c = Welford.copy w in
  Welford.reset w;
  Alcotest.(check int) "reset clears" 0 (Welford.count w);
  Alcotest.(check int) "copy unaffected" 1 (Welford.count c)

let welford_numerical_stability () =
  (* Large offset: naive sum-of-squares would lose everything. *)
  let w = Welford.create () in
  let offset = 1.0e9 in
  List.iter (fun x -> Welford.add w (offset +. x)) [ 1.0; 2.0; 3.0 ];
  check_float ~eps:1e-6 "variance near offset" 1.0 (Welford.variance w)

let prop_welford_matches_naive =
  qcheck ~count:200 "welford equals two-pass computation"
    QCheck2.Gen.(list_size (int_range 2 100) (float_bound_inclusive 1000.0))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      abs_float (Welford.mean w -. mean) < 1e-6
      && abs_float (Welford.variance w -. var) < 1e-5 *. (1.0 +. var))

let tally_time_average () =
  let t = Tally.create () in
  Tally.update t ~time:0.0 ~value:1.0;
  Tally.update t ~time:10.0 ~value:3.0;
  Tally.advance t ~time:20.0;
  (* value 0 for [0,0), 1 for [0,10), 3 for [10,20) starting at initial 0 *)
  check_float ~eps:1e-12 "time average" 2.0 (Tally.time_average t);
  check_float "current value" 3.0 (Tally.current_value t)

let tally_reset () =
  let t = Tally.create () in
  Tally.update t ~time:0.0 ~value:10.0;
  Tally.advance t ~time:5.0;
  Tally.reset_at t ~time:5.0;
  Tally.advance t ~time:10.0;
  check_float "only post-reset area" 10.0 (Tally.time_average t)

let tally_backwards_time () =
  let t = Tally.create () in
  Tally.advance t ~time:5.0;
  Alcotest.check_raises "backwards" (Invalid_argument "Tally.advance: time moved backwards")
    (fun () -> Tally.advance t ~time:4.0)

let tally_empty_nan () =
  let t = Tally.create () in
  Alcotest.(check bool) "no elapsed time -> nan" true (Float.is_nan (Tally.time_average t))

let student_t_table () =
  check_float ~eps:1e-9 "df=9, 95%" 2.262 (Student_t.critical ~df:9 ~confidence:0.95);
  check_float ~eps:1e-9 "df=1, 99%" 63.657 (Student_t.critical ~df:1 ~confidence:0.99);
  check_float ~eps:1e-9 "df=30, 90%" 1.697 (Student_t.critical ~df:30 ~confidence:0.90);
  check_float ~eps:1e-9 "df=1000 uses normal limit" 1.960
    (Student_t.critical ~df:1000 ~confidence:0.95)

let student_t_monotone () =
  (* Critical value decreases with df, increases with confidence. *)
  for df = 1 to 29 do
    Alcotest.(check bool) "decreasing in df" true
      (Student_t.critical ~df ~confidence:0.95
      >= Student_t.critical ~df:(df + 1) ~confidence:0.95)
  done;
  Alcotest.(check bool) "increasing in confidence" true
    (Student_t.critical ~df:10 ~confidence:0.99 > Student_t.critical ~df:10 ~confidence:0.90)

let student_t_errors () =
  Alcotest.check_raises "df < 1" (Invalid_argument "Student_t.critical: df < 1")
    (fun () -> ignore (Student_t.critical ~df:0 ~confidence:0.95))

let confidence_known () =
  (* 10 samples with known mean/std. *)
  let xs = [| 10.0; 12.0; 9.0; 11.0; 10.5; 9.5; 10.2; 11.3; 9.8; 10.7 |] in
  let i = Confidence.of_samples xs in
  check_close ~rel:1e-9 "mean" 10.4 i.Confidence.mean;
  Alcotest.(check int) "replications" 10 i.Confidence.replications;
  Alcotest.(check bool) "half-width positive" true (i.Confidence.half_width > 0.0);
  Alcotest.(check bool) "mean inside own interval" true
    (Confidence.lower i < 10.4 && 10.4 < Confidence.upper i)

let confidence_single_sample () =
  let i = Confidence.of_samples [| 5.0 |] in
  check_float "mean" 5.0 i.Confidence.mean;
  Alcotest.(check bool) "nan half width" true (Float.is_nan i.Confidence.half_width)

let confidence_coverage () =
  (* Frequentist check: the 95% CI over 10 normal-ish samples should
     contain the true mean in roughly 95% of trials. *)
  let g = rng () in
  let trials = 400 in
  let covered = ref 0 in
  for _ = 1 to trials do
    (* sum of 12 uniforms - 6 approximates N(0,1) *)
    let normal () =
      let s = ref 0.0 in
      for _ = 1 to 12 do
        s := !s +. Statsched_prng.Rng.float g
      done;
      !s -. 6.0
    in
    let xs = Array.init 10 (fun _ -> 3.0 +. normal ()) in
    let i = Confidence.of_samples xs in
    if Confidence.lower i <= 3.0 && 3.0 <= Confidence.upper i then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f within [0.90, 0.99]" coverage)
    true
    (0.90 <= coverage && coverage <= 0.99)

(* Regression: a nan half-width (a single replication) must render as
   a bare mean, never as "m ± nan". *)
let confidence_pp_nan () =
  let render i = Format.asprintf "%a" Confidence.pp i in
  let nan_interval =
    { Confidence.mean = 1.5; half_width = Float.nan; confidence = 0.95;
      replications = 1 }
  in
  Alcotest.(check string) "nan half-width omits the ± term" "1.5"
    (render nan_interval);
  let normal =
    { Confidence.mean = 1.5; half_width = 0.25; confidence = 0.95;
      replications = 5 }
  in
  Alcotest.(check string) "finite half-width keeps the ± term" "1.5 ± 0.25"
    (render normal)

let summary_known () =
  let s = Summary.of_array [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  check_float "mean" 3.0 s.Summary.mean;
  check_float "median" 3.0 s.Summary.median;
  check_float "min" 1.0 s.Summary.min;
  check_float "max" 5.0 s.Summary.max;
  Alcotest.(check int) "count" 5 s.Summary.count;
  check_float ~eps:1e-12 "std" (sqrt 2.5) s.Summary.std

let summary_quantile_interpolation () =
  check_float ~eps:1e-12 "q0.25 of [0..4]" 1.0
    (Summary.quantile_of_sorted [| 0.0; 1.0; 2.0; 3.0; 4.0 |] 0.25);
  check_float ~eps:1e-12 "interpolated" 0.5
    (Summary.quantile_of_sorted [| 0.0; 1.0 |] 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.quantile_of_sorted: empty")
    (fun () -> ignore (Summary.quantile_of_sorted [||] 0.5))

let prop_summary_ordered =
  qcheck ~count:100 "summary quantiles are ordered"
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Summary.of_array (Array.of_list xs) in
      s.Summary.min <= s.Summary.median
      && s.Summary.median <= s.Summary.p90
      && s.Summary.p90 <= s.Summary.p99
      && s.Summary.p99 <= s.Summary.max)

let suite =
  [
    test "welford: textbook values" welford_known_values;
    test "welford: empty and singleton" welford_empty_and_single;
    test "welford: merge equals pooled" welford_merge;
    test "welford: merge with empty" welford_merge_empty;
    test "welford: reset and copy" welford_reset_copy;
    test "welford: catastrophic-cancellation resistance" welford_numerical_stability;
    prop_welford_matches_naive;
    test "tally: piecewise time average" tally_time_average;
    test "tally: warm-up reset" tally_reset;
    test "tally: time monotonicity enforced" tally_backwards_time;
    test "tally: empty is nan" tally_empty_nan;
    test "confidence: nan half-width rendering" confidence_pp_nan;
    test "student-t: table values" student_t_table;
    test "student-t: monotonicity" student_t_monotone;
    test "student-t: df validation" student_t_errors;
    test "confidence: known sample" confidence_known;
    test "confidence: single sample" confidence_single_sample;
    slow_test "confidence: empirical coverage" confidence_coverage;
    test "summary: known values" summary_known;
    test "summary: quantile interpolation" summary_quantile_interpolation;
    prop_summary_ordered;
  ]
