open Test_util
module Dist = Statsched_dist
module D = Dist.Distribution
module Rng = Statsched_prng.Rng

(* Empirical moment check: sample n variates and compare against the
   distribution's analytic mean / CV.  Tolerances depend on tail weight. *)
let empirical_check ?(n = 200_000) ?(mean_rel = 0.03) ?(cv_rel = 0.1) d () =
  let g = rng () in
  let w = Statsched_stats.Welford.create () in
  for _ = 1 to n do
    Statsched_stats.Welford.add w (D.sample d g)
  done;
  check_close ~rel:mean_rel
    (D.name d ^ ": empirical mean")
    (D.mean d)
    (Statsched_stats.Welford.mean w);
  if Float.is_finite (D.variance d) && D.variance d > 0.0 then
    check_close ~rel:cv_rel
      (D.name d ^ ": empirical std")
      (D.std d)
      (Statsched_stats.Welford.std w)

let exponential_analytic () =
  let d = Dist.Exponential.create ~rate:0.25 in
  check_float "mean" 4.0 (D.mean d);
  check_float "variance" 16.0 (D.variance d);
  check_float "cv" 1.0 (D.cv d);
  check_float "scv" 1.0 (D.scv d)

let exponential_of_mean () =
  let d = Dist.Exponential.of_mean 76.8 in
  check_float ~eps:1e-12 "mean" 76.8 (D.mean d)

let exponential_errors () =
  Alcotest.check_raises "rate <= 0" (Invalid_argument "Exponential.create: rate <= 0")
    (fun () -> ignore (Dist.Exponential.create ~rate:0.0));
  Alcotest.check_raises "mean <= 0" (Invalid_argument "Exponential.of_mean: mean <= 0")
    (fun () -> ignore (Dist.Exponential.of_mean (-1.0)))

let exponential_positive () =
  let g = rng () in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Dist.Exponential.sample ~rate:2.0 g > 0.0)
  done

let hyper_balanced_fit () =
  let (p1, r1), (p2, r2) = Dist.Hyperexponential.branch_params ~mean:2.2 ~cv:3.0 in
  check_float ~eps:1e-12 "probabilities sum to 1" 1.0 (p1 +. p2);
  (* Balanced means: each branch contributes half the mean. *)
  check_float ~eps:1e-9 "branch 1 contributes mean/2" (2.2 /. 2.0) (p1 /. r1);
  check_float ~eps:1e-9 "branch 2 contributes mean/2" (2.2 /. 2.0) (p2 /. r2)

let hyper_analytic_moments () =
  let d = Dist.Hyperexponential.fit_cv ~mean:2.2 ~cv:3.0 in
  check_float ~eps:1e-9 "mean" 2.2 (D.mean d);
  check_float ~eps:1e-6 "cv" 3.0 (D.cv d)

let hyper_cv_one_degenerates () =
  let d = Dist.Hyperexponential.fit_cv ~mean:5.0 ~cv:1.0 in
  check_float ~eps:1e-12 "mean" 5.0 (D.mean d);
  check_float ~eps:1e-9 "cv" 1.0 (D.cv d)

let hyper_errors () =
  Alcotest.check_raises "cv < 1" (Invalid_argument "Hyperexponential.fit_cv: cv < 1")
    (fun () -> ignore (Dist.Hyperexponential.fit_cv ~mean:1.0 ~cv:0.5));
  Alcotest.check_raises "mean <= 0" (Invalid_argument "Hyperexponential.fit_cv: mean <= 0")
    (fun () -> ignore (Dist.Hyperexponential.fit_cv ~mean:0.0 ~cv:2.0));
  Alcotest.check_raises "probs not summing"
    (Invalid_argument "Hyperexponential.create: probabilities must sum to 1") (fun () ->
      ignore (Dist.Hyperexponential.create ~probs:[| 0.5; 0.4 |] ~rates:[| 1.0; 2.0 |]));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Hyperexponential.create: non-positive rate") (fun () ->
      ignore (Dist.Hyperexponential.create ~probs:[| 0.5; 0.5 |] ~rates:[| 1.0; 0.0 |]))

let bp_paper_mean () =
  (* The paper quotes 76.8 s for B(10, 21600, 1). *)
  let d = Dist.Bounded_pareto.create_paper_default () in
  check_close ~rel:0.001 "mean 76.8" 76.8 (D.mean d)

let bp_moment_continuity () =
  (* The alpha = j logarithmic branch must agree with the limit of the
     general branch. *)
  let base = { Dist.Bounded_pareto.k = 10.0; p = 21600.0; alpha = 1.0 } in
  let exact = Dist.Bounded_pareto.raw_moment base 1 in
  let near = Dist.Bounded_pareto.raw_moment { base with alpha = 1.0 +. 1e-7 } 1 in
  check_close ~rel:1e-4 "alpha=1 matches alpha->1 limit" exact near

let bp_bounds () =
  let prm = Dist.Bounded_pareto.paper_default in
  let g = rng () in
  for _ = 1 to 50_000 do
    let x = Dist.Bounded_pareto.sample prm g in
    Alcotest.(check bool) "k <= x <= p" true (10.0 <= x && x <= 21600.0)
  done

let bp_quantile_monotone () =
  let prm = Dist.Bounded_pareto.paper_default in
  let prev = ref 0.0 in
  for i = 0 to 99 do
    let q = Dist.Bounded_pareto.quantile prm (float_of_int i /. 100.0) in
    Alcotest.(check bool) "monotone quantile" true (q >= !prev);
    prev := q
  done;
  check_float ~eps:1e-9 "quantile 0 = k" 10.0 (Dist.Bounded_pareto.quantile prm 0.0)

let bp_alpha_one_division_exact () =
  (* At alpha = 1 the inverse CDF divides by x instead of computing
     x ** 1.0; pow (x, 1.0) returns x exactly, so the two must agree bit
     for bit, at the edges of [0, 1) as well as on random draws. *)
  let ({ Dist.Bounded_pareto.k; p; alpha } as prm) = Dist.Bounded_pareto.paper_default in
  let trunc = 1.0 -. ((k /. p) ** alpha) in
  let check u =
    let want = k /. ((1.0 -. (u *. trunc)) ** alpha) in
    let got = Dist.Bounded_pareto.quantile prm u in
    if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)) then
      Alcotest.fail (Printf.sprintf "u = %h: %h, pow gives %h" u got want)
  in
  List.iter check
    [ 0.0; Float.min_float; 1e-300; epsilon_float /. 2.0; epsilon_float; 1e-9; 0.5;
      1.0 -. 1e-9; 1.0 -. epsilon_float; Float.pred 1.0 ];
  let g = rng () in
  for i = 1 to 1_000_000 do
    let u = Rng.float g in
    (* Every fourth draw is pushed against an edge of [0, 1). *)
    check
      (match i land 3 with
      | 0 -> u *. 1e-12
      | 1 -> Float.pred 1.0 -. (u *. 1e-12)
      | _ -> u)
  done

let bp_errors () =
  Alcotest.check_raises "k >= p" (Invalid_argument "Bounded_pareto: need 0 < k < p")
    (fun () ->
      Dist.Bounded_pareto.validate { Dist.Bounded_pareto.k = 5.0; p = 5.0; alpha = 1.0 });
  Alcotest.check_raises "alpha <= 0" (Invalid_argument "Bounded_pareto: need alpha > 0")
    (fun () ->
      Dist.Bounded_pareto.validate { Dist.Bounded_pareto.k = 1.0; p = 5.0; alpha = 0.0 })

let bp_heavy_tail () =
  (* With alpha = 1 a significant load fraction comes from the largest few
     percent of jobs: top 1% of sampled mass should exceed 15% of total. *)
  let prm = Dist.Bounded_pareto.paper_default in
  let g = rng () in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Dist.Bounded_pareto.sample prm g) in
  Array.sort compare xs;
  let total = Array.fold_left ( +. ) 0.0 xs in
  let top = ref 0.0 in
  for i = n - (n / 100) to n - 1 do
    top := !top +. xs.(i)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "top 1%% carries %.1f%% of load" (100.0 *. !top /. total))
    true
    (!top /. total > 0.15)

let uniform_analytic () =
  let d = Dist.Uniform_dist.create ~a:2.0 ~b:6.0 in
  check_float "mean" 4.0 (D.mean d);
  check_float ~eps:1e-12 "variance" (16.0 /. 12.0) (D.variance d)

let uniform_bounds () =
  let d = Dist.Uniform_dist.create ~a:0.0 ~b:1.0 in
  let g = rng () in
  for _ = 1 to 10_000 do
    let x = D.sample d g in
    Alcotest.(check bool) "in range" true (0.0 <= x && x < 1.0)
  done

let deterministic_constant () =
  let d = Dist.Deterministic.create 3.5 in
  let g = rng () in
  for _ = 1 to 100 do
    check_float "constant" 3.5 (D.sample d g)
  done;
  check_float "zero variance" 0.0 (D.variance d)

let erlang_analytic () =
  let d = Dist.Erlang.create ~k:4 ~rate:2.0 in
  check_float "mean" 2.0 (D.mean d);
  check_float "variance" 1.0 (D.variance d);
  check_float ~eps:1e-12 "cv = 1/sqrt k" 0.5 (D.cv d)

let erlang_of_mean_cv () =
  let d = Dist.Erlang.of_mean_cv ~mean:10.0 ~cv:0.5 in
  check_float ~eps:1e-9 "mean preserved" 10.0 (D.mean d);
  check_float ~eps:1e-9 "cv realised" 0.5 (D.cv d)

let lognormal_parameterisation () =
  let d = Dist.Lognormal.of_mean_cv ~mean:76.8 ~cv:2.0 in
  check_close ~rel:1e-9 "mean" 76.8 (D.mean d);
  check_close ~rel:1e-9 "cv" 2.0 (D.cv d)

let weibull_exponential_special_case () =
  (* shape = 1 is Exp(1/scale). *)
  let d = Dist.Weibull.create ~shape:1.0 ~scale:4.0 in
  check_close ~rel:1e-6 "mean" 4.0 (D.mean d);
  check_close ~rel:1e-6 "variance" 16.0 (D.variance d)

let empirical_resample () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let d = Dist.Empirical.create xs in
  check_float "mean" 2.5 (D.mean d);
  let g = rng () in
  for _ = 1 to 1000 do
    let x = D.sample d g in
    Alcotest.(check bool) "sampled from support" true (Array.exists (fun v -> v = x) xs)
  done

let empirical_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Empirical.create: empty sample")
    (fun () -> ignore (Dist.Empirical.create [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Empirical.create: negative value")
    (fun () -> ignore (Dist.Empirical.create [| 1.0; -2.0 |]))

let quantile_table_interpolates () =
  let d = Dist.Empirical.of_sorted_quantiles [| 0.0; 10.0 |] in
  let g = rng () in
  for _ = 1 to 1000 do
    let x = D.sample d g in
    Alcotest.(check bool) "within table range" true (0.0 <= x && x <= 10.0)
  done

let quantile_table_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Empirical.of_sorted_quantiles: not sorted") (fun () ->
      ignore (Dist.Empirical.of_sorted_quantiles [| 2.0; 1.0 |]))

let scaled_distribution () =
  let d = D.scaled (Dist.Exponential.of_mean 2.0) 3.0 in
  check_float ~eps:1e-12 "scaled mean" 6.0 (D.mean d);
  check_float ~eps:1e-12 "scaled variance" 36.0 (D.variance d);
  Alcotest.check_raises "c <= 0" (Invalid_argument "Distribution.scaled: c <= 0")
    (fun () -> ignore (D.scaled d 0.0))

let prop_hyper_moments =
  qcheck ~count:50 "H2 fit hits requested mean and cv"
    QCheck2.Gen.(pair (map (fun x -> 0.1 +. (10.0 *. x)) (float_bound_inclusive 1.0))
                   (map (fun x -> 1.0 +. (4.0 *. x)) (float_bound_inclusive 1.0)))
    (fun (mean, cv) ->
      let d = Dist.Hyperexponential.fit_cv ~mean ~cv in
      abs_float (D.mean d -. mean) < 1e-9 *. mean
      && abs_float (D.cv d -. cv) < 1e-6 *. cv)

let prop_bp_moment_positive =
  qcheck ~count:100 "bounded pareto moments positive and ordered"
    QCheck2.Gen.(
      triple
        (map (fun x -> 0.5 +. (10.0 *. x)) (float_bound_inclusive 1.0))
        (map (fun x -> 100.0 +. (10000.0 *. x)) (float_bound_inclusive 1.0))
        (map (fun x -> 0.2 +. (2.8 *. x)) (float_bound_inclusive 1.0)))
    (fun (k, p, alpha) ->
      let prm = { Dist.Bounded_pareto.k; p; alpha } in
      let m1 = Dist.Bounded_pareto.raw_moment prm 1 in
      let m2 = Dist.Bounded_pareto.raw_moment prm 2 in
      m1 > k && m1 < p && m2 >= m1 *. m1)

let log_gamma_known_values () =
  (* Γ(n) = (n−1)! — exact references computed by integer product. *)
  let fact n =
    let r = ref 1.0 in
    for i = 2 to n do r := !r *. float_of_int i done;
    !r
  in
  List.iter
    (fun n ->
      check_close ~rel:1e-12
        (Printf.sprintf "Gamma(%d) = %d!" n (n - 1))
        (fact (n - 1))
        (Dist.Special.gamma (float_of_int n)))
    [ 2; 5; 11; 21; 51; 101; 141; 161; 171 ];
  check_close ~rel:1e-12 "Gamma(1/2) = sqrt(pi)" (sqrt Float.pi)
    (Dist.Special.gamma 0.5);
  check_close ~rel:1e-12 "Gamma(3/2)" (0.5 *. sqrt Float.pi)
    (Dist.Special.gamma 1.5);
  (* Past the double range Γ is honestly infinite, not prematurely so. *)
  Alcotest.(check bool) "Gamma(180) overflows" true
    (Dist.Special.gamma 180.0 = infinity);
  Alcotest.(check bool) "log_gamma(180) stays finite" true
    (Float.is_finite (Dist.Special.log_gamma 180.0));
  Alcotest.(check bool) "z <= 0 is nan" true
    (Float.is_nan (Dist.Special.gamma 0.0) && Float.is_nan (Dist.Special.log_gamma (-2.5)))

let prop_log_gamma_recurrence =
  qcheck ~count:300 "log_gamma satisfies lnGamma(z+1) = ln z + lnGamma(z)"
    QCheck2.Gen.(map (fun x -> 0.05 +. (169.0 *. x)) (float_bound_inclusive 1.0))
    (fun z ->
      let lhs = Dist.Special.log_gamma (z +. 1.0) in
      let rhs = log z +. Dist.Special.log_gamma z in
      abs_float (lhs -. rhs) <= 1e-10 *. (1.0 +. abs_float rhs))

let weibull_small_shape_moments () =
  (* Regression: shape 0.0125 needs Γ(161) for the variance; the
     product-form Lanczos overflowed near Γ(141) and reported an
     infinite variance that is in fact representable. *)
  let d = Dist.Weibull.create ~shape:0.0125 ~scale:1.0 in
  Alcotest.(check bool) "variance finite at shape 0.0125" true
    (Float.is_finite (D.variance d));
  check_close ~rel:1e-10 "variance = Gamma(161) - Gamma(81)^2"
    (Dist.Special.gamma 161.0 -. (Dist.Special.gamma 81.0 ** 2.0))
    (D.variance d);
  (* Genuinely out-of-range moments still honestly report infinity. *)
  let tiny = Dist.Weibull.create ~shape:0.005 ~scale:1.0 in
  Alcotest.(check bool) "shape 0.005 variance is infinite" true
    (D.variance tiny = infinity)

let prop_weibull_gamma_relation =
  (* Analytic Γ relation at exactly-checkable points: for shape 1/m the
     mean is scale·Γ(1+m) = scale·m!, computable by integer product. *)
  qcheck ~count:100 "weibull mean = scale * m! for shape 1/m"
    QCheck2.Gen.(
      pair (int_range 1 50)
        (map (fun x -> 0.1 +. (5.0 *. x)) (float_bound_inclusive 1.0)))
    (fun (m, scale) ->
      let d = Dist.Weibull.create ~shape:(1.0 /. float_of_int m) ~scale in
      let fact =
        let r = ref 1.0 in
        for i = 2 to m do r := !r *. float_of_int i done;
        !r
      in
      abs_float (D.mean d -. (scale *. fact)) <= 1e-11 *. scale *. fact)

let prop_weibull_variance_nonnegative =
  (* Large shapes make Γ(1+2/k) − Γ(1+1/k)² a near-cancellation; the
     expm1 form must stay non-negative and finite. *)
  qcheck ~count:200 "weibull variance nonnegative across shapes"
    QCheck2.Gen.(
      pair (map (fun x -> 0.02 +. (60.0 *. x)) (float_bound_inclusive 1.0))
        (map (fun x -> 0.1 +. (10.0 *. x)) (float_bound_inclusive 1.0)))
    (fun (shape, scale) ->
      let d = Dist.Weibull.create ~shape ~scale in
      D.variance d >= 0.0 && not (Float.is_nan (D.variance d))
      && (shape < 0.012 || Float.is_finite (D.variance d)))

let weibull_small_shape_empirical_mean () =
  (* The corrected analytic mean agrees with the sample mean at a small
     shape (k = 0.5: mean = scale·Γ(3) = 2·scale). *)
  let d = Dist.Weibull.create ~shape:0.5 ~scale:3.0 in
  check_float ~eps:1e-12 "analytic mean" 6.0 (D.mean d);
  let g = rng ~seed:7L () in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do sum := !sum +. D.sample d g done;
  check_close ~rel:0.05 "sample mean near analytic" 6.0 (!sum /. float_of_int n)

(* [fill] and the specialised samplers must draw bit for bit what the
   plain sampler (or the inverse CDF) draws from the same stream. *)
let fill_matches_sample () =
  let bits x = Int64.bits_of_float x in
  let same name d =
    let a = Float.Array.make 300 0.0 in
    D.fill d (rng ~seed:11L ()) a;
    let g = rng ~seed:11L () in
    Float.Array.iteri
      (fun i x ->
        if not (Int64.equal (bits x) (bits (D.sample d g))) then
          Alcotest.failf "%s: fill differs from sample at slot %d" name i)
      a
  in
  let h2 = Dist.Hyperexponential.fit_cv ~mean:2.2 ~cv:3.0 in
  same "H2" h2;
  same "scaled H2" (D.scaled h2 1.7);
  same "H3"
    (Dist.Hyperexponential.create ~probs:[| 0.2; 0.3; 0.5 |] ~rates:[| 0.5; 1.0; 4.0 |]);
  same "BP" (Dist.Bounded_pareto.create_paper_default ());
  let bp = Dist.Bounded_pareto.create_paper_default () in
  let g1 = rng ~seed:5L () and g2 = rng ~seed:5L () in
  for i = 1 to 300 do
    let x = D.sample bp g1
    and y = Dist.Bounded_pareto.sample Dist.Bounded_pareto.paper_default g2 in
    if not (Int64.equal (bits x) (bits y)) then
      Alcotest.failf "BP: sampler differs from the inverse CDF at draw %d" i
  done

let suite =
  [
    test "distribution: fill and samplers draw bit for bit" fill_matches_sample;
    test "exponential: analytic moments" exponential_analytic;
    test "exponential: of_mean" exponential_of_mean;
    test "exponential: parameter validation" exponential_errors;
    test "exponential: samples positive" exponential_positive;
    slow_test "exponential: empirical moments"
      (empirical_check (Dist.Exponential.create ~rate:0.5));
    test "hyperexponential: balanced-means fit" hyper_balanced_fit;
    test "hyperexponential: analytic moments" hyper_analytic_moments;
    test "hyperexponential: cv=1 degenerates to exponential" hyper_cv_one_degenerates;
    test "hyperexponential: parameter validation" hyper_errors;
    slow_test "hyperexponential: empirical moments"
      (empirical_check ~cv_rel:0.15 (Dist.Hyperexponential.fit_cv ~mean:2.2 ~cv:3.0));
    test "bounded pareto: paper mean 76.8" bp_paper_mean;
    test "bounded pareto: moment continuity at alpha=j" bp_moment_continuity;
    test "bounded pareto: samples within bounds" bp_bounds;
    test "bounded pareto: quantile monotone" bp_quantile_monotone;
    test "bounded pareto: parameter validation" bp_errors;
    test "bounded pareto: alpha = 1 division matches pow" bp_alpha_one_division_exact;
    slow_test "bounded pareto: heavy tail" bp_heavy_tail;
    slow_test "bounded pareto: empirical mean"
      (empirical_check ~n:400_000 ~mean_rel:0.1 ~cv_rel:0.5
         (Dist.Bounded_pareto.create_paper_default ()));
    test "uniform: analytic moments" uniform_analytic;
    test "uniform: bounds" uniform_bounds;
    test "deterministic: constant" deterministic_constant;
    test "erlang: analytic moments" erlang_analytic;
    test "erlang: of_mean_cv" erlang_of_mean_cv;
    slow_test "erlang: empirical moments" (empirical_check (Dist.Erlang.create ~k:3 ~rate:1.5));
    test "lognormal: mean/cv parameterisation" lognormal_parameterisation;
    slow_test "lognormal: empirical moments"
      (empirical_check ~cv_rel:0.15 (Dist.Lognormal.of_mean_cv ~mean:10.0 ~cv:1.5));
    test "weibull: shape=1 is exponential" weibull_exponential_special_case;
    slow_test "weibull: empirical moments"
      (empirical_check (Dist.Weibull.create ~shape:1.5 ~scale:2.0));
    test "special: gamma known values" log_gamma_known_values;
    prop_log_gamma_recurrence;
    test "weibull: small-shape moments finite (regression)" weibull_small_shape_moments;
    prop_weibull_gamma_relation;
    prop_weibull_variance_nonnegative;
    slow_test "weibull: small-shape empirical mean" weibull_small_shape_empirical_mean;
    test "empirical: resampling support" empirical_resample;
    test "empirical: validation" empirical_errors;
    test "empirical: quantile table interpolation" quantile_table_interpolates;
    test "empirical: quantile table sorted check" quantile_table_unsorted;
    test "distribution: scaled" scaled_distribution;
    prop_hyper_moments;
    prop_bp_moment_positive;
  ]
