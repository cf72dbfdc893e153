open Test_util
module Core = Statsched_core
module Speeds = Core.Speeds
module Mm1 = Core.Mm1
module Least_load = Core.Least_load
module Metrics = Core.Metrics
module Policy = Core.Policy
module Rng = Statsched_prng.Rng

(* ------------------------------------------------------------------ *)
(* Speeds                                                              *)

let speeds_table3 () =
  Alcotest.(check int) "15 computers" 15 (Array.length Speeds.table3);
  check_float ~eps:1e-12 "aggregate 44" 44.0 (Speeds.total Speeds.table3)

let speeds_two_class () =
  let s = Speeds.two_class ~n_fast:2 ~fast:10.0 ~n_slow:3 ~slow:1.0 in
  check_array ~eps:0.0 "layout" [| 10.0; 10.0; 1.0; 1.0; 1.0 |] s;
  Alcotest.check_raises "empty cluster" (Invalid_argument "Speeds.two_class: empty cluster")
    (fun () -> ignore (Speeds.two_class ~n_fast:0 ~fast:1.0 ~n_slow:0 ~slow:1.0))

let speeds_of_counts () =
  let s = Speeds.of_counts [ (2.0, 2); (1.0, 1) ] in
  check_array ~eps:0.0 "expansion" [| 2.0; 2.0; 1.0 |] s

let speeds_sort_permutation () =
  let s = [| 3.0; 1.0; 2.0 |] in
  let sorted, perm = Speeds.sort_with_permutation s in
  check_array ~eps:0.0 "sorted" [| 1.0; 2.0; 3.0 |] sorted;
  Alcotest.(check (array int)) "permutation" [| 1; 2; 0 |] perm;
  Array.iteri (fun k orig -> check_float "roundtrip" sorted.(k) s.(orig)) perm

let speeds_sort_stable () =
  let s = [| 2.0; 1.0; 2.0; 1.0 |] in
  let _, perm = Speeds.sort_with_permutation s in
  Alcotest.(check (array int)) "stable for equal speeds" [| 1; 3; 0; 2 |] perm

let speeds_of_string () =
  check_array ~eps:0.0 "groups" [| 10.0; 10.0; 1.0; 1.0; 1.0 |]
    (Speeds.of_string "2x10,3x1");
  check_array ~eps:0.0 "plain list" [| 1.0; 2.5 |] (Speeds.of_string "1, 2.5");
  check_array ~eps:0.0 "table 3 notation" Speeds.table3
    (Speeds.of_string "5x1.0,4x1.5,3x2.0,5.0,10,12");
  Alcotest.check_raises "garbage"
    (Invalid_argument "Speeds.of_string: cannot parse \"abc\"") (fun () ->
      ignore (Speeds.of_string "abc"));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Speeds.of_string: cannot parse \"-2x1\"") (fun () ->
      ignore (Speeds.of_string "-2x1"))

let speeds_to_string_roundtrip () =
  Alcotest.(check string) "grouping" "2x10,16x1"
    (Speeds.to_string (Speeds.two_class ~n_fast:2 ~fast:10.0 ~n_slow:16 ~slow:1.0));
  Alcotest.(check string) "singleton" "3.5" (Speeds.to_string [| 3.5 |]);
  List.iter
    (fun s ->
      check_array ~eps:0.0 "roundtrip" s (Speeds.of_string (Speeds.to_string s)))
    [ Speeds.table1; Speeds.table3; [| 2.0; 1.0; 2.0 |] ]

let speeds_validation () =
  Alcotest.check_raises "zero speed"
    (Invalid_argument "Speeds.validate: speeds must be positive and finite") (fun () ->
      Speeds.validate [| 1.0; 0.0 |]);
  Alcotest.check_raises "nan speed"
    (Invalid_argument "Speeds.validate: speeds must be positive and finite") (fun () ->
      Speeds.validate [| Float.nan |])

(* ------------------------------------------------------------------ *)
(* Mm1                                                                 *)

let mm1_single_server () =
  (* Classic M/M/1: T = 1/(mu - lambda). *)
  check_float ~eps:1e-12 "T" (1.0 /. 0.3)
    (Mm1.server_mean_response_time ~mu:1.0 ~lambda:0.7 ~speed:1.0 ~alpha:1.0);
  check_float "saturated T infinite" infinity
    (Mm1.server_mean_response_time ~mu:1.0 ~lambda:1.0 ~speed:1.0 ~alpha:1.0);
  check_float ~eps:1e-12 "utilization" 0.7
    (Mm1.server_utilization ~mu:1.0 ~lambda:0.7 ~speed:1.0 ~alpha:1.0)

let mm1_speed_scales_service () =
  (* A speed-2 computer at the same load has half the response time of a
     speed-1 computer at half the arrival rate... directly: T = 1/(2mu -
     alpha lambda). *)
  check_float ~eps:1e-12 "T for s=2" (1.0 /. (2.0 -. 0.7))
    (Mm1.server_mean_response_time ~mu:1.0 ~lambda:0.7 ~speed:2.0 ~alpha:1.0)

let mm1_ratio_is_mu_times_time () =
  let mu = 0.013 and lambda = 0.3 in
  let speeds = Speeds.table1 in
  let alloc = Core.Allocation.weighted speeds in
  let t = Mm1.mean_response_time ~mu ~lambda ~speeds ~alloc in
  let r = Mm1.mean_response_ratio ~mu ~lambda ~speeds ~alloc in
  check_float ~eps:1e-12 "R = mu T" (mu *. t) r

let mm1_lambda_roundtrip () =
  let speeds = Speeds.table3 in
  let mu = 1.0 /. 76.8 in
  let lambda = Mm1.lambda_of_utilization ~mu ~rho:0.7 ~speeds in
  check_float ~eps:1e-12 "utilization roundtrip" 0.7
    (Mm1.system_utilization ~mu ~lambda ~speeds)

let mm1_equation3_manual () =
  (* T = sum alpha_i / (s_i mu - alpha_i lambda), computed by hand for a
     2-computer system. *)
  let speeds = [| 1.0; 2.0 |] in
  let alloc = [| 0.25; 0.75 |] in
  let mu = 1.0 and lambda = 1.5 in
  let expected =
    (0.25 /. (1.0 -. (0.25 *. 1.5))) +. (0.75 /. (2.0 -. (0.75 *. 1.5)))
  in
  check_float ~eps:1e-12 "equation (3)" expected
    (Mm1.mean_response_time ~mu ~lambda ~speeds ~alloc)

let mm1_predicted_wrapper () =
  let speeds = Speeds.table3 in
  let mu = 1.0 /. 76.8 in
  let alloc = Core.Allocation.weighted speeds in
  let lambda = Mm1.lambda_of_utilization ~mu ~rho:0.7 ~speeds in
  check_float ~eps:1e-12 "wrapper consistency"
    (Mm1.mean_response_time ~mu ~lambda ~speeds ~alloc)
    (Mm1.predicted ~mu ~rho:0.7 ~speeds ~alloc `Mean_response_time)

let mm1_weighted_equalizes_ratios () =
  (* Under weighted allocation every computer has the same utilisation, so
     per-server response *ratios* R_i = mu/(s_i mu - alpha_i lambda) *
     ... equal utilisation makes R_i = 1/(s_i(1-rho)) * s_i = mu/(s_i mu(1-rho)) —
     the response ratio contribution mu/(s_i mu - alpha_i lambda) equals
     1/(s_i (1 - rho)) ... check numerically that utilisations match. *)
  let speeds = Speeds.table1 in
  let mu = 0.5 in
  let lambda = Mm1.lambda_of_utilization ~mu ~rho:0.6 ~speeds in
  let alloc = Core.Allocation.weighted speeds in
  Array.iteri
    (fun i s ->
      check_float ~eps:1e-12
        (Printf.sprintf "rho_%d" i)
        0.6
        (Mm1.server_utilization ~mu ~lambda ~speed:s ~alpha:alloc.(i)))
    speeds

(* ------------------------------------------------------------------ *)
(* Least_load                                                          *)

let ll_selects_fastest_when_empty () =
  let t = Least_load.create Speeds.table1 in
  (* all queues 0: min (0+1)/s is the fastest computer (index 6, speed 10) *)
  Alcotest.(check int) "fastest picked first" 6 (Least_load.select t)

let ll_updates_shift_selection () =
  let t = Least_load.create [| 1.0; 10.0 |] in
  Alcotest.(check int) "fast first" 1 (Least_load.select t);
  (* Send 9 jobs to the fast machine: (9+1)/10 = 1 = (0+1)/1 tie; index
     order breaks to 0. *)
  for _ = 1 to 9 do
    Least_load.job_sent t 1
  done;
  Alcotest.(check int) "slow machine now tied, chosen by index" 0 (Least_load.select t);
  Least_load.job_sent t 1;
  Alcotest.(check int) "slow machine strictly better" 0 (Least_load.select t)

let ll_departures_rebalance () =
  let t = Least_load.create [| 1.0; 1.0 |] in
  Least_load.job_sent t 0;
  Alcotest.(check int) "other machine now emptier" 1 (Least_load.select t);
  Least_load.departure_recorded t 0;
  Alcotest.(check int) "tie again after departure" 0 (Least_load.select t)

let ll_availability_mask () =
  let t = Least_load.create [| 1.0; 1.0; 1.0 |] in
  Least_load.job_sent t 0;
  (* Computer 0 carries a job, so 1 and 2 tie for least load... *)
  Alcotest.(check int) "least loaded by index" 1 (Least_load.select t);
  (* ...but marking them down forces the choice onto the loaded one. *)
  Least_load.set_available t 1 false;
  Least_load.set_available t 2 false;
  Alcotest.(check bool) "mask readable" false (Least_load.is_available t 1);
  Alcotest.(check int) "only available computer chosen" 0 (Least_load.select t);
  Least_load.set_available t 2 true;
  Alcotest.(check int) "recovered computer wins again" 2 (Least_load.select t);
  (* With every computer down the scheduler must still pick someone. *)
  Least_load.set_available t 0 false;
  Least_load.set_available t 2 false;
  Alcotest.(check int) "all-down falls back to all" 1 (Least_load.select t);
  (* Sampling only probes available computers. *)
  let g = rng () in
  Least_load.set_available t 0 true;
  for _ = 1 to 50 do
    Alcotest.(check int) "sampled selection respects the mask" 0
      (Least_load.select_sampled ~rng:g t ~d:2)
  done

let ll_rng_threading_changes_ties_only () =
  (* Regression for the tie-breaking fix: an rng must only matter when
     there is an actual tie — and without one, selection stays at the
     lowest index regardless of how often it is called. *)
  let g = rng () in
  let t = Least_load.create [| 2.0; 1.0; 1.0 |] in
  for _ = 1 to 20 do
    Alcotest.(check int) "unique minimum ignores the rng" 0
      (Least_load.select ~rng:g t)
  done;
  let tie = Least_load.create [| 1.0; 1.0 |] in
  let seen = Array.make 2 0 in
  for _ = 1 to 200 do
    let i = Least_load.select ~rng:g tie in
    seen.(i) <- seen.(i) + 1
  done;
  Alcotest.(check bool) "both tied computers get picked" true
    (seen.(0) > 0 && seen.(1) > 0);
  for _ = 1 to 20 do
    Alcotest.(check int) "no rng pins the lowest index" 0
      (Least_load.select tie)
  done

let ll_no_negative_queue () =
  let t = Least_load.create [| 1.0 |] in
  Least_load.departure_recorded t 0;
  Least_load.departure_recorded t 0;
  Alcotest.(check int) "clamped at zero" 0 (Least_load.load_index t 0)

let ll_normalized_load () =
  let t = Least_load.create [| 4.0 |] in
  Least_load.job_sent t 0;
  check_float ~eps:1e-12 "(q+1)/s" 0.5 (Least_load.normalized_load t 0)

let ll_random_ties_uniform () =
  let t = Least_load.create [| 1.0; 1.0; 1.0 |] in
  let g = rng () in
  let c = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Least_load.select ~rng:g t in
    c.(i) <- c.(i) + 1
  done;
  Array.iteri
    (fun i count ->
      Alcotest.(check bool)
        (Printf.sprintf "tie %d roughly uniform (%d)" i count)
        true
        (abs (count - 10_000) < 1_000))
    c

let ll_reset () =
  let t = Least_load.create [| 1.0; 2.0 |] in
  Least_load.job_sent t 0;
  Least_load.job_sent t 1;
  Least_load.reset t;
  Alcotest.(check int) "queues cleared" 0 (Least_load.load_index t 0);
  Alcotest.(check int) "queues cleared" 0 (Least_load.load_index t 1)

(* [Least_load.select_idle] against the Join-Idle-Queue module it
   replaced (test/jiq_oracle.ml), decision for decision, over random
   streams of dispatches, departures, crashes, recoveries and policy
   swaps.  A swap seeds a fresh state from the live queues the way the
   simulation does (Least-Load through [set_load_index], the oracle one
   [job_sent] per queued job), then replays availability.  Speeds come
   from a few classes so the per-class stacks fill; each cluster's
   dispatch share is drawn so the stacks also drain and the alias
   fallback decides.  Both selectors get their own copy of one stream,
   since the fallback draws. *)
let ll_select_idle_matches_jiq_oracle () =
  let g = rng () in
  let classes = [| 1.0; 1.5; 2.0; 4.0 |] in
  let ops = ref 0 in
  for trial = 1 to 500 do
    let n = 1 + Rng.int g 48 in
    let speeds = Array.init n (fun _ -> classes.(Rng.int g 4)) in
    let ll = ref (Least_load.create speeds) in
    let oracle = ref (Jiq_oracle.create speeds) in
    let seed = Int64.of_int (Rng.int g 1_000_000) in
    let g_ll = rng ~seed () and g_oracle = rng ~seed () in
    let dispatch_share = 0.3 +. (0.3 *. Rng.float g) in
    for step = 1 to 2000 do
      incr ops;
      let u = Rng.float g in
      let i = Rng.int g n in
      if u < dispatch_share then begin
        let got = Least_load.select_idle ~rng:g_ll !ll in
        let want = Jiq_oracle.select ~rng:g_oracle !oracle in
        if got <> want then
          Alcotest.failf "trial %d, step %d: select_idle %d, oracle %d" trial
            step got want;
        Least_load.job_sent !ll got;
        Jiq_oracle.job_sent !oracle want
      end
      else if u < 0.9 then begin
        Least_load.departure_recorded !ll i;
        Jiq_oracle.departure_recorded !oracle i
      end
      else if u < 0.99 then begin
        let up = Rng.bool g in
        Least_load.set_available !ll i up;
        Jiq_oracle.set_available !oracle i up
      end
      else begin
        let old = !ll in
        ll := Least_load.create speeds;
        oracle := Jiq_oracle.create speeds;
        for j = 0 to n - 1 do
          let q = Least_load.load_index old j in
          Least_load.set_load_index !ll j q;
          for _ = 1 to q do
            Jiq_oracle.job_sent !oracle j
          done
        done;
        for j = 0 to n - 1 do
          let up = Least_load.is_available old j in
          Least_load.set_available !ll j up;
          Jiq_oracle.set_available !oracle j up
        done
      end
    done
  done;
  Alcotest.(check bool) (Printf.sprintf "%d operations >= 10^6" !ops) true
    (!ops >= 1_000_000)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics_deviation_zero_when_exact () =
  check_float "exact split" 0.0
    (Metrics.deviation ~expected:[| 0.5; 0.25; 0.25 |] ~counts:[| 2; 1; 1 |])

let metrics_deviation_known () =
  (* expected (0.5, 0.5), actual (1, 0): (0.5)^2 + (0.5)^2 = 0.5 *)
  check_float ~eps:1e-12 "known deviation" 0.5
    (Metrics.deviation ~expected:[| 0.5; 0.5 |] ~counts:[| 4; 0 |])

let metrics_deviation_empty_interval () =
  check_float ~eps:1e-12 "no dispatches" 0.5
    (Metrics.deviation ~expected:[| 0.5; 0.5 |] ~counts:[| 0; 0 |])

let metrics_deviation_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.deviation: length mismatch") (fun () ->
      ignore (Metrics.deviation ~expected:[| 1.0 |] ~counts:[| 1; 2 |]))

let metrics_actual_fractions () =
  check_array ~eps:1e-12 "fractions" [| 0.25; 0.75 |]
    (Metrics.actual_fractions [| 1; 3 |]);
  check_array ~eps:0.0 "all zeros when empty" [| 0.0; 0.0 |]
    (Metrics.actual_fractions [| 0; 0 |])

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let policy_names () =
  Alcotest.(check string) "WRAN" "WRAN" (Policy.name Policy.wran);
  Alcotest.(check string) "ORAN" "ORAN" (Policy.name Policy.oran);
  Alcotest.(check string) "WRR" "WRR" (Policy.name Policy.wrr);
  Alcotest.(check string) "ORR" "ORR" (Policy.name Policy.orr);
  Alcotest.(check string) "estimated" "ORR@0.77" (Policy.name (Policy.orr_estimated 0.77))

let policy_matrix_complete () =
  Alcotest.(check int) "four static policies" 4 (List.length Policy.all_static);
  let names = List.map fst Policy.all_static in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "WRAN"; "ORAN"; "WRR"; "ORR" ]

let policy_allocation_dispatch () =
  let s = Speeds.table1 in
  let weighted = Policy.allocation_of Policy.wrr ~rho:0.7 s in
  check_array ~eps:1e-12 "weighted policy allocation" (Core.Allocation.weighted s) weighted;
  let opt = Policy.allocation_of Policy.orr ~rho:0.7 s in
  check_array ~eps:1e-12 "optimized policy allocation"
    (Core.Allocation.optimized ~rho:0.7 s)
    opt

let policy_estimated_clamps () =
  let s = Speeds.table1 in
  (* rho_hat >= 1 degrades to weighted (paper: ORR converges to WRR). *)
  let alloc = Policy.allocation_of (Policy.orr_estimated 1.05) ~rho:0.9 s in
  check_array ~eps:1e-12 "degenerates to weighted" (Core.Allocation.weighted s) alloc

let policy_dispatcher_kinds () =
  let s = [| 0.5; 0.5 |] in
  let rr = Policy.dispatcher_of Policy.orr ~rng:(rng ()) s in
  Alcotest.(check string) "round robin dispatcher" "round-robin" (Core.Dispatch.name rr);
  let rand = Policy.dispatcher_of Policy.oran ~rng:(rng ()) s in
  Alcotest.(check string) "random dispatcher" "random" (Core.Dispatch.name rand)

let suite =
  [
    test "speeds: table 3 configuration" speeds_table3;
    test "speeds: two-class constructor" speeds_two_class;
    test "speeds: of_counts" speeds_of_counts;
    test "speeds: sort with permutation" speeds_sort_permutation;
    test "speeds: stable sort" speeds_sort_stable;
    test "speeds: of_string parser" speeds_of_string;
    test "speeds: to_string roundtrip" speeds_to_string_roundtrip;
    test "speeds: validation" speeds_validation;
    test "mm1: single server closed form" mm1_single_server;
    test "mm1: speed scales service rate" mm1_speed_scales_service;
    test "mm1: R = mu*T" mm1_ratio_is_mu_times_time;
    test "mm1: lambda/utilization roundtrip" mm1_lambda_roundtrip;
    test "mm1: equation (3) by hand" mm1_equation3_manual;
    test "mm1: predicted wrapper" mm1_predicted_wrapper;
    test "mm1: weighted allocation equalises utilisations" mm1_weighted_equalizes_ratios;
    test "least-load: fastest first on empty system" ll_selects_fastest_when_empty;
    test "least-load: queue growth shifts selection" ll_updates_shift_selection;
    test "least-load: departures rebalance" ll_departures_rebalance;
    test "least-load: queue never negative" ll_no_negative_queue;
    test "least-load: normalized load" ll_normalized_load;
    test "least-load: random tie-breaking uniform" ll_random_ties_uniform;
    test "least-load: availability mask" ll_availability_mask;
    test "least-load: rng affects ties only" ll_rng_threading_changes_ties_only;
    test "least-load: reset" ll_reset;
    test "metrics: deviation zero for exact split" metrics_deviation_zero_when_exact;
    test "metrics: deviation known value" metrics_deviation_known;
    test "metrics: deviation of empty interval" metrics_deviation_empty_interval;
    test "metrics: deviation length mismatch" metrics_deviation_mismatch;
    test "metrics: actual fractions" metrics_actual_fractions;
    test "policy: canonical names" policy_names;
    test "policy: Table 2 matrix complete" policy_matrix_complete;
    test "policy: allocation delegation" policy_allocation_dispatch;
    test "policy: estimated rho >= 1 degrades to weighted" policy_estimated_clamps;
    test "policy: dispatcher kinds" policy_dispatcher_kinds;
    test "least-load: select_idle matches the JIQ oracle"
      ll_select_idle_matches_jiq_oracle;
  ]
