open Test_util
module Core = Statsched_core
module Dispatch = Core.Dispatch
module Rng = Statsched_prng.Rng

let counts dispatcher n_computers n_arrivals =
  let c = Array.make n_computers 0 in
  for _ = 1 to n_arrivals do
    let i = Dispatch.select dispatcher in
    c.(i) <- c.(i) + 1
  done;
  c

(* Maximum over all prefixes of |count_i - t * alpha_i|. *)
let max_prefix_discrepancy dispatcher alpha n_arrivals =
  let n = Array.length alpha in
  let c = Array.make n 0 in
  let worst = ref 0.0 in
  for t = 1 to n_arrivals do
    let i = Dispatch.select dispatcher in
    c.(i) <- c.(i) + 1;
    for j = 0 to n - 1 do
      let d = abs_float (float_of_int c.(j) -. (float_of_int t *. alpha.(j))) in
      if d > !worst then worst := d
    done
  done;
  !worst

let paper_example_fractions = [| 0.125; 0.125; 0.25; 0.5 |]

let rr_paper_example_counts () =
  (* Over each full cycle of 8 arrivals the counts must be exactly
     proportional: 1,1,2,4. *)
  let d = Dispatch.round_robin paper_example_fractions in
  for cycle = 1 to 10 do
    let c = counts d 4 8 in
    Alcotest.(check (array int))
      (Printf.sprintf "cycle %d exact" cycle)
      [| 1; 1; 2; 4 |] c
  done

let rr_first_selection_largest_fraction () =
  let d = Dispatch.round_robin paper_example_fractions in
  Alcotest.(check int) "largest fraction first" 3 (Dispatch.select d)

let rr_paper_example_trace () =
  (* Regression: the exact decision sequence of Algorithm 2 on the
     Section 3.2 example (1/8, 1/8, 1/4, 1/2).  The per-cycle counts match
     the ideal split; the order is pinned here to catch silent changes. *)
  let d = Dispatch.round_robin paper_example_fractions in
  let seq = List.init 8 (fun _ -> Dispatch.select d) in
  Alcotest.(check (list int)) "first cycle" [ 3; 2; 3; 3; 0; 2; 3; 1 ] seq

let rr_uniform_degenerates_to_cycle () =
  (* With equal fractions Algorithm 2 is the traditional round-robin:
     every computer exactly once per cycle. *)
  let n = 5 in
  let d = Dispatch.round_robin (Array.make n (1.0 /. float_of_int n)) in
  for cycle = 1 to 20 do
    let seen = counts d n n in
    Alcotest.(check (array int))
      (Printf.sprintf "cycle %d covers all" cycle)
      (Array.make n 1) seen
  done

let rr_two_computers () =
  let d = Dispatch.round_robin [| 0.5; 0.5 |] in
  let seq = List.init 6 (fun _ -> Dispatch.select d) in
  (* strict alternation after the first pick *)
  (match seq with
  | a :: b :: c :: d' :: e :: f :: _ ->
    Alcotest.(check bool) "alternates" true
      (a <> b && b <> c && c <> d' && d' <> e && e <> f)
  | _ -> Alcotest.fail "short sequence");
  ()

let rr_long_run_fractions () =
  let alpha = [| 0.35; 0.22; 0.15; 0.12; 0.04; 0.04; 0.04; 0.04 |] in
  let d = Dispatch.round_robin alpha in
  let n = 100_000 in
  let c = counts d 8 n in
  Array.iteri
    (fun i count ->
      check_close ~rel:0.01
        (Printf.sprintf "computer %d long-run share" i)
        alpha.(i)
        (float_of_int count /. float_of_int n))
    c

let rr_bounded_discrepancy () =
  let alpha = paper_example_fractions in
  let d = Dispatch.round_robin alpha in
  let worst = max_prefix_discrepancy d alpha 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "max prefix discrepancy %.2f small" worst)
    true (worst <= 2.0)

let rr_zero_fraction_never_selected () =
  let d = Dispatch.round_robin [| 0.0; 0.5; 0.0; 0.5 |] in
  for _ = 1 to 1000 do
    let i = Dispatch.select d in
    Alcotest.(check bool) "only live computers" true (i = 1 || i = 3)
  done

let rr_reset () =
  let d = Dispatch.round_robin paper_example_fractions in
  let first_run = List.init 8 (fun _ -> Dispatch.select d) in
  Dispatch.reset d;
  let second_run = List.init 8 (fun _ -> Dispatch.select d) in
  Alcotest.(check (list int)) "reset replays" first_run second_run

let rr_single_computer () =
  let d = Dispatch.round_robin [| 1.0 |] in
  for _ = 1 to 100 do
    Alcotest.(check int) "only choice" 0 (Dispatch.select d)
  done

let rr_guard_staggers_small_fractions () =
  (* The guard spreads the first jobs of the four 0.04-fraction computers
     across the cycle; without it they bunch up early.  Measure the spread
     of first-selection times for computers 4..7. *)
  let alpha = [| 0.35; 0.22; 0.15; 0.12; 0.04; 0.04; 0.04; 0.04 |] in
  let first_times guard_d =
    let first = Array.make 8 (-1) in
    for t = 0 to 199 do
      let i = Dispatch.select guard_d in
      if first.(i) < 0 then first.(i) <- t
    done;
    first
  in
  let with_guard = first_times (Dispatch.round_robin alpha) in
  let without = first_times (Dispatch.round_robin_no_guard alpha) in
  let spread f =
    let small = Array.sub f 4 4 in
    Array.sort compare small;
    small.(3) - small.(0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "guard spread %d > no-guard spread %d" (spread with_guard)
       (spread without))
    true
    (spread with_guard > spread without)

let rr_variants_same_longrun () =
  (* All Algorithm 2 variants realise the same long-run fractions. *)
  let alpha = [| 0.4; 0.3; 0.2; 0.1 |] in
  let n = 50_000 in
  List.iter
    (fun make ->
      let d = make alpha in
      let c = counts d 4 n in
      Array.iteri
        (fun i count ->
          check_close ~rel:0.02
            (Printf.sprintf "%s computer %d" (Dispatch.name d) i)
            alpha.(i)
            (float_of_int count /. float_of_int n))
        c)
    [ Dispatch.round_robin; Dispatch.round_robin_no_guard;
      Dispatch.round_robin_index_ties; Dispatch.smooth_weighted ]

(* Dyadic fraction vectors (every entry a power of two) by repeatedly
   halving a random entry: the regime where the lazy dispatcher's
   reassociated arithmetic is exact. *)
let dyadic_fractions_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* picks = list_repeat (n - 1) (int_bound 1000) in
    let parts = ref [ 1.0 ] in
    List.iter
      (fun k ->
        let arr = Array.of_list !parts in
        let i = k mod Array.length arr in
        let half = arr.(i) /. 2.0 in
        arr.(i) <- half;
        parts := half :: Array.to_list arr)
      picks;
    return (Array.of_list !parts))

let rr_lazy_matches_eager_dyadic () =
  (* With power-of-two fractions every quantity in Algorithm 2 is a
     dyadic rational, so the lazy offset form computes the exact same
     reals and must be decision-for-decision identical to the eager
     O(n) version — including the guard-row tie cases. *)
  let cases =
    [ paper_example_fractions;
      [| 0.5; 0.5 |];
      [| 0.25; 0.25; 0.25; 0.25 |];
      [| 0.5; 0.25; 0.125; 0.0625; 0.0625 |];
      Array.make 8 0.125 ]
  in
  List.iter
    (fun alpha ->
      let eager = Dispatch.round_robin alpha in
      let lazy_d = Dispatch.round_robin_lazy alpha in
      for t = 1 to 10_000 do
        let e = Dispatch.select eager and l = Dispatch.select lazy_d in
        if e <> l then
          Alcotest.fail
            (Printf.sprintf "decision %d diverges: eager %d, lazy %d" t e l)
      done)
    cases

let prop_rr_lazy_dyadic_exact =
  qcheck ~count:100 "lazy ORR bit-identical to eager on dyadic fractions"
    dyadic_fractions_gen
    (fun alpha ->
      let eager = Dispatch.round_robin alpha in
      let lazy_d = Dispatch.round_robin_lazy alpha in
      let same = ref true in
      for _ = 1 to 2000 do
        if Dispatch.select eager <> Dispatch.select lazy_d then same := false
      done;
      !same)

let rr_lazy_longrun_and_discrepancy () =
  (* On arbitrary fractions the lazy form is its own dispatcher (rounding
     can reorder guard-row ties) but must keep Algorithm 2's guarantees:
     long-run shares and O(1) prefix discrepancy. *)
  let alpha = [| 0.35; 0.22; 0.15; 0.12; 0.04; 0.04; 0.04; 0.04 |] in
  let d = Dispatch.round_robin_lazy alpha in
  let n = 100_000 in
  let c = counts d 8 n in
  Array.iteri
    (fun i count ->
      check_close ~rel:0.01
        (Printf.sprintf "lazy computer %d long-run share" i)
        alpha.(i)
        (float_of_int count /. float_of_int n))
    c;
  let worst =
    max_prefix_discrepancy (Dispatch.round_robin_lazy alpha) alpha 20_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "lazy max prefix discrepancy %.2f small" worst)
    true (worst <= 2.0)

let rr_lazy_reset_and_zero_fractions () =
  let d = Dispatch.round_robin_lazy [| 0.0; 0.5; 0.0; 0.25; 0.25 |] in
  let first_run = List.init 16 (fun _ -> Dispatch.select d) in
  List.iter
    (fun i ->
      Alcotest.(check bool) "only live computers" true (i = 1 || i = 3 || i = 4))
    first_run;
  Dispatch.reset d;
  let second_run = List.init 16 (fun _ -> Dispatch.select d) in
  Alcotest.(check (list int)) "reset replays" first_run second_run

(* Random fractions for [n] computers, about a quarter of them zero (at
   least one live).  [`Dyadic]: integer units over a power of two, so
   every quantity in Algorithm 2 is exact.  [`Small_ints]: weights 1-7
   normalised, non-dyadic with many equal fractions (ties on [next]).
   [`Continuous]: uniform weights normalised. *)
let random_fractions g n kind =
  let live = Array.init n (fun _ -> Rng.int g 4 <> 0) in
  live.(Rng.int g n) <- true;
  let alpha = Array.make n 0.0 in
  (match kind with
  | `Dyadic ->
    let total = 1 lsl (7 + Rng.int g 4) in
    let units = Array.map (fun l -> if l then 1 else 0) live in
    let live_idx = List.filter (fun i -> live.(i)) (List.init n Fun.id) |> Array.of_list in
    for _ = 1 to total - Array.length live_idx do
      let i = live_idx.(Rng.int g (Array.length live_idx)) in
      units.(i) <- units.(i) + 1
    done;
    Array.iteri (fun i u -> alpha.(i) <- float_of_int u /. float_of_int total) units
  | (`Small_ints | `Continuous) as kind ->
    let weight () =
      match kind with
      | `Small_ints -> float_of_int (1 + Rng.int g 7)
      | `Continuous -> 0.01 +. Rng.float g
    in
    let w = Array.map (fun l -> if l then weight () else 0.0) live in
    let sum = Array.fold_left ( +. ) 0.0 w in
    Array.iteri (fun i x -> alpha.(i) <- x /. sum) w);
  alpha

let rr_matches_eager_oracle () =
  (* The one-pass scan over live computers against Algorithm 2 as the
     paper states it, decision for decision: three variants, n from 1
     to 64, three kinds of fractions, a reset in the middle of every
     stream — 3 * 64 * 3 * 1800 > 10^6 decisions. *)
  let g = rng () in
  let variants =
    [ (Dispatch.round_robin, true, true);
      (Dispatch.round_robin_no_guard, false, true);
      (Dispatch.round_robin_index_ties, true, false) ]
  in
  let decisions = ref 0 in
  List.iter
    (fun (make, guard, tie_by_norassign) ->
      for n = 1 to 64 do
        List.iter
          (fun kind ->
            let alpha = random_fractions g n kind in
            let d = make alpha in
            let oracle = Rr_oracle.create ~guard ~tie_by_norassign alpha in
            for t = 1 to 1800 do
              if t = 900 then begin
                Dispatch.reset d;
                oracle.Rr_oracle.reset ()
              end;
              let got = Dispatch.select d and want = oracle.Rr_oracle.select () in
              incr decisions;
              if got <> want then
                Alcotest.fail
                  (Printf.sprintf "%s, n = %d, decision %d: scan %d, oracle %d"
                     (Dispatch.name d) n t got want)
            done)
          [ `Dyadic; `Small_ints; `Continuous ]
      done)
    variants;
  Alcotest.(check bool) (Printf.sprintf "%d decisions >= 10^6" !decisions) true
    (!decisions >= 1_000_000)

let random_longrun_fractions () =
  let alpha = [| 0.5; 0.3; 0.2 |] in
  let d = Dispatch.random ~rng:(rng ()) alpha in
  let n = 100_000 in
  let c = counts d 3 n in
  Array.iteri
    (fun i count ->
      check_close ~rel:0.03
        (Printf.sprintf "random share %d" i)
        alpha.(i)
        (float_of_int count /. float_of_int n))
    c

let random_zero_fraction_never_selected () =
  let d = Dispatch.random ~rng:(rng ()) [| 0.0; 1.0; 0.0 |] in
  for _ = 1 to 1000 do
    Alcotest.(check int) "always live computer" 1 (Dispatch.select d)
  done

let rr_smoother_than_random () =
  (* The Figure 2 claim as a unit test: round-robin's prefix discrepancy is
     far below random's for the same fractions. *)
  let alpha = [| 0.35; 0.22; 0.15; 0.12; 0.04; 0.04; 0.04; 0.04 |] in
  let n = 20_000 in
  let rr = max_prefix_discrepancy (Dispatch.round_robin alpha) alpha n in
  let rand = max_prefix_discrepancy (Dispatch.random ~rng:(rng ()) alpha) alpha n in
  Alcotest.(check bool)
    (Printf.sprintf "rr %.1f << random %.1f" rr rand)
    true
    (rr < rand /. 5.0)

let smooth_wrr_exact_cycles () =
  let d = Dispatch.smooth_weighted [| 0.5; 0.25; 0.25 |] in
  let c = counts d 3 4 in
  Alcotest.(check (array int)) "one smooth cycle" [| 2; 1; 1 |] c

let strict_cycle_order () =
  (* The strict cycle 0, 1, ..., n-1 is Algorithm 2 with equal fractions;
     reset must restart it from computer 0. *)
  let d = Dispatch.round_robin (Array.make 3 (1.0 /. 3.0)) in
  let seq = List.init 7 (fun _ -> Dispatch.select d) in
  Alcotest.(check (list int)) "cycling" [ 0; 1; 2; 0; 1; 2; 0 ] seq;
  Dispatch.reset d;
  Alcotest.(check int) "reset to start" 0 (Dispatch.select d)

let validation_errors () =
  Alcotest.check_raises "sum != 1" (Invalid_argument "Dispatch: fractions must sum to 1")
    (fun () -> ignore (Dispatch.round_robin [| 0.5; 0.4 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dispatch: fractions must be non-negative and finite") (fun () ->
      ignore (Dispatch.round_robin [| 1.5; -0.5 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Dispatch: empty fractions") (fun () ->
      ignore (Dispatch.random ~rng:(rng ()) [||]));
  Alcotest.check_raises "empty round-robin" (Invalid_argument "Dispatch: empty fractions")
    (fun () -> ignore (Dispatch.round_robin [||]))

let fractions_copied () =
  let alpha = [| 0.5; 0.5 |] in
  let d = Dispatch.round_robin alpha in
  alpha.(0) <- 99.0;
  check_array ~eps:0.0 "internal fractions unaffected" [| 0.5; 0.5 |]
    (Dispatch.fractions d)

(* Random fraction vector generator: Dirichlet-like via normalised
   exponentials, 2-8 computers. *)
let fractions_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* raw = list_repeat n (map (fun u -> 0.05 +. u) (float_bound_inclusive 1.0)) in
    let arr = Array.of_list raw in
    let total = Array.fold_left ( +. ) 0.0 arr in
    (* exact renormalisation pass so the validator accepts it *)
    let alpha = Array.map (fun x -> x /. total) arr in
    let s = Array.fold_left ( +. ) 0.0 alpha in
    alpha.(0) <- alpha.(0) +. (1.0 -. s);
    return alpha)

let prop_rr_counts_near_expectation =
  qcheck ~count:100 "round-robin counts within 3 of N*alpha"
    fractions_gen
    (fun alpha ->
      let d = Dispatch.round_robin alpha in
      let n = 2000 in
      let c = counts d (Array.length alpha) n in
      Array.for_all2
        (fun count a -> abs_float (float_of_int count -. (float_of_int n *. a)) <= 3.0)
        c alpha)

let prop_rr_deterministic =
  qcheck ~count:50 "round-robin is deterministic"
    fractions_gen
    (fun alpha ->
      let d1 = Dispatch.round_robin alpha in
      let d2 = Dispatch.round_robin alpha in
      let same = ref true in
      for _ = 1 to 500 do
        if Dispatch.select d1 <> Dispatch.select d2 then same := false
      done;
      !same)

let prop_random_in_range =
  qcheck ~count:50 "random selects valid indices"
    fractions_gen
    (fun alpha ->
      let d = Dispatch.random ~rng:(rng ()) alpha in
      let ok = ref true in
      for _ = 1 to 500 do
        let i = Dispatch.select d in
        if i < 0 || i >= Array.length alpha then ok := false
      done;
      !ok)

let prop_smooth_wrr_bounded =
  qcheck ~count:100 "smooth WRR discrepancy bounded"
    fractions_gen
    (fun alpha ->
      let d = Dispatch.smooth_weighted alpha in
      max_prefix_discrepancy d alpha 1000 <= float_of_int (Array.length alpha))

let suite =
  [
    test "algorithm 2: paper example per-cycle counts" rr_paper_example_counts;
    test "algorithm 2: first pick is largest fraction" rr_first_selection_largest_fraction;
    test "algorithm 2: paper example decision trace" rr_paper_example_trace;
    test "algorithm 2: uniform fractions = classic round-robin"
      rr_uniform_degenerates_to_cycle;
    test "algorithm 2: two computers alternate" rr_two_computers;
    test "algorithm 2: long-run fractions realised" rr_long_run_fractions;
    test "algorithm 2: bounded prefix discrepancy" rr_bounded_discrepancy;
    test "algorithm 2: zero fractions never selected" rr_zero_fraction_never_selected;
    test "algorithm 2: reset replays" rr_reset;
    test "algorithm 2: single computer" rr_single_computer;
    test "algorithm 2: guard staggers small fractions" rr_guard_staggers_small_fractions;
    test "variants: identical long-run fractions" rr_variants_same_longrun;
    test "lazy ORR: bit-identical to eager on dyadic fractions"
      rr_lazy_matches_eager_dyadic;
    test "lazy ORR: long-run shares and bounded discrepancy"
      rr_lazy_longrun_and_discrepancy;
    test "lazy ORR: reset replays, zero fractions skipped"
      rr_lazy_reset_and_zero_fractions;
    prop_rr_lazy_dyadic_exact;
    test "random: long-run fractions" random_longrun_fractions;
    test "random: zero fractions never selected" random_zero_fraction_never_selected;
    test "round-robin far smoother than random" rr_smoother_than_random;
    test "smooth WRR: exact cycles" smooth_wrr_exact_cycles;
    test "strict cycle: order and reset" strict_cycle_order;
    test "validation errors" validation_errors;
    test "fractions are defensive copies" fractions_copied;
    prop_rr_counts_near_expectation;
    prop_rr_deterministic;
    prop_random_in_range;
    prop_smooth_wrr_bounded;
    test "algorithm 2: one-pass scan matches the eager oracle" rr_matches_eager_oracle;
  ]
