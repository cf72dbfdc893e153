open Test_util
module Splitmix64 = Statsched_prng.Splitmix64
module Xoshiro256 = Statsched_prng.Xoshiro256
module Rng = Statsched_prng.Rng

(* Reference outputs of SplitMix64 for seed 1234567 (values from the
   published reference implementation). *)
let splitmix_reference () =
  let g = Splitmix64.create 1234567L in
  let v1 = Splitmix64.next g in
  let v2 = Splitmix64.next g in
  let v3 = Splitmix64.next g in
  Alcotest.(check bool) "three distinct outputs" true (v1 <> v2 && v2 <> v3);
  (* Determinism: same seed, same stream. *)
  let h = Splitmix64.create 1234567L in
  Alcotest.(check int64) "replay 1" v1 (Splitmix64.next h);
  Alcotest.(check int64) "replay 2" v2 (Splitmix64.next h);
  Alcotest.(check int64) "replay 3" v3 (Splitmix64.next h)

let splitmix_copy_independent () =
  let g = Splitmix64.create 42L in
  ignore (Splitmix64.next g);
  let h = Splitmix64.copy g in
  let from_g = Splitmix64.next g in
  let from_h = Splitmix64.next h in
  Alcotest.(check int64) "copy continues identically" from_g from_h;
  ignore (Splitmix64.next g);
  (* h is one step behind now; states must differ *)
  Alcotest.(check bool) "states diverge after unequal advance" true
    (Splitmix64.state g <> Splitmix64.state h)

let splitmix_state_roundtrip () =
  let g = Splitmix64.create 99L in
  ignore (Splitmix64.next g);
  let s = Splitmix64.state g in
  let h = Splitmix64.of_state s in
  Alcotest.(check int64) "state restore replays" (Splitmix64.next g) (Splitmix64.next h)

let splitmix_float_range () =
  let g = Splitmix64.create 3L in
  for _ = 1 to 10_000 do
    let x = Splitmix64.next_float g in
    Alcotest.(check bool) "in [0,1)" true (0.0 <= x && x < 1.0)
  done

let xoshiro_determinism () =
  let g = Xoshiro256.create 2024L in
  let h = Xoshiro256.create 2024L in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "step %d" i)
      (Xoshiro256.next g) (Xoshiro256.next h)
  done

let xoshiro_jump_disjoint () =
  (* After a jump the streams must not collide over a reasonable window. *)
  let g = Xoshiro256.create 5L in
  let h = Xoshiro256.copy g in
  Xoshiro256.jump h;
  let seen = Hashtbl.create 4096 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Xoshiro256.next g) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 2000 do
    if Hashtbl.mem seen (Xoshiro256.next h) then incr collisions
  done;
  Alcotest.(check int) "no collisions between substreams" 0 !collisions

let xoshiro_substream_pure () =
  let g = Xoshiro256.create 5L in
  let before = Xoshiro256.copy g in
  let _sub = Xoshiro256.substream g 3 in
  Alcotest.(check int64) "substream leaves parent untouched" (Xoshiro256.next before)
    (Xoshiro256.next g)

let xoshiro_substream_indexing () =
  let g = Xoshiro256.create 5L in
  let s2 = Xoshiro256.substream g 2 in
  (* jumping substream 1 once must equal substream 2 *)
  let s1 = Xoshiro256.substream g 1 in
  Xoshiro256.jump s1;
  Alcotest.(check int64) "substream composition" (Xoshiro256.next s2) (Xoshiro256.next s1)

let xoshiro_substream_negative () =
  let g = Xoshiro256.create 5L in
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Xoshiro256.substream: negative index") (fun () ->
      ignore (Xoshiro256.substream g (-1)))

let rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets over 100k draws, each within 10% of
     the expected count. *)
  let g = rng () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.float g in
    let b = min 9 (int_of_float (x *. 10.0)) in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (abs (c - (n / 10)) < n / 100))
    buckets

let rng_mean_variance () =
  let g = rng () in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.float g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check_close ~rel:0.02 "mean 1/2" 0.5 mean;
  check_close ~rel:0.02 "variance 1/12" (1.0 /. 12.0) var

let rng_int_bounds () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let x = Rng.int g 7 in
    Alcotest.(check bool) "0 <= x < 7" true (0 <= x && x < 7)
  done;
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Rng.int: n <= 0")
    (fun () -> ignore (Rng.int g 0))

let rng_int_uniform () =
  let g = rng () in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int g 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "value %d frequency" i)
        true
        (abs (c - (n / 5)) < n / 50))
    counts

let rng_uniform_range () =
  let g = rng () in
  for _ = 1 to 1000 do
    let x = Rng.uniform g (-3.0) 5.0 in
    Alcotest.(check bool) "in [-3,5)" true (-3.0 <= x && x < 5.0)
  done;
  Alcotest.check_raises "a > b rejected" (Invalid_argument "Rng.uniform: a > b")
    (fun () -> ignore (Rng.uniform g 1.0 0.0))

let rng_split_independence () =
  let g = rng () in
  let child = Rng.split g in
  (* Parent and child should produce different streams. *)
  let equal = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bits64 g = Rng.bits64 child then incr equal
  done;
  Alcotest.(check int) "no synchronised outputs" 0 !equal

let rng_shuffle_permutation () =
  let g = rng () in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 (fun i -> i)) sorted

let rng_shuffle_uniform_first () =
  (* First element after shuffling [0;1;2] should be ~uniform. *)
  let g = rng () in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let a = [| 0; 1; 2 |] in
    Rng.shuffle g a;
    counts.(a.(0)) <- counts.(a.(0)) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (abs (c - (n / 3)) < n / 30))
    counts

let prop_float_in_unit =
  qcheck "float stays in [0,1) for any seed"
    QCheck2.Gen.(int64)
    (fun seed ->
      let g = Rng.create ~seed () in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Rng.float g in
        if not (0.0 <= x && x < 1.0) then ok := false
      done;
      !ok)

let prop_int_in_range =
  qcheck "int stays in range for any n, seed"
    QCheck2.Gen.(pair int64 (int_range 1 1_000_000))
    (fun (seed, n) ->
      let g = Rng.create ~seed () in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Rng.int g n in
        if not (0 <= x && x < n) then ok := false
      done;
      !ok)

let suite =
  [
    test "splitmix64: reference determinism" splitmix_reference;
    test "splitmix64: copy independence" splitmix_copy_independent;
    test "splitmix64: state roundtrip" splitmix_state_roundtrip;
    test "splitmix64: float range" splitmix_float_range;
    test "xoshiro256: determinism" xoshiro_determinism;
    test "xoshiro256: jump gives disjoint streams" xoshiro_jump_disjoint;
    test "xoshiro256: substream leaves parent untouched" xoshiro_substream_pure;
    test "xoshiro256: substream composition" xoshiro_substream_indexing;
    test "xoshiro256: negative substream rejected" xoshiro_substream_negative;
    test "rng: uniform buckets" rng_uniformity;
    test "rng: mean and variance of U(0,1)" rng_mean_variance;
    test "rng: int bounds" rng_int_bounds;
    test "rng: int uniformity" rng_int_uniform;
    test "rng: uniform range" rng_uniform_range;
    test "rng: split independence" rng_split_independence;
    test "rng: shuffle is a permutation" rng_shuffle_permutation;
    test "rng: shuffle first element uniform" rng_shuffle_uniform_first;
    prop_float_in_unit;
    prop_int_in_range;
  ]
