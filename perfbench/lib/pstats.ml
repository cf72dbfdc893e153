(* Order statistics used for every reported timing. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [p]% of the samples at or below it. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let tail_candidates = [ 99.0; 90.0; 50.0 ]

type tail = { label : string; value : float; n : int }

(* The tail rule: the highest of p99, p90 and p50 that still has at least
   ten samples above it; with fewer than 20 samples no percentile
   qualifies and the tail is the maximum. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pstats.tail: no samples";
  let beyond p = float_of_int n *. (100.0 -. p) /. 100.0 in
  match List.find_opt (fun p -> beyond p >= 10.0) tail_candidates with
  | Some p -> { label = Printf.sprintf "p%g" p; value = percentile_sorted s p; n }
  | None -> { label = "max"; value = s.(n - 1); n }

let sum a = Array.fold_left ( +. ) 0.0 a
