module Bp = Statsched_dist.Bounded_pareto

type t = {
  cutoffs : float array;  (* ascending interior cutoffs, length n-1 *)
  assignment : int array;  (* band (ascending size) -> computer index *)
}

(* Computers ordered by the band they should serve: band 0 holds the
   smallest jobs. *)
let band_order ~speeds ~small_to =
  let sorted, perm = Speeds.sort_with_permutation speeds in
  ignore sorted;
  match small_to with
  | `Fast -> Array.of_list (List.rev (Array.to_list perm))
  | `Slow -> perm

(* Work share each band must carry = speed share of its computer. *)
let band_targets ~speeds ~order =
  let total = Speeds.total speeds in
  Array.map (fun computer -> speeds.(computer) /. total) order

let build_with ~work_below ~lo ~hi ~speeds ~small_to =
  Speeds.validate speeds;
  let n = Array.length speeds in
  let order = band_order ~speeds ~small_to in
  let targets = band_targets ~speeds ~order in
  let total_work = work_below hi in
  if total_work <= 0.0 then invalid_arg "Sita: degenerate size distribution";
  let cutoffs = Array.make (max 0 (n - 1)) 0.0 in
  let acc = ref 0.0 in
  for b = 0 to n - 2 do
    acc := !acc +. targets.(b);
    (* bisect x with work_below(x)/total = acc *)
    let target = !acc *. total_work in
    let a = ref lo and bnd = ref hi in
    for _ = 1 to 200 do
      let mid = 0.5 *. (!a +. !bnd) in
      if work_below mid < target then a := mid else bnd := mid
    done;
    cutoffs.(b) <- 0.5 *. (!a +. !bnd)
  done;
  { cutoffs; assignment = order }

let build_bounded_pareto prm ~speeds ~small_to =
  Bp.validate prm;
  let work_below x = Bp.partial_mean prm ~lo:prm.Bp.k ~hi:x in
  build_with ~work_below ~lo:prm.Bp.k ~hi:prm.Bp.p ~speeds ~small_to

let select t ~size =
  let n = Array.length t.cutoffs in
  (* first band whose cutoff exceeds the size *)
  let rec find b = if b < n && size >= t.cutoffs.(b) then find (b + 1) else b in
  t.assignment.(find 0)

let cutoffs t = Array.copy t.cutoffs

let assignment t = Array.copy t.assignment

let expected_shares t prm =
  let n = Array.length t.assignment in
  let lo_of b = if b = 0 then prm.Bp.k else t.cutoffs.(b - 1) in
  let hi_of b = if b = n - 1 then prm.Bp.p else t.cutoffs.(b) in
  let total = Bp.partial_mean prm ~lo:prm.Bp.k ~hi:prm.Bp.p in
  let shares = Array.make n 0.0 in
  for b = 0 to n - 1 do
    shares.(t.assignment.(b)) <-
      Bp.partial_mean prm ~lo:(lo_of b) ~hi:(hi_of b) /. total
  done;
  shares
