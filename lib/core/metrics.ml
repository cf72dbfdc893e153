type t = {
  mean_response_time : float;
  mean_response_ratio : float;
  fairness : float;
  jobs : int;
  availability : float;
  goodput : float;
  lost_jobs : int;
}

let pp fmt m =
  Format.fprintf fmt "T=%.6g R=%.6g fairness=%.6g (n=%d)" m.mean_response_time
    m.mean_response_ratio m.fairness m.jobs;
  if m.availability < 1.0 || m.lost_jobs > 0 then
    Format.fprintf fmt " A=%.4f lost=%d" m.availability m.lost_jobs

let actual_fractions counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Array.make (Array.length counts) 0.0
  else Array.map (fun c -> float_of_int c /. float_of_int total) counts

let deviation ~expected ~counts =
  if Array.length expected <> Array.length counts then
    invalid_arg "Metrics.deviation: length mismatch";
  let actual = actual_fractions counts in
  let acc = ref 0.0 in
  Array.iteri
    (fun i a ->
      let d = a -. actual.(i) in
      acc := !acc +. (d *. d))
    expected;
  !acc
