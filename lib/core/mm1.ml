let check_pos name v = if v <= 0.0 then invalid_arg ("Mm1: non-positive " ^ name)

let server_mean_response_time ~mu ~lambda ~speed ~alpha =
  check_pos "mu" mu;
  let denom = (speed *. mu) -. (alpha *. lambda) in
  if denom <= 0.0 then infinity else 1.0 /. denom

let server_utilization ~mu ~lambda ~speed ~alpha = alpha *. lambda /. (speed *. mu)

let mean_response_time ~mu ~lambda ~speeds ~alloc =
  Speeds.validate speeds;
  if Array.length alloc <> Array.length speeds then
    invalid_arg "Mm1.mean_response_time: length mismatch";
  let t = ref 0.0 in
  Array.iteri
    (fun i si ->
      if alloc.(i) > 0.0 then
        t := !t +. (alloc.(i) *. server_mean_response_time ~mu ~lambda ~speed:si ~alpha:alloc.(i)))
    speeds;
  !t

let mean_response_ratio ~mu ~lambda ~speeds ~alloc =
  mu *. mean_response_time ~mu ~lambda ~speeds ~alloc

let system_utilization ~mu ~lambda ~speeds =
  check_pos "mu" mu;
  lambda /. (mu *. Speeds.total speeds)

let lambda_of_utilization ~mu ~rho ~speeds =
  check_pos "mu" mu;
  check_pos "rho" rho;
  rho *. mu *. Speeds.total speeds

let theorem1_alloc ~mu ~lambda ~speeds =
  Speeds.validate speeds;
  check_pos "mu" mu;
  check_pos "lambda" lambda;
  let sum_smu = mu *. Speeds.total speeds in
  let sum_sqrt = Array.fold_left (fun acc s -> acc +. sqrt (s *. mu)) 0.0 speeds in
  let scale = (sum_smu -. lambda) /. sum_sqrt in
  Array.map (fun si -> ((si *. mu) -. (sqrt (si *. mu) *. scale)) /. lambda) speeds

let predicted ~mu ~rho ~speeds ~alloc metric =
  let lambda = lambda_of_utilization ~mu ~rho ~speeds in
  match metric with
  | `Mean_response_time -> mean_response_time ~mu ~lambda ~speeds ~alloc
  | `Mean_response_ratio -> mean_response_ratio ~mu ~lambda ~speeds ~alloc
