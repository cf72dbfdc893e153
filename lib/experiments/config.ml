type scale = { horizon : float; warmup : float; reps : int }

let quick = { horizon = 1.0e5; warmup = 2.5e4; reps = 2 }

let default_scale = { horizon = 4.0e5; warmup = 1.0e5; reps = 5 }

let paper = { horizon = 4.0e6; warmup = 1.0e6; reps = 10 }

let equal_scale a b =
  Float.equal a.horizon b.horizon
  && Float.equal a.warmup b.warmup
  && Int.equal a.reps b.reps

let scale_name s =
  if equal_scale s paper then "paper"
  else if equal_scale s quick then "quick"
  else if equal_scale s default_scale then "default"
  else Printf.sprintf "custom(horizon=%g,reps=%d)" s.horizon s.reps

let default_seed = 20260705L

let base_utilization = 0.7
