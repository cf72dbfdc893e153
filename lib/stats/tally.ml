type t = {
  mutable value : float;
  mutable last_time : float;
  mutable start_time : float;
  mutable area : float;
}

let create ?(start_time = 0.0) () =
  { value = 0.0; last_time = start_time; start_time; area = 0.0 }

let[@inline] advance t ~time =
  if time < t.last_time then invalid_arg "Tally.advance: time moved backwards";
  t.area <- t.area +. (t.value *. (time -. t.last_time));
  t.last_time <- time

let[@inline] [@schedsim.hot] update t ~time ~value =
  advance t ~time;
  t.value <- value

let time_average t =
  let elapsed = t.last_time -. t.start_time in
  if elapsed <= 0.0 then nan else t.area /. elapsed

let current_value t = t.value

let reset_at t ~time =
  if time < t.last_time then invalid_arg "Tally.reset_at: time moved backwards";
  t.last_time <- time;
  t.start_time <- time;
  t.area <- 0.0
