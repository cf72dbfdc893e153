(* Open-loop load schedules for the daemon workloads.  Every request has
   a due time fixed before the run starts; the generator sends it at that
   time whatever happened to earlier requests, and its latency is counted
   from the due time. *)

module Rng = Statsched_prng.Rng

type step = { rate : float;  (** posts per wall second *) seconds : float }

type t = {
  due : float array;  (** seconds after the schedule starts, increasing *)
  size : float array;  (** job service demand, speed-1 seconds *)
  step : int array;  (** ladder step of each post *)
  step_start : float array;  (** start of each step *)
  steps : step array;
}

let size_dist = Statsched_dist.Bounded_pareto.create_paper_default ()

(* Poisson posts at each step's rate with Bounded-Pareto sizes, from
   independent splits of one stream seeded by [seed]. *)
let posts ~seed steps =
  let base = Rng.create ~seed:(Int64.of_int seed) () in
  let gaps = Rng.split base in
  let sizes = Rng.split base in
  let due = ref [] and size = ref [] and step = ref [] in
  let steps = Array.of_list steps in
  let step_start = Array.make (Array.length steps) 0.0 in
  let t0 = ref 0.0 in
  Array.iteri
    (fun k { rate; seconds } ->
      if rate <= 0.0 || seconds <= 0.0 then invalid_arg "Schedule.posts";
      step_start.(k) <- !t0;
      let stop = !t0 +. seconds in
      let t = ref (!t0 +. Statsched_dist.Exponential.sample ~rate gaps) in
      while !t < stop do
        due := !t :: !due;
        size := Statsched_dist.Distribution.sample size_dist sizes :: !size;
        step := k :: !step;
        t := !t +. Statsched_dist.Exponential.sample ~rate gaps
      done;
      t0 := stop)
    steps;
  let rev l = Array.of_list (List.rev l) in
  { due = rev !due; size = rev !size; step = rev !step; step_start; steps }

(* Job sizes for a closed-loop phase, which has no due times: the same
   Bounded-Pareto sizes times [scale], from stream [stream] (0, 1, ...)
   of their own seeded by [seed].  The same seed and stream give the same
   sequence, however much of it a run uses.  Stream [k] is split
   [k + 3] of the stream [posts] splits twice. *)
let sizes ~seed ~stream ~scale =
  if not (scale > 0.0) || stream < 0 then invalid_arg "Schedule.sizes";
  let base = Rng.create ~seed:(Int64.of_int seed) () in
  for _ = 0 to stream + 1 do
    ignore (Rng.split base : Rng.t)
  done;
  let rng = Rng.split base in
  fun () -> scale *. Statsched_dist.Distribution.sample size_dist rng

let duration t = Array.fold_left (fun acc s -> acc +. s.seconds) 0.0 t.steps

(* Evenly spaced control operations (scrapes, swaps): [period] apart,
   the first at [period /. 2], strictly before [until]. *)
let periodic ~period ~until =
  if period <= 0.0 then invalid_arg "Schedule.periodic";
  let n = int_of_float (Float.ceil ((until -. (period /. 2.0)) /. period)) in
  Array.init (max 0 n) (fun i -> (period /. 2.0) +. (float_of_int i *. period))
