type t = {
  mutable id : int;
  mutable size : float;
  mutable arrival : float;
  mutable computer : int;
  mutable start : float;
  mutable completion : float;
}

let create ~id ~size ~arrival =
  if size <= 0.0 then invalid_arg "Job.create: size <= 0";
  if arrival < 0.0 then invalid_arg "Job.create: arrival < 0";
  { id; size; arrival; computer = -1; start = -1.0; completion = -1.0 }

let is_completed j = j.completion >= 0.0

(* [@inline] lets callers keep the float result unboxed: these run on
   per-completion hot paths (telemetry hooks, collectors). *)
let[@inline] response_time j =
  if not (is_completed j) then invalid_arg "Job.response_time: not completed";
  j.completion -. j.arrival

let[@inline] response_ratio j = response_time j /. j.size

let pp fmt j =
  Format.fprintf fmt "job#%d size=%.4g arr=%.4g comp=%.4g on=%d" j.id j.size
    j.arrival j.completion j.computer
