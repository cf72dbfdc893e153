module Dist = Statsched_dist
module Distribution = Dist.Distribution
module Speeds = Statsched_core.Speeds

type t = {
  interarrival : Distribution.t;
  size : Distribution.t;
  modulation : (float -> float) option;
}

let create ?modulation ~interarrival ~size () = { interarrival; size; modulation }

let arrival_rate t = 1.0 /. Distribution.mean t.interarrival

let mu t = 1.0 /. Distribution.mean t.size

let utilization t ~speeds = arrival_rate t /. (mu t *. Speeds.total speeds)

let check_rho rho =
  if not (0.0 < rho && rho < 1.0) then
    invalid_arg "Workload: utilisation must satisfy 0 < rho < 1"

let mean_interarrival_for ~rho ~mean_size ~speeds =
  check_rho rho;
  Speeds.validate speeds;
  let lambda = rho *. Speeds.total speeds /. mean_size in
  1.0 /. lambda

let paper_default ~rho ~speeds =
  let size = Dist.Bounded_pareto.create_paper_default () in
  let mean_ia = mean_interarrival_for ~rho ~mean_size:(Distribution.mean size) ~speeds in
  create ~interarrival:(Dist.Hyperexponential.fit_cv ~mean:mean_ia ~cv:3.0) ~size ()

let poisson_exponential ~rho ~mean_size ~speeds =
  if mean_size <= 0.0 then invalid_arg "Workload.poisson_exponential: mean_size <= 0";
  let mean_ia = mean_interarrival_for ~rho ~mean_size ~speeds in
  create
    ~interarrival:(Dist.Exponential.of_mean mean_ia)
    ~size:(Dist.Exponential.of_mean mean_size)
    ()

let interarrival_of_cv ~mean_ia ~cv =
  (* [fit_cv] returns the plain exponential at cv = 1 exactly. *)
  if cv >= 1.0 then Dist.Hyperexponential.fit_cv ~mean:mean_ia ~cv
  else Dist.Erlang.of_mean_cv ~mean:mean_ia ~cv

let with_size ~rho ?(arrival_cv = 3.0) ~size speeds =
  if arrival_cv <= 0.0 then invalid_arg "Workload.with_size: cv <= 0";
  let mean_ia = mean_interarrival_for ~rho ~mean_size:(Distribution.mean size) ~speeds in
  create ~interarrival:(interarrival_of_cv ~mean_ia ~cv:arrival_cv) ~size ()

let with_cv ~rho ~arrival_cv ~speeds =
  if arrival_cv <= 0.0 then invalid_arg "Workload.with_cv: cv <= 0";
  let size = Dist.Bounded_pareto.create_paper_default () in
  let mean_ia = mean_interarrival_for ~rho ~mean_size:(Distribution.mean size) ~speeds in
  create ~interarrival:(interarrival_of_cv ~mean_ia ~cv:arrival_cv) ~size ()

let diurnal ~rho ~amplitude ~day_length ~speeds =
  if not (0.0 <= amplitude && amplitude < 1.0) then
    invalid_arg "Workload.diurnal: amplitude outside [0, 1)";
  if day_length <= 0.0 then invalid_arg "Workload.diurnal: day_length <= 0";
  if (1.0 +. amplitude) *. rho >= 1.0 then
    invalid_arg "Workload.diurnal: peak load saturates the system";
  let base = paper_default ~rho ~speeds in
  let modulation t = 1.0 +. (amplitude *. sin (2.0 *. Float.pi *. t /. day_length)) in
  { base with modulation = Some modulation }

let modulated_rate t time =
  let base = arrival_rate t in
  match t.modulation with None -> base | Some f -> base *. f time

(* -- batched draws ------------------------------------------------------ *)

(* The arrival loop consumes one inter-arrival gap and one job size per
   job.  Sampling them one at a time pays an indirect call into the
   distribution closure plus a boxed-float return per draw; a source
   refills a flat [floatarray] a batch at a time instead, through
   {!Distribution.fill} (which for the paper's H2 and Bounded Pareto
   stores raw doubles), so the common case is an unboxed array read.
   Draw order from the source's stream is identical — the same samples
   in the same order, just taken ahead of time — and the simulator
   dedicates one stream to gaps and one to sizes, so results are
   bit-identical to unbatched sampling.  Rate modulation must still be
   applied at the *scheduling* instant, never at refill time; that is
   why a gap source yields base gaps and leaves division by the
   modulation factor to the caller. *)
type source = {
  dist : Distribution.t;
  rng : Statsched_prng.Rng.t;
  buf : Float.Array.t;
  mutable pos : int;  (* next unread slot; [length buf] forces a refill *)
}

let batch = 256

let source dist ~rng = { dist; rng; buf = Float.Array.make batch 0.0; pos = batch }
let gap_source t ~rng = source t.interarrival ~rng
let size_source t ~rng = source t.size ~rng

let refill src =
  Distribution.fill src.dist src.rng src.buf;
  src.pos <- 0

let[@inline] [@schedsim.hot] next src =
  if src.pos >= Float.Array.length src.buf then refill src;
  let x = Float.Array.unsafe_get src.buf src.pos in
  src.pos <- src.pos + 1;
  x

let[@inline] next_gap src = next src
