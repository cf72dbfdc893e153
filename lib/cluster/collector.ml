module Welford = Statsched_stats.Welford
module Hdr = Statsched_obs.Hdr_histogram
module Job = Statsched_queueing.Job

type t = {
  warmup : float;
  response_time : Welford.t;
  response_ratio : Welford.t;
  rt_hist : Hdr.t;
  rr_hist : Hdr.t;
}

(* Canonical layouts: response times span unit-size jobs on fast
   machines up to long waits under heavy load; ratios are
   service-normalised so they sit near 1.  ~3% relative resolution at
   the default sub_count. *)
let make_rt_hist () = Hdr.create ~lo:1e-3 ~hi:1e7 ()
let make_rr_hist () = Hdr.create ~lo:1e-3 ~hi:1e5 ()

let create ?rt_hist ?rr_hist ~warmup () =
  let pick make = function
    | None -> make ()
    | Some h ->
      if not (Hdr.same_layout h (make ())) then
        invalid_arg "Collector.create: histogram layout differs from canonical";
      h
  in
  {
    warmup;
    response_time = Welford.create ();
    response_ratio = Welford.create ();
    rt_hist = pick make_rt_hist rt_hist;
    rr_hist = pick make_rr_hist rr_hist;
  }

(* Inlined, so the three floats arrive unboxed from the job store. *)
let[@inline] [@schedsim.hot] record t ~arrival ~completion ~size =
  if arrival >= t.warmup then begin
    let rt = completion -. arrival in
    let rr = rt /. size in
    Welford.add t.response_time rt;
    Welford.add t.response_ratio rr;
    Hdr.add t.rt_hist rt;
    Hdr.add t.rr_hist rr
  end

let on_departure t job =
  if job.Job.arrival >= t.warmup && not (Job.is_completed job) then
    invalid_arg "Collector.on_departure: not completed";
  record t ~arrival:job.Job.arrival ~completion:job.Job.completion ~size:job.Job.size

let jobs_measured t = Welford.count t.response_time

let metrics ?(availability = 1.0) ?(goodput = nan) ?(lost_jobs = 0) t =
  if jobs_measured t = 0 then Error `No_jobs_measured
  else
    Ok
      {
        Statsched_core.Metrics.mean_response_time = Welford.mean t.response_time;
        mean_response_ratio = Welford.mean t.response_ratio;
        fairness = Welford.population_std t.response_ratio;
        jobs = jobs_measured t;
        availability;
        goodput;
        lost_jobs;
      }

let response_time_histogram t = t.rt_hist
let response_ratio_histogram t = t.rr_hist
