(* Entry points of the two served workloads. *)

module C = Statsched_cluster
module Sim = C.Simulation
module Core = Statsched_core
module Schedule = Perfbench_lib.Schedule
module Spans = Perfbench_lib.Spans
module R = Perfbench_lib.Result

let session env res ~slow ~probes =
  Served.run env res
    ~tag:(if slow then "daemon-slowclient" else "daemon-mixed")
    ~speeds:Daemons.speeds_arg ~policy:"orr" ~time_scale:Daemons.time_scale ~probes
    (Daemons.plan ~seconds:env.Served.seconds ~slow)

let end_to_end env res ~slow = Daemons.report res (session env res ~slow ~probes:15) ~slow

(* The daemon's job stream rebuilt in process: the generator's posts
   submitted to an [`External] driver at their due times in virtual time. *)
let stream_of (s : Served.served) =
  let sched = s.Served.session.Session.sched in
  let ts = s.Served.time_scale in
  let speeds = Daemons.table3 in
  let horizon = ts *. Schedule.duration sched in
  let cfg =
    Sim.default_config ~horizon ~warmup:0.0 ~speeds
      ~workload:(C.Workload.paper_default ~rho:0.7 ~speeds)
      ~scheduler:(C.Scheduler.static Core.Policy.orr) ()
  in
  let on_dispatch, on_completion, finish = Layers.recorder cfg in
  let d = Sim.Driver.create ~hooks_retain_jobs:false ~on_dispatch ~on_completion ~arrivals:`External cfg in
  let g0 = Util.gc () in
  let t0 = Util.now () in
  Array.iteri
    (fun i due ->
      Sim.Driver.advance d ~to_:(ts *. due);
      ignore (Sim.Driver.submit d ~size:sched.Schedule.size.(i)))
    sched.Schedule.due;
  Sim.Driver.advance d ~to_:horizon;
  let wall = Util.now () -. t0 in
  let g1 = Util.gc () in
  (finish (), Sim.Driver.finalize d, wall, g0, g1)

let traced env res ~slow =
  let spans = env.Served.spans in
  let root = Spans.open_ spans "run" ~now:(Util.now ()) in
  let s = session env res ~slow ~probes:0 in
  Daemons.check_answers res s.Served.session;
  let t0 = Util.now () in
  Session.to_spans spans s.Served.session;
  let span_s = Util.now () -. t0 in
  let stream, r, wall, g0, g1 = stream_of s in
  let jobs = float_of_int (max 1 r.Sim.total_arrivals) in
  let rp = Layers.external_replay spans ~parent:root stream in
  R.check res
    (String.equal (Layers.fingerprint ~engine:false rp.Layers.replayed)
       (Layers.fingerprint ~engine:false r))
    "External replay does not reproduce the in-process run";
  Layers.littles_law res stream r;
  let create_ms = 1e3 *. Util.median_time ~reps:301 (fun () -> Sim.Driver.create stream.Layers.cfg) in
  (* The daemon's per-job path is handle_request; the layers are set
     against it. *)
  let h =
    Layers.emit res spans ~parent:root stream ~source:Served ~replay:rp ~create_ms
      ~swap_to:("jsq-d", "orr") ~e2e_ns:(fun h -> 1e3 *. h.Layers.post_us)
  in
  Daemons.http_layers res s ~ladder:(Daemons.ladder s ~slow) ~handle_post:(1e-6 *. h.Layers.post_us);
  Spans.finish spans root ~now:(Util.now ());
  let add = R.add res in
  add "des.events_per_job" "count" (float_of_int r.Sim.events_executed /. jobs);
  add "des.events_per_s" "1/s" (float_of_int r.Sim.events_executed /. wall);
  add "des.heap_high_water" "count" (float_of_int r.Sim.heap_high_water);
  add "par.speedup" "ratio" 1.0 ~note:"one domain";
  add "par.tail_idle_frac" "ratio" 0.0 ~note:"one domain";
  Util.add_gc res ~jobs:r.Sim.total_arrivals g0 g1;
  let session_s = Schedule.duration s.Served.session.Session.sched in
  add "trace.overhead_ratio" "ratio" ((session_s +. span_s) /. session_s)
    ~note:"session plus span building / session"
