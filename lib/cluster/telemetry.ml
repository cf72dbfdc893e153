module Job = Statsched_queueing.Job
module Registry = Statsched_obs.Registry
module Clock = Statsched_obs.Clock
module Journal = Statsched_obs.Journal
module Http = Statsched_obs.Http
module Engine = Statsched_des.Engine

type t = {
  config : Simulation.config;
  registry : Registry.t;
  journal : Journal.t option;
  wall_start : float;
  dispatches : Registry.counter array;
  completions : Registry.counter array;
  drops : Registry.counter array;
  (* Integer shadows of the three per-computer counter families: the
     hot hooks read these for queue depth (and /state) instead of going
     through boxed [counter_value] reads. *)
  disp_n : int array;
  comp_n : int array;
  drop_n : int array;
  (* Hoisted out of [config]: the hooks read it per event. *)
  n_computers : int;
  rate_changes : Registry.counter;
  rt_hist : Registry.histogram;
  rr_hist : Registry.histogram;
  (* Current effective rate of each computer and when it last changed;
     integrates into capacity-weighted down-seconds. *)
  rate : float array;
  rate_since : float array;
  down_seconds : float array;
  (* Live-state support for the /state endpoint: completed work per
     computer (Σ job size, whole run) and the engine handle when the
     caller passed [Simulation.run ~on_engine:(Telemetry.set_engine t)]. *)
  work : floatarray;
  mutable engine : Engine.t option;
}

let per_computer_family registry ~help name n =
  Array.init n (fun i ->
      Registry.counter registry ~help ~labels:[ ("computer", string_of_int i) ] name)

let create ?journal (config : Simulation.config) =
  let n = Array.length config.Simulation.speeds in
  let registry = Registry.create () in
  {
    config;
    registry;
    journal;
    wall_start = Clock.now ();
    dispatches =
      per_computer_family registry "statsched_jobs_dispatched_total" n
        ~help:"Jobs the scheduler sent to this computer (warm-up included)";
    completions =
      per_computer_family registry "statsched_jobs_completed_total" n
        ~help:"Jobs that finished on this computer (warm-up included)";
    drops =
      per_computer_family registry "statsched_jobs_dropped_total" n
        ~help:"In-flight jobs lost to a crash of this computer";
    disp_n = Array.make n 0;
    comp_n = Array.make n 0;
    drop_n = Array.make n 0;
    n_computers = n;
    rate_changes =
      Registry.counter registry "statsched_fault_rate_changes_total"
        ~help:"Effective-speed changes applied by the fault plan";
    (* Same layouts as Collector's tail histograms so either source can
       be merged into these on export. *)
    rt_hist =
      Registry.histogram registry "statsched_response_time_seconds" ~lo:1e-3 ~hi:1e7
        ~help:"Response time of measured jobs (simulated seconds)";
    rr_hist =
      Registry.histogram registry "statsched_response_ratio" ~lo:1e-3 ~hi:1e5
        ~help:"Response ratio (response time / service demand) of measured jobs";
    rate = Array.make n 1.0;
    rate_since = Array.make n 0.0;
    down_seconds = Array.make n 0.0;
    work = Float.Array.make n 0.0;
    engine = None;
  }

let registry t = t.registry
let metric_count t = Registry.metric_count t.registry

let histograms t = (t.rt_hist, t.rr_hist)

(* The hot hooks count dispatches/completions/drops only in the flat
   integer shadows; [sync_counters] brings the exported counter cells up
   to date on every read path (scrape, export, finalize), so the
   per-event hooks carry no registry writes at all. *)
let sync_counters t =
  for i = 0 to t.n_computers - 1 do
    let sync cells shadow =
      let c = Array.unsafe_get cells i in
      let v = float_of_int (Array.unsafe_get shadow i) in
      Registry.inc_by c (v -. Registry.counter_value c)
    in
    sync t.dispatches t.disp_n;
    sync t.completions t.comp_n;
    sync t.drops t.drop_n
  done

let on_dispatch t job =
  let i = job.Job.computer in
  if i >= 0 && i < t.n_computers then begin
    let d = Array.unsafe_get t.disp_n i + 1 in
    Array.unsafe_set t.disp_n i d;
    match t.journal with
    | None -> ()
    | Some j ->
      Journal.record_dispatch j ~id:job.Job.id ~computer:i ~time:job.Job.arrival
        ~size:job.Job.size;
      (* Instantaneous run-queue depth of the target, right after this
         dispatch: in-flight = dispatched − completed − dropped. *)
      let depth = d - Array.unsafe_get t.comp_n i - Array.unsafe_get t.drop_n i in
      Journal.record_queue j ~depth ~computer:i ~time:job.Job.arrival
  end

let on_completion t job =
  let i = job.Job.computer in
  if i >= 0 && i < t.n_computers then begin
    Array.unsafe_set t.comp_n i (Array.unsafe_get t.comp_n i + 1);
    Float.Array.unsafe_set t.work i (Float.Array.unsafe_get t.work i +. job.Job.size)
  end;
  match t.journal with
  | Some j when i >= 0 && i < t.n_computers ->
    Journal.record_completion j ~id:job.Job.id ~computer:i
      ~arrival:job.Job.arrival ~start:job.Job.start
      ~completion:job.Job.completion ~size:job.Job.size
  | Some _ | None -> ()

let on_drop t job =
  let i = job.Job.computer in
  if i >= 0 && i < t.n_computers then begin
    Array.unsafe_set t.drop_n i (Array.unsafe_get t.drop_n i + 1);
    match t.journal with
    | Some j ->
      (* Drops only happen while the triggering rate change is being
         applied, so the computer's last-change instant is "now". *)
      Journal.record_drop j ~id:job.Job.id ~computer:i ~time:t.rate_since.(i)
    | None -> ()
  end

(* Close the capacity span that ran at [prev] since [since]. *)
let close_capacity_span t ~computer ~since ~until ~prev =
  if prev < 1.0 && until > since then
    t.down_seconds.(computer) <-
      t.down_seconds.(computer) +. ((until -. since) *. (1.0 -. prev))

let on_rate_change t ~time ~computer ~rate =
  Registry.inc t.rate_changes;
  (match t.journal with
  | Some j -> Journal.record_rate j ~computer ~time ~rate
  | None -> ());
  close_capacity_span t ~computer ~since:t.rate_since.(computer) ~until:time
    ~prev:t.rate.(computer);
  t.rate.(computer) <- rate;
  t.rate_since.(computer) <- time

let finalize ?horizon t (result : Simulation.result) =
  sync_counters t;
  let cfg = t.config in
  let n = Array.length cfg.Simulation.speeds in
  (* A daemon run ends wherever its virtual clock stopped, not at the
     configured horizon cap; it passes the real end time here. *)
  let horizon =
    match horizon with Some h -> h | None -> cfg.Simulation.horizon
  in
  Array.iteri
    (fun i prev ->
      close_capacity_span t ~computer:i ~since:t.rate_since.(i) ~until:horizon
        ~prev;
      t.rate_since.(i) <- horizon)
    (Array.copy t.rate);
  let gauge ?labels ~help name v =
    Registry.set (Registry.gauge t.registry ~help ?labels name) v
  in
  let per_computer i = [ ("computer", string_of_int i) ] in
  let window = horizon -. cfg.Simulation.warmup in
  for i = 0 to n - 1 do
    let pc = result.Simulation.per_computer.(i) in
    gauge ~labels:(per_computer i) "statsched_computer_speed"
      ~help:"Nominal relative speed" pc.Simulation.speed;
    gauge ~labels:(per_computer i) "statsched_computer_utilization"
      ~help:"Busy fraction over the measurement window" pc.Simulation.utilization;
    gauge ~labels:(per_computer i) "statsched_computer_busy_seconds"
      ~help:"Busy simulated seconds over the measurement window"
      (pc.Simulation.utilization *. window);
    gauge ~labels:(per_computer i) "statsched_computer_down_seconds"
      ~help:"Capacity-weighted seconds of degraded or lost capacity over the run"
      t.down_seconds.(i);
    gauge ~labels:(per_computer i) "statsched_dispatch_fraction"
      ~help:"Share of post-warm-up dispatches this computer received"
      result.Simulation.dispatch_fractions.(i);
    match result.Simulation.intended_fractions with
    | None -> ()
    | Some intended ->
      gauge ~labels:(per_computer i) "statsched_intended_fraction"
        ~help:"Allocation fraction the policy aimed for" intended.(i);
      gauge ~labels:(per_computer i) "statsched_dispatch_drift"
        ~help:"Actual minus intended dispatch fraction"
        (result.Simulation.dispatch_fractions.(i) -. intended.(i))
  done;
  let m = result.Simulation.metrics in
  gauge "statsched_mean_response_time_seconds"
    ~help:"Mean response time over measured jobs"
    m.Statsched_core.Metrics.mean_response_time;
  gauge "statsched_mean_response_ratio" ~help:"Mean response ratio over measured jobs"
    m.Statsched_core.Metrics.mean_response_ratio;
  gauge "statsched_availability"
    ~help:"Capacity-weighted availability over the measurement window"
    m.Statsched_core.Metrics.availability;
  gauge "statsched_jobs_lost" ~help:"Measured jobs lost to failures"
    (float_of_int m.Statsched_core.Metrics.lost_jobs);
  gauge "statsched_jobs_measured" ~help:"Completions inside the measurement window"
    (float_of_int m.Statsched_core.Metrics.jobs);
  gauge "statsched_sim_time_seconds" ~help:"Simulated horizon" horizon;
  gauge "statsched_des_events_total" ~help:"Events the DES engine executed"
    (float_of_int result.Simulation.events_executed);
  gauge "statsched_des_heap_high_water"
    ~help:"Largest number of simultaneously pending events"
    (float_of_int result.Simulation.heap_high_water);
  let wall = Clock.elapsed ~since:t.wall_start in
  gauge "statsched_wall_seconds" ~help:"Wall-clock seconds the run took" wall;
  gauge "statsched_des_events_per_second"
    ~help:"DES engine throughput in events per wall-clock second"
    (if wall > 0.0 then float_of_int result.Simulation.events_executed /. wall
     else 0.0)

let write_metrics t path =
  sync_counters t;
  Registry.write_prometheus t.registry path

(* ------------------------------------------------------------------ *)
(* Live state and the in-process HTTP server                           *)

let set_engine t engine = t.engine <- Some engine
let journal t = t.journal

let json_num buf x =
  if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.17g" x)
  else Buffer.add_string buf "null"

let state_json t =
  let cfg = t.config in
  let n = Array.length cfg.Simulation.speeds in
  let sim_time, events, pending =
    match t.engine with
    | Some e ->
      let s = Engine.snapshot e in
      (s.Engine.snap_now, s.Engine.snap_events_executed, s.Engine.snap_pending)
    | None -> (0.0, 0, 0)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"sim_time\":%s,\"events_executed\":%d,\"pending_events\":%d,\"computers\":["
       (if Float.is_finite sim_time then Printf.sprintf "%.17g" sim_time
        else "null")
       events pending);
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf ',';
    let d = t.disp_n.(i) and c = t.comp_n.(i) and x = t.drop_n.(i) in
    let speed = cfg.Simulation.speeds.(i) in
    let busy = Float.Array.get t.work i /. speed in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"computer\":%d,\"speed\":%g,\"rate\":%g,\"queue_depth\":%d,\"dispatched\":%d,\"completed\":%d,\"dropped\":%d,\"busy_seconds\":"
         i speed t.rate.(i) (d - c - x) d c x);
    json_num buf busy;
    Buffer.add_string buf ",\"utilization\":";
    json_num buf (if sim_time > 0.0 then busy /. sim_time else 0.0);
    Buffer.add_string buf ",\"down_seconds\":";
    json_num buf t.down_seconds.(i);
    Buffer.add_char buf '}'
  done;
  Buffer.add_string buf "],\"journal\":";
  (match t.journal with
  | None -> Buffer.add_string buf "null"
  | Some j ->
    Buffer.add_string buf
      (Printf.sprintf "{\"records\":%d,\"capacity\":%d,\"stride\":%d}"
         (Journal.length j) (Journal.capacity j) (Journal.stride j)));
  Buffer.add_char buf '}';
  Buffer.contents buf

let prometheus_content_type = "text/plain; version=0.0.4; charset=utf-8"

let metrics_exposition t =
  sync_counters t;
  Registry.to_prometheus t.registry

let scrape ?(before_state = ignore) t path =
  match path with
  | "/metrics" ->
    Some
      {
        Http.status = 200;
        content_type = prometheus_content_type;
        body = metrics_exposition t;
      }
  | "/healthz" -> Some (Http.text "ok\n")
  | "/state" ->
    before_state ();
    Some (Http.json (state_json t))
  | _ -> None

let serve ?addr t ~port = Http.serve ?addr ~port (scrape t)

(* ------------------------------------------------------------------ *)
(* Journal persistence                                                 *)

let f17 = Printf.sprintf "%.17g"

let write_journal ?horizon t (result : Simulation.result) path =
  match t.journal with
  | None -> ()
  | Some j ->
    let cfg = t.config in
    let speeds = cfg.Simulation.speeds in
    (* As in [finalize]: a drained daemon run ends at its final virtual
       time, not at the configured cap, and the cross-validator derives
       utilizations from the window this meta line declares. *)
    let horizon =
      match horizon with Some h -> h | None -> cfg.Simulation.horizon
    in
    let meta =
      [
        ("scheduler", result.Simulation.scheduler_name);
        ( "speeds",
          String.concat ","
            (Array.to_list (Array.map (Printf.sprintf "%g") speeds)) );
        ("horizon", f17 horizon);
        ("warmup", f17 cfg.Simulation.warmup);
        ("seed", Int64.to_string cfg.Simulation.seed);
        ("replication", string_of_int cfg.Simulation.replication);
      ]
    in
    let m = result.Simulation.metrics in
    let per_computer =
      List.concat
        (List.init (Array.length speeds) (fun i ->
             let pc = result.Simulation.per_computer.(i) in
             [
               (Printf.sprintf "utilization_%d" i, f17 pc.Simulation.utilization);
               ( Printf.sprintf "dispatch_fraction_%d" i,
                 f17 result.Simulation.dispatch_fractions.(i) );
             ]))
    in
    let summary =
      [
        ("mean_response_time", f17 m.Statsched_core.Metrics.mean_response_time);
        ("mean_response_ratio", f17 m.Statsched_core.Metrics.mean_response_ratio);
        ("jobs_measured", string_of_int m.Statsched_core.Metrics.jobs);
        ("availability", f17 m.Statsched_core.Metrics.availability);
        ("lost_jobs", string_of_int m.Statsched_core.Metrics.lost_jobs);
        ("total_arrivals", string_of_int result.Simulation.total_arrivals);
        ("events_executed", string_of_int result.Simulation.events_executed);
      ]
      @ per_computer
    in
    Journal.write ~meta ~summary j path
