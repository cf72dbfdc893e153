(* The per-layer ledger.  A run's job stream — arrivals, sizes, dispatch
   decisions, completions — is recorded once through the simulator's own
   hooks, then replayed through each layer's public API on its own, timed
   from outside.  Each replay is one span. *)

module C = Statsched_cluster
module Sim = C.Simulation
module Core = Statsched_core
module Q = Statsched_queueing
module Des = Statsched_des
module Dist = Statsched_dist
module Rng = Statsched_prng.Rng
module Spans = Perfbench_lib.Spans
module Pstats = Perfbench_lib.Pstats
module R = Perfbench_lib.Result

type stream = {
  cfg : Sim.config;
  arrival : float array;  (** by job, in arrival order *)
  size : float array;
  computer : int array;  (** the dispatch decision *)
  completion : float array;  (** [nan] when the job never completed *)
  order : int array;  (** jobs in completion order *)
}

let jobs s = Array.length s.arrival

(* Hooks that record a run's stream; [finish] assembles it. *)
let recorder cfg =
  let arr = Util.Fbuf.create () and size = Util.Fbuf.create () in
  let comp = Util.Ibuf.create () in
  let done_id = Util.Ibuf.create () and done_t = Util.Fbuf.create () in
  let on_dispatch (j : Q.Job.t) =
    Util.Fbuf.push arr j.Q.Job.arrival;
    Util.Fbuf.push size j.Q.Job.size;
    Util.Ibuf.push comp j.Q.Job.computer
  in
  let on_completion (j : Q.Job.t) =
    Util.Ibuf.push done_id j.Q.Job.id;
    Util.Fbuf.push done_t j.Q.Job.completion
  in
  let finish () =
    let arrival = Util.Fbuf.contents arr in
    let n = Array.length arrival in
    let completion = Array.make n nan in
    (* Job ids count arrivals from 1. *)
    let ids = Util.Ibuf.contents done_id and ts = Util.Fbuf.contents done_t in
    let order = Array.map (fun id -> id - 1) ids in
    Array.iteri (fun k j -> completion.(j) <- ts.(k)) order;
    {
      cfg;
      arrival;
      size = Util.Fbuf.contents size;
      computer = Util.Ibuf.contents comp;
      completion;
      order;
    }
  in
  (on_dispatch, on_completion, finish)

(* The first [m] jobs and their completions: layer replays run on a
   prefix so that the ledger's cost stays bounded on long runs. *)
let prefix s m =
  let m = min m (jobs s) in
  {
    s with
    arrival = Array.sub s.arrival 0 m;
    size = Array.sub s.size 0 m;
    computer = Array.sub s.computer 0 m;
    completion = Array.sub s.completion 0 m;
    order = Array.of_list (List.filter (fun j -> j < m) (Array.to_list s.order));
  }

type cost = { ns : float;  (** per unit *) words : float  (** minor words per unit *) }

(* Time [f] as one span, per [units]. *)
let measure spans ~parent name ~units f =
  let w0 = Util.minor_words () in
  let t0 = Util.now () in
  f ();
  let t1 = Util.now () in
  let w1 = Util.minor_words () in
  ignore (Spans.add spans ~parent name ~start:t0 ~stop:t1);
  let u = float_of_int (max 1 units) in
  { ns = 1e9 *. (t1 -. t0) /. u; words = (w1 -. w0) /. u }

(* Arrival gaps and job sizes, drawn as the simulator draws them. *)
let dist spans ~parent s =
  let n = jobs s in
  let w = s.cfg.Sim.workload in
  let base = Rng.create ~seed:s.cfg.Sim.seed () in
  let src = C.Workload.gap_source w ~rng:(Rng.split base) in
  let sizes = Rng.split base in
  let acc = ref 0.0 in
  let c =
    measure spans ~parent "dist" ~units:n (fun () ->
        for _ = 1 to n do
          acc := !acc +. C.Workload.next_gap src +. Dist.Distribution.sample w.C.Workload.size sizes
        done)
  in
  ignore (Sys.opaque_identity !acc);
  c

(* The stream as the queue-operation model sees it. *)
let qstream s =
  {
    Perfbench_lib.Qmodel.servers = Array.length s.cfg.Sim.speeds;
    arrival = s.arrival;
    computer = s.computer;
    completion = s.completion;
    order = s.order;
  }

(* The dispatcher on the recorded stream: the static policies' select,
   or least-load's select / job_sent / departure_recorded cycle. *)
let dispatch spans ~parent s =
  let cfg = s.cfg in
  let n = jobs s in
  match cfg.Sim.scheduler with
  | C.Scheduler.Static p ->
    let rho = C.Workload.utilization cfg.Sim.workload ~speeds:cfg.Sim.speeds in
    let alloc = Core.Policy.allocation_of p ~rho cfg.Sim.speeds in
    let d = Core.Policy.dispatcher_of p ~rng:(Rng.create ~seed:cfg.Sim.seed ()) alloc in
    measure spans ~parent "core.dispatch" ~units:n (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Core.Dispatch.select d))
        done)
  | C.Scheduler.Jsq _ ->
    let ev = Perfbench_lib.Qmodel.events (qstream s) in
    let ll = Core.Least_load.create cfg.Sim.speeds in
    let rng = Some (Rng.create ~seed:cfg.Sim.seed ()) in
    let chosen = Array.make n 0 in
    measure spans ~parent "core.dispatch" ~units:n (fun () ->
        Array.iter
          (fun e ->
            if e >= 0 then begin
              let i = Core.Least_load.select ?rng ll in
              Core.Least_load.job_sent ll i;
              chosen.(e) <- i
            end
            else Core.Least_load.departure_recorded ll chosen.(-e - 1))
          ev)
  | k -> failwith ("no dispatch replay for " ^ C.Scheduler.name k)

let alloc_us s =
  let speeds = s.cfg.Sim.speeds in
  let rho = C.Workload.utilization s.cfg.Sim.workload ~speeds in
  1e6 *. Util.median_time ~reps:21 (fun () -> Core.Allocation.optimized ~rho speeds)

(* Nanoseconds per queue operation, operations per job, and the
   operations per job a batch run of this stream makes (the standalone PS
   replay below has arrival events whatever the source). *)
let des spans ~parent s ~source =
  let t0 = Util.now () in
  let model = Perfbench_lib.Qmodel.ops (qstream s) in
  let batch = model ~arrival_events:true in
  let q = match source with Perfbench_lib.Ledger.Batch -> batch | Served -> model ~arrival_events:false in
  ignore (Spans.add spans ~parent "des.prepare" ~start:t0 ~stop:(Util.now ()));
  let open Perfbench_lib.Qmodel in
  let nops = Bytes.length q.kind in
  let handles = Array.make (Array.length s.cfg.Sim.speeds) Des.Event_queue.no_handle in
  let eq = Des.Event_queue.create () in
  let c =
    measure spans ~parent "des.event_queue" ~units:nops (fun () ->
        for k = 0 to nops - 1 do
          match Bytes.unsafe_get q.kind k with
          | 'a' -> ignore (Des.Event_queue.add eq ~time:q.time.(k) (-1))
          | 'd' -> handles.(q.server.(k)) <- Des.Event_queue.add eq ~time:q.time.(k) q.server.(k)
          | 'p' -> ignore (Des.Event_queue.pop_step eq)
          | _ -> ignore (Des.Event_queue.cancel eq handles.(q.server.(k)))
        done)
  in
  let m = float_of_int (max 1 (jobs s)) in
  (c, nops, float_of_int nops /. m, float_of_int (Bytes.length batch.kind) /. float_of_int (max 1 batch.pops))

(* PS servers alone on their own engine, fed the recorded dispatches;
   returns the cost per job and the engine events it took. *)
let ps spans ~parent s =
  let n = jobs s in
  let engine = Des.Engine.create () in
  let servers =
    Array.map
      (fun speed -> Q.Ps_server.create ~engine ~speed ~on_departure:(fun _ -> ()) ())
      s.cfg.Sim.speeds
  in
  let rec arrive j eng =
    let job = Q.Job.create ~id:(j + 1) ~size:s.size.(j) ~arrival:s.arrival.(j) in
    job.Q.Job.computer <- s.computer.(j);
    Q.Ps_server.submit servers.(s.computer.(j)) job;
    if j + 1 < n then ignore (Des.Engine.schedule_at eng ~time:s.arrival.(j + 1) (arrive (j + 1)))
  in
  if n > 0 then ignore (Des.Engine.schedule_at engine ~time:s.arrival.(0) (arrive 0));
  let c = measure spans ~parent "queueing.ps" ~units:n (fun () -> Des.Engine.run engine) in
  (c, Des.Engine.events_executed engine)

let completed_jobs s =
  Array.map
    (fun j ->
      let job = Q.Job.create ~id:(j + 1) ~size:s.size.(j) ~arrival:s.arrival.(j) in
      job.Q.Job.computer <- s.computer.(j);
      job.Q.Job.start <- s.arrival.(j);
      job.Q.Job.completion <- s.completion.(j);
      job)
    s.order

let collector spans ~parent s =
  let done_ = completed_jobs s in
  let col = C.Collector.create ~warmup:s.cfg.Sim.warmup () in
  measure spans ~parent "cluster.collector" ~units:(Array.length done_) (fun () ->
      Array.iter (C.Collector.on_departure col) done_)

(* The daemon's telemetry hooks (with the journal [schedsimd] keeps). *)
let telemetry spans ~parent s =
  let sent =
    Array.init (jobs s) (fun j ->
        let job = Q.Job.create ~id:(j + 1) ~size:s.size.(j) ~arrival:s.arrival.(j) in
        job.Q.Job.computer <- s.computer.(j);
        job)
  in
  let done_ = completed_jobs s in
  let journal = Statsched_obs.Journal.create ~capacity:65536 () in
  let tel = C.Telemetry.create ~journal s.cfg in
  measure spans ~parent "cluster.telemetry" ~units:(jobs s) (fun () ->
      Array.iter (C.Telemetry.on_dispatch tel) sent;
      Array.iter (C.Telemetry.on_completion tel) done_)

(* Bit-level fingerprint of a run's reported metrics; [~engine:false]
   leaves out the engine's own counters, which differ in [`External] mode
   (no arrival events). *)
let fingerprint ?(engine = true) (r : Sim.result) =
  let b = Buffer.create 512 in
  let f x = Printf.bprintf b "%h;" x and i x = Printf.bprintf b "%d;" x in
  let m = r.Sim.metrics in
  f m.Core.Metrics.mean_response_time;
  f m.Core.Metrics.mean_response_ratio;
  f m.Core.Metrics.fairness;
  i m.Core.Metrics.jobs;
  f m.Core.Metrics.availability;
  f m.Core.Metrics.goodput;
  i m.Core.Metrics.lost_jobs;
  f r.Sim.median_response_ratio;
  f r.Sim.p99_response_ratio;
  Array.iter
    (fun pc ->
      f pc.Sim.speed;
      i pc.Sim.dispatched;
      i pc.Sim.completed;
      f pc.Sim.utilization;
      f pc.Sim.mean_jobs)
    r.Sim.per_computer;
  i r.Sim.total_arrivals;
  if engine then begin
    i r.Sim.events_executed;
    i r.Sim.heap_high_water
  end;
  Buffer.contents b

type replay = {
  submit_ns : float;  (** per submitted job *)
  advance_ns_per_event : float;
  replayed : Sim.result;
  same_decisions : bool;
  submitted : int;
}

(* The whole stream through [Simulation.Driver] in [`External] mode,
   timing [advance] and [submit] separately (one clock read per call is
   subtracted from each). *)
let external_replay spans ~parent s =
  let t0 = Util.now () in
  let d = Sim.Driver.create ~arrivals:`External s.cfg in
  let n = jobs s in
  let adv = ref 0.0 and sub = ref 0.0 and same = ref true in
  for j = 0 to n - 1 do
    let a = Util.now () in
    Sim.Driver.advance d ~to_:s.arrival.(j);
    let b = Util.now () in
    let c = Sim.Driver.submit d ~size:s.size.(j) in
    let e = Util.now () in
    adv := !adv +. (b -. a);
    sub := !sub +. (e -. b);
    if c <> s.computer.(j) then same := false
  done;
  let a = Util.now () in
  Sim.Driver.advance d ~to_:s.cfg.Sim.horizon;
  adv := !adv +. (Util.now () -. a);
  let r = Sim.Driver.finalize d in
  ignore (Spans.add spans ~parent "cluster.external_replay" ~start:t0 ~stop:(Util.now ()));
  let cc = Lazy.force Util.clock_cost in
  {
    submit_ns = 1e9 *. (!sub -. (float_of_int n *. cc)) /. float_of_int (max 1 n);
    advance_ns_per_event =
      1e9 *. (!adv -. (float_of_int (n + 1) *. cc)) /. float_of_int (max 1 r.Sim.events_executed);
    replayed = r;
    same_decisions = !same;
    submitted = n;
  }

type handled = {
  calls : int * int * int * int;  (** posts, /metrics, /state, /policy *)
  post_us : float;
  metrics_us : float;
  state_us : float;
  policy_us : float;
  metrics_render_us : float;
  state_render_us : float;
}

(* [Daemon.handle_request] in process with the virtual clock injected:
   the first [posts] jobs of the stream posted at their arrival times,
   interleaved with scrapes and policy swaps. *)
let handle spans ~parent s ~posts ~swap_to =
  let cfg = { s.cfg with Sim.warmup = 0.0; horizon = 1e12 } in
  let vclock = ref 0.0 in
  let journal = Statsched_obs.Journal.create ~capacity:65536 () in
  let d = C.Daemon.create ~journal ~backlog_limit:max_int ~clock:(fun () -> !vclock) cfg in
  let req meth path body = { Statsched_obs.Http.meth; path; body } in
  let timed r =
    let t0 = Util.now () in
    let resp = C.Daemon.handle_request d r in
    (Util.now () -. t0, resp.Statsched_obs.Http.status)
  in
  let n = min posts (jobs s) in
  let every = max 1 (n / 20) in
  let post = Util.Fbuf.create () and met = Util.Fbuf.create () in
  let st = Util.Fbuf.create () and pol = Util.Fbuf.create () in
  let bad = ref 0 in
  let t_start = Util.now () in
  for j = 0 to n - 1 do
    vclock := s.arrival.(j);
    let dt, code = timed (req "POST" "/jobs" (Printf.sprintf "%.17g" s.size.(j))) in
    Util.Fbuf.push post dt;
    if code <> 202 then incr bad;
    if j mod every = every - 1 then begin
      let dt, code = timed (req "GET" "/metrics" "") in
      Util.Fbuf.push met dt;
      if code <> 200 then incr bad;
      let dt, code = timed (req "GET" "/state" "") in
      Util.Fbuf.push st dt;
      if code <> 200 then incr bad;
      if j mod (5 * every) = (5 * every) - 1 then begin
        let name = if (j / (5 * every)) mod 2 = 0 then fst swap_to else snd swap_to in
        let dt, code = timed (req "PUT" "/policy" name) in
        Util.Fbuf.push pol dt;
        if code <> 200 then incr bad
      end
    end
  done;
  ignore (Spans.add spans ~parent "cluster.handle_request" ~start:t_start ~stop:(Util.now ()));
  let tel = C.Daemon.telemetry d in
  let render f = 1e6 *. Util.median_time ~reps:21 (fun () -> f tel) in
  let metrics_render_us = render C.Telemetry.metrics_exposition in
  let state_render_us = render C.Telemetry.state_json in
  let med b = 1e6 *. Pstats.median (Util.Fbuf.contents b) in
  let n b = b.Util.Fbuf.n in
  ( {
      calls = (n post, n met, n st, n pol);
      post_us = med post;
      metrics_us = med met;
      state_us = med st;
      policy_us = med pol;
      metrics_render_us;
      state_render_us;
    },
    !bad )

(* Per-computer Little's law, sample path by sample path: each
   computer's time-averaged job count [L_i] must equal the time its jobs
   spent in the system inside the measurement window, divided by the
   window.  Exact up to rounding whatever the horizon, unlike [L = λW]
   with [W] over completed jobs only. *)
let littles_law res s (r : Sim.result) =
  let n = Array.length s.cfg.Sim.speeds in
  let area = Array.make n 0.0 in
  let w = s.cfg.Sim.warmup and t_end = s.cfg.Sim.horizon in
  for j = 0 to jobs s - 1 do
    let a = Float.max s.arrival.(j) w in
    let f = if Float.is_finite s.completion.(j) then Float.min s.completion.(j) t_end else t_end in
    if f > a then area.(s.computer.(j)) <- area.(s.computer.(j)) +. (f -. a)
  done;
  let bad = ref [] in
  Array.iteri
    (fun i pc ->
      let l = area.(i) /. (t_end -. w) in
      if Float.abs (l -. pc.Sim.mean_jobs) > 1e-6 *. Float.max 1.0 l then bad := i :: !bad)
    r.Sim.per_computer;
  R.check res (!bad = [])
    (Printf.sprintf "Little's law fails on %d of %d computers" (List.length !bad) n)

(* Replay every layer on [s] and report the ledger.  [e2e_ns] gives,
   from the in-process handling figures, the end-to-end cost per job the
   layers are set against; [source] decides which layers are on the
   job's path (see {!Perfbench_lib.Ledger.layers_of}). *)
let emit res spans ~parent s ~source ~replay ~create_ms ~swap_to ~e2e_ns =
  let m = float_of_int (max 1 (jobs s)) in
  let dist = dist spans ~parent s in
  let q, nops, ops_per_job, batch_ops_per_event = des spans ~parent s ~source in
  let ps, ps_events = ps spans ~parent s in
  let ps_self = ps.ns -. (q.ns *. batch_ops_per_event *. float_of_int ps_events /. m) in
  let disp = dispatch spans ~parent s in
  let col = collector spans ~parent s in
  let tel = telemetry spans ~parent s in
  let h, bad = handle spans ~parent s ~posts:5_000 ~swap_to in
  R.check res (bad = 0) "in-process handle_request answered an error";
  let ledger =
    Perfbench_lib.Ledger.make source ~end_to_end:(e2e_ns h) ~cost:(function
      | "dist" -> dist.ns
      | "des" -> q.ns *. ops_per_job
      | "queueing" -> ps_self
      | "core" -> disp.ns
      | "cluster.collector" -> col.ns
      | "cluster.telemetry" -> tel.ns
      | l -> invalid_arg ("Layers.emit: no cost for " ^ l))
  in
  let add = R.add res in
  let n = jobs s in
  let off_path l = if List.mem_assoc l ledger.Perfbench_lib.Ledger.layers then "" else "; off the path, not in glue" in
  add "dist.ns_per_job" "ns" dist.ns ~n ~note:("the workload's gap and size sampling" ^ off_path "dist");
  add "dist.words_per_job" "words" dist.words ~n;
  add "des.queue_ns_per_op" "ns" q.ns ~n:nops ~note:(Printf.sprintf "%.2f ops/job" ops_per_job);
  add "queueing.ps_ns_per_job" "ns" ps_self ~n ~note:"PS replay minus its queue operations";
  add "queueing.ps_words_per_job" "words" ps.words ~n;
  add "core.dispatch_ns_per_decision" "ns" disp.ns ~n;
  add "core.dispatch_words_per_decision" "words" disp.words ~n;
  add "core.alloc_us" "us" (alloc_us s) ~n:21;
  add "cluster.collector_ns_per_job" "ns" col.ns ~n;
  add "cluster.telemetry_ns_per_job" "ns" tel.ns ~n ~note:("with a journal" ^ off_path "cluster.telemetry");
  add "cluster.submit_ns" "ns" replay.submit_ns ~n:replay.submitted;
  add "cluster.advance_ns_per_event" "ns" replay.advance_ns_per_event
    ~n:replay.replayed.Sim.events_executed;
  add "cluster.create_ms" "ms" create_ms ~note:"median";
  let np, nm, ns, nw = h.calls in
  add "cluster.handle_us.post" "us" h.post_us ~n:np ~note:"median";
  add "cluster.handle_us.metrics" "us" h.metrics_us ~n:nm ~note:"median";
  add "cluster.handle_us.state" "us" h.state_us ~n:ns ~note:"median";
  add "cluster.handle_us.policy" "us" h.policy_us ~n:nw ~note:"median";
  add "obs.metrics_render_us" "us" h.metrics_render_us ~n:21;
  add "obs.state_render_us" "us" h.state_render_us ~n:21;
  add "glue.ns_per_job" "ns" (Perfbench_lib.Ledger.glue ledger)
    ~note:
      (Printf.sprintf "end-to-end %.1f ns/job minus %s %.1f" ledger.Perfbench_lib.Ledger.end_to_end
         (String.concat "+" (List.map fst ledger.Perfbench_lib.Ledger.layers))
         (Perfbench_lib.Ledger.layer_sum ledger));
  h
