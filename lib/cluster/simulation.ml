module Rng = Statsched_prng.Rng
module Distribution = Statsched_dist.Distribution
module Engine = Statsched_des.Engine
module Q = Statsched_queueing
module Core = Statsched_core

type discipline = Ps | Rr of float | Fcfs | Srpt

type config = {
  speeds : float array;
  workload : Workload.t;
  scheduler : Scheduler.kind;
  discipline : discipline;
  horizon : float;
  warmup : float;
  seed : int64;
  replication : int;
  faults : Fault.plan option;
}

let paper_horizon = 4.0e6
let paper_warmup = 1.0e6

let default_config ?(discipline = Ps) ?(horizon = 4.0e5) ?warmup ?(seed = 42L)
    ?(replication = 0) ?faults ~speeds ~workload ~scheduler () =
  let warmup = match warmup with Some w -> w | None -> horizon /. 4.0 in
  { speeds; workload; scheduler; discipline; horizon; warmup; seed; replication; faults }

type per_computer = {
  speed : float;
  dispatched : int;
  completed : int;
  utilization : float;
  mean_jobs : float;
}

type result = {
  scheduler_name : string;
  metrics : Core.Metrics.t;
  median_response_ratio : float;
  p99_response_ratio : float;
  response_time_histogram : Statsched_obs.Hdr_histogram.t;
  response_ratio_histogram : Statsched_obs.Hdr_histogram.t;
  per_computer : per_computer array;
  dispatch_fractions : float array;
  intended_fractions : float array option;
  offered_utilization : float;
  total_arrivals : int;
  events_executed : int;
  heap_high_water : int;
  fault_summary : Fault.summary option;
}

type progress = {
  sim_time : float;
  arrivals : int;
  completions : int;
  measured : int;
  events : int;
}

let make_server ~discipline ~engine ~store ~speed ~on_departure =
  let serial order =
    Q.Serial_server.create ~engine ~speed ~order ~store ~on_departure ()
  in
  match discipline with
  | Ps -> Q.Ps_server.serve ~engine ~speed ~store ~on_departure ()
  | Rr quantum -> serial (Q.Serial_server.Rr quantum)
  | Fcfs -> serial Q.Serial_server.Fcfs
  | Srpt -> serial Q.Serial_server.Srpt

(* Exact comparison of speed vectors (same length by construction);
   polymorphic [=] on float arrays is banned by schedlint rule R3. *)
let same_speeds a b = Array.for_all2 Float.equal a b

(* Indices with positive effective speed, in order. *)
let up_indices eff =
  let up = ref [] in
  for i = Array.length eff - 1 downto 0 do
    if eff.(i) > 0.0 then up := i :: !up
  done;
  Array.of_list !up

(* The scheduler-side callbacks of one policy instance, bundled so a
   live driver can hot-swap the whole set atomically: the decision
   function, the intended-fraction reporter, the departure hook, the
   capacity-change hook (fires only under a [Blacklist] fault plan, with
   the current effective speed vector), the drain hook (a job a crash
   took off its computer) and the teardown that stops the policy's
   periodic tasks once it is swapped out.  Jobs are job-store slots. *)
type sched_fns = {
  sf_select : int -> int;
  sf_intended : unit -> float array option;
  sf_on_departure : int -> unit;
  sf_on_capacity : float array -> unit;
  sf_on_drained : int -> unit;
  sf_teardown : unit -> unit;
}

(* The Least-Load family is one selector reading one information model.
   Selectors: the tournament tree over every computer (ties broken
   uniformly at random), a uniform or speed-weighted sample of [d]
   computers, or Join-Idle-Queue's idle stacks.  Information models:
   exact synchronous updates, a per-departure update message that
   arrives after a detection delay plus a network delay, or a periodic
   poll of every queue, optionally counting the jobs sent since the
   last poll. *)
type selector = Full | Sampled of int | Weighted of int | Idle

type information =
  | Synchronous
  | Delayed of { detection : Distribution.t; message_delay : Distribution.t }
  | Polled of { period : float; count_in_flight : bool }

(* A policy that only selects; the others override the hooks they use. *)
let passive select =
  {
    sf_select = select;
    sf_intended = (fun () -> None);
    sf_on_departure = ignore;
    sf_on_capacity = ignore;
    sf_on_drained = ignore;
    sf_teardown = ignore;
  }

(* Replay a capacity vector into a per-computer availability flag. *)
let mask_down set_available eff = Array.iteri (fun i e -> set_available i (e > 0.0)) eff

(* The records the caller's job hooks see, when any is installed.  A
   job's record is made at dispatch and kept current through its
   completion or drop, so the hooks see one record per job.  Under
   [retain] it is fresh per job (a hook may keep it); otherwise each
   store slot owns one, refilled for every job of the slot. *)
type hooks = {
  on_dispatch : (Q.Job.t -> unit) option;
  on_completion : (Q.Job.t -> unit) option;
  on_drop : (Q.Job.t -> unit) option;
  retain : bool;
  mutable records : Q.Job.t array;  (* by slot *)
}

(* One run's state, read by the per-job cycle below.  Every job lives in
   [store]; servers, the policy and the collector see its slot, so the
   arrival → dispatch → service → departure cycle stores no float into
   a record and allocates nothing. *)
type run = {
  engine : Engine.t;
  warmup : float;
  store : Q.Job_store.t;
  collector : Collector.t;
  mutable servers : Q.Server_intf.t array;
  mutable sched : sched_fns;
  dispatched : int array;  (* per computer, after warm-up *)
  completed : int array;  (* per computer, arrivals after warm-up *)
  mutable arrivals : int;
  mutable completions : int;
  hooks : hooks option;
  san : Sanitize.t option;
}

let in_system r =
  Array.fold_left (fun acc srv -> acc + srv.Q.Server_intf.in_system ()) 0 r.servers

(* Grow [records] with the store, a record per new slot. *)
let ensure_records r h =
  let cap = Q.Job_store.capacity r.store in
  let have = Array.length h.records in
  if have < cap then
    h.records <-
      Array.init cap (fun k ->
          if k < have then h.records.(k) else Q.Job.create ~id:0 ~size:1.0 ~arrival:0.0)

(* Each float stored into a record is boxed.  At dispatch a job has
   neither started nor completed, and the literal [-1.0] is a static
   constant, so the record costs the boxes of its size and arrival. *)
let[@schedsim.cold] hook_dispatch r h slot =
  ensure_records r h;
  let j =
    if h.retain then Q.Job.create ~id:0 ~size:1.0 ~arrival:0.0 else h.records.(slot)
  in
  j.Q.Job.id <- Q.Job_store.id r.store slot;
  j.Q.Job.size <- Q.Job_store.size r.store slot;
  j.Q.Job.arrival <- Q.Job_store.arrival r.store slot;
  j.Q.Job.computer <- Q.Job_store.computer r.store slot;
  j.Q.Job.start <- -1.0;
  j.Q.Job.completion <- -1.0;
  h.records.(slot) <- j;
  match h.on_dispatch with Some f -> f j | None -> ()

(* The job's record from dispatch, brought up to date: only a requeue
   changes its computer, and service its start and completion.  A job
   served from its arrival instant (always, under PS) shares the
   arrival's box. *)
let current_record r h slot =
  let j = h.records.(slot) in
  let start = Q.Job_store.start r.store slot in
  j.Q.Job.computer <- Q.Job_store.computer r.store slot;
  j.Q.Job.start <- (if Float.equal start j.Q.Job.arrival then j.Q.Job.arrival else start);
  j.Q.Job.completion <- Q.Job_store.completion r.store slot;
  j

let[@schedsim.cold] hook_completion r h slot =
  match h.on_completion with Some f -> f (current_record r h slot) | None -> ()

let[@schedsim.cold] hook_drop r h slot =
  match h.on_drop with Some f -> f (current_record r h slot) | None -> ()

let[@schedsim.cold] check_arrival r s =
  Sanitize.on_arrival s;
  Sanitize.check_engine s r.engine

let[@schedsim.cold] check_departure r s =
  Sanitize.on_completion s;
  Sanitize.check_engine s r.engine;
  Sanitize.check_conservation s ~in_system:(in_system r)

(* One arriving job, at the engine's current time: count it, store it,
   draw the dispatch decision, hand it to the chosen computer.  Shared
   verbatim between the internal arrival process and {!Driver.submit},
   so daemon-injected jobs take exactly the batch-mode dispatch path.
   Inlined, so [size] reaches the store unboxed. *)
let[@inline] [@schedsim.hot] inject r ~size =
  r.arrivals <- r.arrivals + 1;
  let now = Engine.now r.engine in
  let slot = Q.Job_store.add r.store ~id:r.arrivals ~size ~arrival:now in
  let target = r.sched.sf_select slot in
  Q.Job_store.set_computer r.store slot target;
  if now >= r.warmup then r.dispatched.(target) <- r.dispatched.(target) + 1;
  (match r.hooks with Some h -> hook_dispatch r h slot | None -> ());
  r.servers.(target).Q.Server_intf.submit slot;
  (match r.san with Some s -> check_arrival r s | None -> ());
  target

(* A job leaving computer [i]; its server has recorded the completion. *)
let[@schedsim.hot] depart r i slot =
  r.completions <- r.completions + 1;
  let arrival = Q.Job_store.arrival r.store slot in
  Collector.record r.collector ~arrival
    ~completion:(Q.Job_store.completion r.store slot)
    ~size:(Q.Job_store.size r.store slot);
  if arrival >= r.warmup then r.completed.(i) <- r.completed.(i) + 1;
  (match r.hooks with Some h -> hook_completion r h slot | None -> ());
  r.sched.sf_on_departure slot;
  (match r.san with Some s -> check_departure r s | None -> ());
  Q.Job_store.release r.store slot

(* The internal arrival process: base gaps and sizes come pre-sampled in
   batches from their dedicated streams ({!Workload.source}), and a rate
   modulation scales the gap down when the instantaneous rate is high
   (time-rescaled renewal process).  [fire] is the one arrival event
   handler, made once. *)
type arrival_process = {
  gaps : Workload.source;
  sizes : Workload.source;
  modulation : (float -> float) option;
  mutable fire : Engine.t -> unit;
}

let[@schedsim.hot] next_arrival r a =
  let base_gap = Workload.next a.gaps in
  let gap =
    match a.modulation with
    | None -> base_gap
    | Some f -> base_gap /. max 0.05 (f (Engine.now r.engine))
  in
  ignore (Engine.schedule r.engine ~delay:gap a.fire)

let[@schedsim.hot] arrive r a =
  ignore (inject r ~size:(Workload.next a.sizes));
  next_arrival r a

(* A paused, resumable simulation: {!run} unrolled into
   create / advance / finalize so a daemon can drive the virtual clock
   and inject externally arriving jobs.  The per-job cycle reads [d_run];
   policy swaps and the result live in the closures built by {!create}. *)
type driver = {
  d_run : run;
  d_cfg : config;
  d_kind : Scheduler.kind ref;
  d_set_scheduler : Scheduler.kind -> unit;
  d_finalize : unit -> result;
  mutable d_done : bool;
}

let create ?sanitize ?(hooks_retain_jobs = true) ?metric_histograms ?on_engine
    ?on_dispatch ?on_completion ?on_tick ?on_drop ?on_rate_change ?on_progress
    ?(arrivals = `Workload) cfg =
  Core.Speeds.validate cfg.speeds;
  if cfg.horizon <= 0.0 then invalid_arg "Simulation.run: horizon <= 0";
  if cfg.warmup < 0.0 || cfg.warmup >= cfg.horizon then
    invalid_arg "Simulation.run: warmup outside [0, horizon)";
  let n = Array.length cfg.speeds in
  let rho = Workload.utilization cfg.workload ~speeds:cfg.speeds in
  (* Sanitizers observe the run through the hooks below but never draw
     random numbers or schedule events, so they cannot perturb it. *)
  let san =
    let enabled =
      match sanitize with Some b -> b | None -> Sanitize.enabled_from_env ()
    in
    if enabled then Some (Sanitize.create ()) else None
  in
  let check_alloc ?saturation ~label ~rho ~speeds alloc =
    match san with
    | Some _ -> Sanitize.check_allocation ~label ?saturation ~rho ~speeds alloc
    | None -> ()
  in
  (* One base stream per (seed, replication); components get independent
     splits in a fixed documented order: arrivals, sizes, dispatch,
     scheduler ties, detection, message delay, faults.  The fault stream
     is split last (and always) so a zero-fault run draws exactly the
     same six streams as before the reliability extension. *)
  let base = Rng.substream (Rng.create ~seed:cfg.seed ()) cfg.replication in
  let arrivals_rng = Rng.split base in
  let sizes_rng = Rng.split base in
  let dispatch_rng = Rng.split base in
  let ties_rng = Rng.split base in
  (* Pre-allocated option for the per-decision [?rng] argument of
     [Least_load.select]: passing [~rng:ties_rng] at the call site
     would build a fresh [Some] on every dispatch. *)
  let some_ties_rng = Some ties_rng in
  let detect_rng = Rng.split base in
  let delay_rng = Rng.split base in
  let fault_rng = Rng.split base in

  let engine = Engine.create () in
  (match on_engine with Some f -> f engine | None -> ());
  let collector =
    match metric_histograms with
    | None -> Collector.create ~warmup:cfg.warmup ()
    | Some (rt_hist, rr_hist) ->
      Collector.create ~rt_hist ~rr_hist ~warmup:cfg.warmup ()
  in
  let hooks =
    match (on_dispatch, on_completion, on_drop) with
    | None, None, None -> None
    | _ ->
      Some
        { on_dispatch; on_completion; on_drop; retain = hooks_retain_jobs; records = [||] }
  in
  (* The policy and then the servers are installed below, once their
     closures can see [r]. *)
  let r =
    {
      engine;
      warmup = cfg.warmup;
      store = Q.Job_store.create ();
      collector;
      servers = [||];
      sched = passive (fun _ -> 0);
      dispatched = Array.make n 0;
      completed = Array.make n 0;
      arrivals = 0;
      completions = 0;
      hooks;
      san;
    }
  in
  let total_speed = Core.Speeds.total cfg.speeds in
  (* Renormalised load for a surviving effective-speed sub-vector: the
     same absolute work rate spread over less capacity.  Clamped below
     saturation so Algorithm 1 stays well-defined even when the survivors
     cannot actually carry the load. *)
  let scaled_rho sub = min 0.999 (rho *. total_speed /. Core.Speeds.total sub) in

  (* [r.servers] is filled right after server creation; only events
     executed during the run (and policy swaps, which seed the fresh
     scheduler state from the live queues) read it. *)
  let each_queue f =
    Array.iteri (fun i s -> f i (s.Q.Server_intf.in_system ())) r.servers
  in
  (* The one blacklist remap (statics, SITA-E, adaptive ORR): [build ~rho
     ~speeds] makes an instance for one speed vector at one load; under a
     Blacklist plan the remap builds one for the surviving sub-vector and
     maps its choice [pick inst slot] back to a global index.  A [live]
     instance (adaptive ORR) is rebuilt on every capacity change, never
     restored, and reports its current fractions, not the nominal ones.
     [refit] rebuilds for the current vector. *)
  let remap ?(live = false) ?fractions ~build pick =
    let base = build ~rho ~speeds:cfg.speeds in
    let cur = ref base and sub = ref None in
    let refit () =
      cur :=
        match !sub with
        | None -> build ~rho ~speeds:cfg.speeds
        | Some (speeds, _) -> build ~rho:(scaled_rho speeds) ~speeds
    in
    let on_capacity eff =
      let up = up_indices eff in
      sub :=
        if same_speeds eff cfg.speeds || Array.length up = 0 then None
        else Some (Array.map (fun i -> eff.(i)) up, up);
      if live || Option.is_some !sub then refit () else cur := base
    in
    let intended f =
      match !sub with
      | Some (_, up) when live ->
        let full = Array.make n 0.0 in
        Array.iteri (fun k x -> full.(up.(k)) <- x) (f !cur);
        full
      | Some _ | None -> f (if live then !cur else base)
    in
    let select slot =
      let i = pick !cur slot in
      match !sub with None -> i | Some (_, up) -> up.(i)
    in
    ( {
        (passive select) with
        sf_intended = (fun () -> Option.map intended fractions);
        sf_on_capacity = on_capacity;
      },
      refit )
  in
  let dispatch_remap ?live build =
    remap ?live ~fractions:Core.Dispatch.fractions ~build (fun dispatcher _slot ->
        Core.Dispatch.select dispatcher)
  in
  (* [Static p] as a [Static_custom] build.  [Optimized_at] deliberately
     mis-estimates the load (Figure 6): saturation is then under study. *)
  let static_make policy ~rho ~speeds ~rng =
    let alloc = Core.Policy.allocation_of policy ~rho speeds in
    let saturation =
      match policy.Core.Policy.allocation with
      | Core.Policy.Optimized_at _ -> false
      | Core.Policy.Weighted | Core.Policy.Optimized -> true
    in
    check_alloc ~saturation ~label:"static" ~rho ~speeds alloc;
    Core.Policy.dispatcher_of policy ~rng alloc
  in
  (* Draws: the ties stream per decision (the dispatch stream for
     [Idle]), and under [Delayed] the detection and delay streams per
     departure. *)
  let least_load selector information =
    let state = Core.Least_load.create cfg.speeds in
    let poll () = each_queue (Core.Least_load.set_load_index state) in
    poll ();
    let recorded slot =
      Core.Least_load.departure_recorded state (Q.Job_store.computer r.store slot)
    in
    let counts, on_departure, teardown =
      match information with
      | Synchronous -> (true, recorded, ignore)
      | Delayed { detection; message_delay } ->
        (* The executing computer notices the departure after a polling
           delay, then its update message crosses the network. *)
        let on_departure slot =
          let lag =
            Distribution.sample detection detect_rng
            +. Distribution.sample message_delay delay_rng
          in
          let computer = Q.Job_store.computer r.store slot in
          ignore
            (Engine.schedule engine ~delay:lag (fun _ ->
                 Core.Least_load.departure_recorded state computer))
        in
        (true, on_departure, ignore)
      | Polled { period; count_in_flight } ->
        let task = Engine.every engine ~period (fun _ -> poll ()) in
        (count_in_flight, ignore, fun () -> Engine.stop engine task)
    in
    let select _slot =
      let i =
        match selector with
        | Full -> Core.Least_load.select ?rng:some_ties_rng state
        | Sampled d -> Core.Least_load.select_sampled ~rng:ties_rng state ~d
        | Weighted d -> Core.Least_load.select_weighted ~rng:ties_rng state ~d
        | Idle -> Core.Least_load.select_idle ~rng:dispatch_rng state
      in
      if counts then Core.Least_load.job_sent state i;
      i
    in
    {
      (passive select) with
      sf_on_departure = on_departure;
      sf_on_capacity = mask_down (Core.Least_load.set_available state);
      sf_on_drained = recorded;
      sf_teardown = teardown;
    }
  in
  (* Built at creation and on every {!Driver.set_scheduler}: the RNG
     streams continue, and a swap seeds the new state from the live
     queues (at creation [r.servers] is empty, so that is a no-op). *)
  let make_sched = function
    | Scheduler.Static p -> fst (dispatch_remap (static_make p ~rng:dispatch_rng))
    | Scheduler.Static_custom { make; _ } ->
      fst (dispatch_remap (make ~rng:dispatch_rng))
    | Scheduler.Sita { params; small_to } ->
      let build ~rho:_ ~speeds =
        Core.Sita.build_bounded_pareto params ~speeds ~small_to
      in
      fst
        (remap ~build (fun sita slot ->
             Core.Sita.select sita ~size:(Q.Job_store.size r.store slot)))
    | Scheduler.Adaptive { period; windowed } ->
      (* Self-tuning ORR: λ̂ from the arrival count, E[S] from the
         completed jobs, ρ̂ = λ̂·E[S]/Σs times a 5 % safety factor,
         recomputed every [period] s from an initial guess of 0.5.  ρ̂
         replaces the remap's load and is renormalised onto the speed
         vector (by exactly 1 when nominal). *)
      let seen_completions = ref 0 and size_sum = ref 0.0 in
      let rho_hat = ref 0.5 in
      let fns, refit =
        dispatch_remap ~live:true (fun ~rho:_ ~speeds ->
            let scale = total_speed /. Core.Speeds.total speeds in
            let rho = min 0.999 (max 1e-6 (!rho_hat *. 1.05 *. scale)) in
            let alloc = Core.Allocation.optimized ~rho speeds in
            check_alloc ~label:"adaptive" ~rho ~speeds alloc;
            Core.Dispatch.round_robin alloc)
      in
      (* (time, arrivals, completions, size sum) at the window start. *)
      let last = ref (0.0, 0, 0, 0.0) in
      let recompute () =
        let now = Engine.now engine in
        let t0, a0, c0, s0 = !last in
        let arrivals = r.arrivals - a0 and completions = !seen_completions - c0 in
        let sizes = !size_sum -. s0 and elapsed = now -. t0 in
        if windowed then last := (now, r.arrivals, !seen_completions, !size_sum);
        if completions > 0 && elapsed > 0.0 && arrivals > 0 then begin
          let lambda_hat = float_of_int arrivals /. elapsed in
          let mean_size_hat = sizes /. float_of_int completions in
          rho_hat := lambda_hat *. mean_size_hat /. total_speed;
          Log.Log.debug (fun m ->
              m "adaptive recompute at t=%.0f: lambda=%.5g E[S]=%.4g rho=%.4f"
                now lambda_hat mean_size_hat !rho_hat);
          refit ()
        end
      in
      let task = Engine.every engine ~period (fun _ -> recompute ()) in
      {
        fns with
        sf_on_departure =
          (fun slot ->
            incr seen_completions;
            size_sum := !size_sum +. Q.Job_store.size r.store slot);
        sf_teardown = (fun () -> Engine.stop engine task);
      }
    | Scheduler.Least_load { detection; message_delay; probe } ->
      least_load
        (match probe with Some d -> Sampled d | None -> Full)
        (Delayed { detection; message_delay })
    | Scheduler.Jsq { d; weighted } ->
      (* [d >= n] falls back to the tournament tree inside the sampler,
         which simcheck pins bit-identical to instant Least-Load. *)
      least_load (if weighted then Weighted d else Sampled d) Synchronous
    | Scheduler.Stale_least_load { poll_period; count_in_flight } ->
      least_load Full (Polled { period = poll_period; count_in_flight })
    | Scheduler.Jiq -> least_load Idle Synchronous
  in
  r.sched <- make_sched cfg.scheduler;
  let current_kind = ref cfg.scheduler in
  (* Last effective speed vector a Blacklist plan announced; a policy
     swap replays it into the fresh scheduler state so the new policy
     inherits the blacklist. *)
  let current_eff = ref None in
  let notify_capacity eff =
    current_eff := Some eff;
    r.sched.sf_on_capacity eff
  in

  let servers =
    Array.init n (fun i ->
        make_server ~discipline:cfg.discipline ~engine ~store:r.store
          ~speed:cfg.speeds.(i) ~on_departure:(depart r i))
  in
  r.servers <- servers;
  (match on_tick with
  | None -> ()
  | Some (period, f) ->
    if period <= 0.0 then invalid_arg "Simulation.run: on_tick period <= 0";
    ignore
      (Engine.every engine ~period (fun e ->
           let queues =
             Array.map (fun s -> s.Q.Server_intf.in_system ()) servers
           in
           f ~time:(Engine.now e) ~queues)));
  (* Progress reporting rides the same periodic-event mechanism as
     [on_tick]: it adds heartbeat events (so [events_executed] grows) but
     never draws randomness, so metrics and completion order are
     unchanged. *)
  (match on_progress with
  | None -> ()
  | Some (period, f) ->
    if period <= 0.0 then invalid_arg "Simulation.run: on_progress period <= 0";
    ignore
      (Engine.every engine ~period (fun e ->
           f
             {
               sim_time = Engine.now e;
               arrivals = r.arrivals;
               completions = r.completions;
               measured = Collector.jobs_measured collector;
               events = Engine.events_executed e;
             })));

  (* Fault engine: per-computer alternating up/down renewal processes.
     Each (process, target) pair runs its own cycle off the dedicated
     fault stream; overlapping events compose by multiplying degrade
     factors.  Nothing here executes — or is even scheduled — for a
     zero-fault plan, so such runs are bit-identical to the plain
     simulator. *)
  let fault_finalize =
    match cfg.faults with
    | None -> None
    | Some plan when Fault.is_none plan -> None
    | Some plan ->
      Fault.validate plan ~n;
      let rate = Array.make n 1.0 in
      let factors = Array.make n [] in
      let failures = ref 0 in
      let lost = ref 0 in
      let last_change = Array.make n 0.0 in
      let lost_capacity = Array.make n 0.0 in
      (* Accrue capacity lost since the last rate change, clipped to the
         measurement window. *)
      let flush i =
        let now = Engine.now engine in
        let from = max last_change.(i) cfg.warmup in
        if now > from then
          lost_capacity.(i) <- lost_capacity.(i) +. ((now -. from) *. (1.0 -. rate.(i)));
        last_change.(i) <- now
      in
      let effective () = Array.mapi (fun i s -> s *. rate.(i)) cfg.speeds in
      let handle_drained slot =
        r.sched.sf_on_drained slot;
        match plan.Fault.on_failure with
        | Fault.Drop ->
          (match san with Some s -> Sanitize.on_drop s | None -> ());
          (match hooks with Some h -> hook_drop r h slot | None -> ());
          if Q.Job_store.arrival r.store slot >= cfg.warmup then incr lost;
          Q.Job_store.release r.store slot
        | Fault.Requeue ->
          (* Re-dispatched like a fresh arrival (after the blacklist
             update, so it avoids the failed computer) but not counted
             as one: dispatch fractions keep original-dispatch
             semantics.  The job restarts from scratch — no
             checkpointing. *)
          let target = r.sched.sf_select slot in
          Q.Job_store.set_computer r.store slot target;
          servers.(target).Q.Server_intf.submit slot
        | Fault.Resume -> ()
      in
      let apply_change i new_rate =
        if not (Float.equal new_rate rate.(i)) then begin
          let was_up = rate.(i) > 0.0 in
          flush i;
          rate.(i) <- new_rate;
          servers.(i).Q.Server_intf.set_rate new_rate;
          (match on_rate_change with
          | Some f -> f ~time:(Engine.now engine) ~computer:i ~rate:new_rate
          | None -> ());
          let crashed = was_up && new_rate <= 0.0 in
          if crashed then incr failures;
          if plan.Fault.reaction = Fault.Blacklist then notify_capacity (effective ());
          if crashed && plan.Fault.on_failure <> Fault.Resume then
            List.iter handle_drained (servers.(i).Q.Server_intf.drain ())
        end
      in
      let recompute_rate i =
        List.fold_left (fun acc f -> acc *. f) 1.0 factors.(i)
      in
      let rec remove_first x = function
        | [] -> []
        | y :: rest -> if Float.equal y x then rest else y :: remove_first x rest
      in
      List.iter
        (fun (p : Fault.process) ->
          let targets =
            match p.Fault.computers with
            | Some l -> l
            | None -> List.init n (fun i -> i)
          in
          List.iter
            (fun i ->
              let rec up () =
                let dt = Distribution.sample p.Fault.uptime fault_rng in
                ignore (Engine.schedule engine ~delay:dt (fun _ -> down ()))
              and down () =
                factors.(i) <- p.Fault.degrade :: factors.(i);
                apply_change i (recompute_rate i);
                let dt = Distribution.sample p.Fault.downtime fault_rng in
                ignore (Engine.schedule engine ~delay:dt (fun _ -> recover ()))
              and recover () =
                factors.(i) <- remove_first p.Fault.degrade factors.(i);
                apply_change i (recompute_rate i);
                up ()
              in
              up ())
            targets)
        plan.Fault.processes;
      Some
        (fun () ->
          Array.iteri (fun i _ -> flush i) rate;
          (* Window end = the clock, which one-shot runs have advanced
             exactly to the horizon by finalize time. *)
          let window = Engine.now engine -. cfg.warmup in
          let weighted = ref 0.0 in
          Array.iteri
            (fun i l -> weighted := !weighted +. (cfg.speeds.(i) *. l))
            lost_capacity;
          {
            Fault.availability = 1.0 -. (!weighted /. (window *. total_speed));
            failures = !failures;
            lost_jobs = !lost;
            downtime = Array.copy lost_capacity;
          })
  in

  (* Warm-up boundary: reset the per-server busy statistics. *)
  if cfg.warmup > 0.0 then
    ignore
      (Engine.schedule engine ~delay:cfg.warmup (fun _ ->
           Log.Log.debug (fun m ->
               m "warm-up boundary at t=%.0f: resetting server statistics"
                 cfg.warmup);
           Array.iter (fun s -> s.Q.Server_intf.reset_stats ()) servers));

  (match arrivals with
  | `External -> ()
  | `Workload ->
    let a =
      {
        gaps = Workload.gap_source cfg.workload ~rng:arrivals_rng;
        sizes = Workload.size_source cfg.workload ~rng:sizes_rng;
        modulation = cfg.workload.Workload.modulation;
        fire = ignore;
      }
    in
    a.fire <- (fun _ -> arrive r a);
    next_arrival r a);

  let finalize () =
    (match san with
    | Some s ->
      Sanitize.check_time s ~now:(Engine.now engine);
      Sanitize.check_conservation s
        ~in_system:(in_system r)
    | None -> ());
    Log.Log.info (fun m ->
        m "%s: %d arrivals, %d measured jobs, %d events in %.0f simulated s"
          (Scheduler.name !current_kind)
          r.arrivals
          (Collector.jobs_measured collector)
          (Engine.events_executed engine)
          (Engine.now engine));
    let per_computer =
      Array.init n (fun i ->
          {
            speed = cfg.speeds.(i);
            dispatched = r.dispatched.(i);
            completed = r.completed.(i);
            utilization = servers.(i).Q.Server_intf.utilization ();
            mean_jobs = servers.(i).Q.Server_intf.mean_in_system ();
          })
    in
    let fault_summary = Option.map (fun f -> f ()) fault_finalize in
    (* Measurement window ends at the clock: one-shot runs are at the
       horizon here, a drained driver at its final virtual time. *)
    let window = Engine.now engine -. cfg.warmup in
    let goodput =
      if window > 0.0 then
        float_of_int (Collector.jobs_measured collector) /. window
      else 0.0
    in
    let availability, lost_jobs =
      match fault_summary with
      | None -> (1.0, 0)
      | Some s -> (s.Fault.availability, s.Fault.lost_jobs)
    in
    let metrics =
      match Collector.metrics ~availability ~goodput ~lost_jobs collector with
      | Ok m -> m
      | Error `No_jobs_measured ->
        invalid_arg
          "Simulation.run: no job completed within the measurement window; \
           lengthen the horizon or shorten the warm-up"
    in
    let rr_hist = Collector.response_ratio_histogram collector in
    {
      scheduler_name = Scheduler.name !current_kind;
      metrics;
      median_response_ratio = Statsched_obs.Hdr_histogram.quantile rr_hist 0.5;
      p99_response_ratio = Statsched_obs.Hdr_histogram.quantile rr_hist 0.99;
      response_time_histogram = Collector.response_time_histogram collector;
      response_ratio_histogram = rr_hist;
      per_computer;
      dispatch_fractions = Core.Metrics.actual_fractions r.dispatched;
      intended_fractions = r.sched.sf_intended ();
      offered_utilization = rho;
      total_arrivals = r.arrivals;
      events_executed = Engine.events_executed engine;
      heap_high_water = Engine.heap_high_water engine;
      fault_summary;
    }
  in
  (* The new policy is built before the old one is torn down, so a
     construction failure leaves the old policy installed and running. *)
  let set_scheduler kind =
    let fresh = make_sched kind in
    r.sched.sf_teardown ();
    r.sched <- fresh;
    current_kind := kind;
    Option.iter fresh.sf_on_capacity !current_eff
  in
  {
    d_run = r;
    d_cfg = cfg;
    d_kind = current_kind;
    d_set_scheduler = set_scheduler;
    d_finalize = finalize;
    d_done = false;
  }

module Driver = struct
  type t = driver

  let create = create

  let check_live t what =
    if t.d_done then
      invalid_arg (Printf.sprintf "Simulation.Driver.%s: already finalized" what)

  let now t = Engine.now t.d_run.engine
  let config t = t.d_cfg
  let scheduler t = !(t.d_kind)
  let arrivals t = t.d_run.arrivals
  let completions t = t.d_run.completions
  let measured t = Collector.jobs_measured t.d_run.collector
  let in_system t = in_system t.d_run

  let advance t ~to_ =
    check_live t "advance";
    if Float.is_nan to_ then invalid_arg "Simulation.Driver.advance: NaN time";
    if to_ > now t then Engine.run ~until:to_ t.d_run.engine

  let submit t ~size =
    check_live t "submit";
    if not (size > 0.0) then invalid_arg "Simulation.Driver.submit: size <= 0";
    inject t.d_run ~size

  let set_scheduler t kind =
    check_live t "set_scheduler";
    t.d_set_scheduler kind

  let drain t =
    check_live t "drain";
    (* Step (rather than run-to-empty): periodic activities such as a
       stale-least-load poller reschedule themselves forever, so the
       event queue never empties — but every in-flight job has a pending
       departure, so stepping until the system is empty terminates. *)
    while in_system t > 0 && Engine.step t.d_run.engine do
      ()
    done

  let finalize t =
    check_live t "finalize";
    t.d_done <- true;
    t.d_finalize ()
end

let run ?sanitize ?hooks_retain_jobs ?metric_histograms ?on_engine ?on_dispatch
    ?on_completion ?on_tick ?on_drop ?on_rate_change ?on_progress cfg =
  let d =
    create ?sanitize ?hooks_retain_jobs ?metric_histograms ?on_engine
      ?on_dispatch ?on_completion ?on_tick ?on_drop ?on_rate_change ?on_progress
      ~arrivals:`Workload cfg
  in
  Driver.advance d ~to_:cfg.horizon;
  Driver.finalize d
