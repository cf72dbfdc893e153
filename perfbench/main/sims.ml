(* The batch-simulation workloads: the paper's base point and the
   n = 10⁴ many-server cell. *)

module C = Statsched_cluster
module Sim = C.Simulation
module Core = Statsched_core
module E = Statsched_experiments
module Pstats = Perfbench_lib.Pstats
module R = Perfbench_lib.Result
module Spans = Perfbench_lib.Spans

type spec = {
  name : string;
  speeds : float array;
  workload : C.Workload.t;
  scheduler : C.Scheduler.kind;
  horizon : float;
  warmup : float;
  domains : int;  (** replications per batch, one domain each *)
  fresh_heap : bool;
      (** start each unit of work from a compacted heap, as in a fresh
          process: the n = 10⁴ runs leave ~100 MB of garbage each, which
          otherwise slows the later units of a run *)
  policy : string;  (** the scheduler by its [schedsimd] name *)
}

let nproc = Domain.recommended_domain_count ()

let spec = function
  | "table3-orr" ->
    let speeds = Core.Speeds.table3 in
    {
      name = "table3-orr";
      speeds;
      workload = C.Workload.paper_default ~rho:0.7 ~speeds;
      scheduler = C.Scheduler.static Core.Policy.orr;
      horizon = Sim.paper_horizon;
      warmup = Sim.paper_warmup;
      domains = nproc;
      fresh_heap = false;
      policy = "orr";
    }
  | "n10k-jsq" ->
    let n = 10_000 in
    let speeds = E.Ext_scale.speeds_for n in
    let workload = C.Workload.paper_default ~rho:0.7 ~speeds in
    (* 5·10⁵ jobs a run, so that a run of the benchmark holds several
       and its median is steady on a noisy machine. *)
    let horizon = 5e5 /. C.Workload.arrival_rate workload in
    {
      name = "n10k-jsq";
      speeds;
      workload;
      scheduler = C.Scheduler.jsq ~d:n ();
      horizon;
      warmup = 0.1 *. horizon;
      domains = 1;
      fresh_heap = true;
      policy = Printf.sprintf "jsq-d:%d" n;
    }
  | w -> invalid_arg ("Sims.spec: " ^ w)

let config spec ~seed ~replication =
  Sim.default_config ~horizon:spec.horizon ~warmup:spec.warmup ~seed ~replication
    ~speeds:spec.speeds ~workload:spec.workload ~scheduler:spec.scheduler ()

(* Each batch of a run gets its own seed, derived from the run's. *)
let batch_seed seed b = Int64.(add (mul (of_int seed) 1_000_003L) (of_int b))

(* One unit of user work: [domains] replications through [Runner]
   ([Simulation.run] itself when there is one domain). *)
let unit_of_work spec ~seed =
  if spec.domains = 1 then [ Sim.run (config spec ~seed ~replication:0) ]
  else
    E.Runner.replicate ~seed ~jobs:spec.domains
      ~scale:{ E.Config.horizon = spec.horizon; warmup = spec.warmup; reps = spec.domains }
      (E.Runner.make_spec ~speeds:spec.speeds ~workload:spec.workload ~scheduler:spec.scheduler ())

let setup_reps spec = if Array.length spec.speeds > 1000 then 31 else 1001

(* Median [Driver.create] time: validation, Algorithm 1, servers, trees. *)
let setup_s spec ~seed =
  let cfg = config spec ~seed ~replication:0 in
  let t = Util.median_time ~reps:(setup_reps spec) (fun () -> Sim.Driver.create cfg) in
  Gc.compact ();
  t

let end_to_end (env : Served.env) res spec =
  let setup = setup_s spec ~seed:(batch_seed env.Served.seed 0) in
  let walls = Util.Fbuf.create () and rates = Util.Fbuf.create () in
  let start = Util.now () in
  let b = ref 0 and last = ref (0L, []) in
  while !b < 2 || Util.now () -. start < env.Served.seconds do
    let seed = batch_seed env.Served.seed !b in
    if spec.fresh_heap then Gc.compact ();
    let rs, wall = Util.time (fun () -> unit_of_work spec ~seed) in
    let jobs = List.fold_left (fun a r -> a + r.Sim.total_arrivals) 0 rs in
    Util.Fbuf.push rates (float_of_int jobs /. wall);
    Util.Fbuf.push walls wall;
    last := (seed, rs);
    incr b
  done;
  let hwm = Util.vm_hwm_mb () in
  (* Outside the timed window: the last batch's last replication again,
     on this domain alone and with the stream recorders on.  It must
     reproduce the batch bit for bit, and its stream must satisfy Little's
     law on every computer. *)
  let seed, rs = !last in
  let k = List.length rs - 1 in
  let cfg = config spec ~seed ~replication:k in
  let on_dispatch, on_completion, finish = Layers.recorder cfg in
  let again = Sim.run ~hooks_retain_jobs:false ~on_dispatch ~on_completion cfg in
  R.check res
    (String.equal (Layers.fingerprint again) (Layers.fingerprint (List.nth rs k)))
    "the batch differs from the same replication rerun on one domain with recorders";
  Layers.littles_law res (finish ()) again;
  let walls = Util.Fbuf.contents walls in
  let tail = Pstats.tail walls in
  let unit_, units = if spec.domains > 1 then ("batch", "batches") else ("run", "runs") in
  R.add res "jobs_per_s" "1/s" (Pstats.median (Util.Fbuf.contents rates)) ~n:(Array.length walls)
    ~note:("jobs simulated per second, median over " ^ units);
  R.add res "setup_s" "s" setup ~n:(setup_reps spec) ~note:"Simulation.Driver.create";
  R.add res "peak_rss_mb" "MiB" hwm ~note:"VmHWM";
  R.add res "unit_wall_p50_ms" "ms" (1e3 *. Pstats.median walls) ~n:(Array.length walls)
    ~note:("wall of one " ^ unit_);
  R.add res "unit_wall_tail_ms" "ms" (1e3 *. tail.Pstats.value) ~n:tail.Pstats.n
    ~note:("wall of one " ^ unit_ ^ ", " ^ tail.Pstats.label)

(* Replications over [domains] domains through [Par.map], each timed:
   speed-up = sum of replication walls / batch wall; tail idle = share of
   domain-time idle while the batch waited for its slowest replication. *)
let par spans ~parent spec ~seed =
  let d = spec.domains in
  let walls, batch =
    Util.spanned spans ~parent "par.batch" (fun () ->
        Statsched_par.Par.map_array ~jobs:d d (fun k ->
            snd (Util.time (fun () -> Sim.run (config spec ~seed ~replication:k)))))
  in
  let busy = Pstats.sum walls in
  (busy /. batch, 1.0 -. (busy /. (float_of_int d *. batch)))

let layer_prefix = 400_000

let traced (env : Served.env) res spec =
  let spans = env.Served.spans in
  let root = Spans.open_ spans "run" ~now:(Util.now ()) in
  let seed = batch_seed env.Served.seed 0 in
  let cfg = config spec ~seed ~replication:0 in
  (* The untraced replication, with GC counters. *)
  let g0 = Util.gc () in
  let plain, t_plain = Util.spanned spans ~parent:root "sim.run" (fun () -> Sim.run cfg) in
  let g1 = Util.gc () in
  let jobs = plain.Sim.total_arrivals in
  let per_job x = x /. float_of_int jobs in
  (* The same replication with the stream recorders on. *)
  let on_dispatch, on_completion, finish = Layers.recorder cfg in
  let recorded, t_rec =
    Util.spanned spans ~parent:root "sim.run.recorded" (fun () ->
        Sim.run ~hooks_retain_jobs:false ~on_dispatch ~on_completion cfg)
  in
  let stream = finish () in
  R.check res
    (String.equal (Layers.fingerprint recorded) (Layers.fingerprint plain))
    "recording hooks changed the run";
  Layers.littles_law res stream plain;
  (* The recorded arrivals through the External driver. *)
  let rp = Layers.external_replay spans ~parent:root stream in
  R.check res rp.Layers.same_decisions "External replay made other dispatch decisions";
  R.check res
    (String.equal (Layers.fingerprint ~engine:false rp.Layers.replayed)
       (Layers.fingerprint ~engine:false plain))
    "External replay does not reproduce the run's metrics";
  let create_ms = 1e3 *. Util.median_time ~reps:(setup_reps spec) (fun () -> Sim.Driver.create cfg) in
  let h =
    Layers.emit res spans ~parent:root (Layers.prefix stream layer_prefix) ~source:Batch ~replay:rp
      ~create_ms ~swap_to:("jsq-d", spec.policy) ~e2e_ns:(fun _ -> 1e9 *. per_job t_plain)
  in
  let speedup, tail_idle =
    if spec.domains > 1 then par spans ~parent:root spec ~seed else (1.0, 0.0)
  in
  (* The HTTP layer on this cluster: a short served session, not drained
     (draining is checked on the served workloads). *)
  let rate = 200.0 in
  let served =
    Served.run ~drain:false env res ~tag:(spec.name ^ "-http") ~speeds:(Core.Speeds.to_string spec.speeds)
      ~policy:spec.policy ~time_scale:(rate /. C.Workload.arrival_rate spec.workload) ~probes:0
      {
        Session.steps = [ { Perfbench_lib.Schedule.rate; seconds = 2.0 } ];
        closed_seconds = 0.0;
        closed_size_scale = 1.0;
        scrape_period = 0.25;
        swap_period = 1.0;
        swap_to = ("jsq-d", spec.policy);
        silent_at = [];
      }
  in
  Session.to_spans spans served.Served.session;
  Daemons.http_layers res served ~ladder:[||] ~handle_post:(1e-6 *. h.Layers.post_us);
  Spans.finish spans root ~now:(Util.now ());
  let add = R.add res in
  add "des.events_per_job" "count" (float_of_int plain.Sim.events_executed /. float_of_int jobs);
  add "des.events_per_s" "1/s" (float_of_int plain.Sim.events_executed /. t_plain);
  add "des.heap_high_water" "count" (float_of_int plain.Sim.heap_high_water);
  add "par.speedup" "ratio" speedup;
  add "par.tail_idle_frac" "ratio" tail_idle;
  Util.add_gc res ~jobs g0 g1;
  add "trace.overhead_ratio" "ratio" (t_rec /. t_plain) ~note:"recorded run / plain run"
