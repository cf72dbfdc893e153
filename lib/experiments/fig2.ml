module Rng = Statsched_prng.Rng
module Dist = Statsched_dist
module Stats = Statsched_stats
module Core = Statsched_core
module Cluster = Statsched_cluster
module Par = Statsched_par.Par

let fractions = [| 0.35; 0.22; 0.15; 0.12; 0.04; 0.04; 0.04; 0.04 |]

type result = {
  round_robin : float array;
  random : float array;
  round_robin_summary : Stats.Summary.t;
  random_summary : Stats.Summary.t;
}

let run_dispatcher ?(seed = Config.default_seed) ?(n_intervals = 30)
    ?(interval_length = 120.0) ?(mean_interarrival = 2.2) ?(arrival_cv = 3.0)
    dispatcher =
  let arrivals_rng = Rng.create ~seed () in
  (* [fit_cv] returns the plain exponential at cv = 1 exactly. *)
  let interarrival = Dist.Hyperexponential.fit_cv ~mean:mean_interarrival ~cv:arrival_cv in
  let stats =
    Cluster.Interval_stats.create
      ~expected:(Core.Dispatch.fractions dispatcher)
      ~start:0.0 ~interval:interval_length ~n_intervals
  in
  let horizon = float_of_int n_intervals *. interval_length in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Dist.Distribution.sample interarrival arrivals_rng;
    if !t >= horizon then continue := false
    else begin
      let computer = Core.Dispatch.select dispatcher in
      Cluster.Interval_stats.record stats ~time:!t ~computer
    end
  done;
  Cluster.Interval_stats.deviations stats

let run ?(seed = Config.default_seed) ?jobs ?n_intervals ?interval_length
    ?mean_interarrival ?arrival_cv () =
  (* Both dispatchers see the identical arrival stream (same seed):
     common random numbers, as in the paper's comparison.  Each pass
     builds its own RNGs from fixed seeds, so the two passes are
     independent and can run on two domains. *)
  let pass k =
    if k = 0 then
      run_dispatcher ~seed ?n_intervals ?interval_length ?mean_interarrival
        ?arrival_cv
        (Core.Dispatch.round_robin fractions)
    else begin
      let rand_rng = Rng.create ~seed:(Int64.add seed 1L) () in
      run_dispatcher ~seed ?n_intervals ?interval_length ?mean_interarrival
        ?arrival_cv
        (Core.Dispatch.random ~rng:rand_rng fractions)
    end
  in
  match Par.map ?jobs 2 pass with
  | [ rr; random ] ->
    {
      round_robin = rr;
      random;
      round_robin_summary = Stats.Summary.of_array rr;
      random_summary = Stats.Summary.of_array random;
    }
  | _ -> assert false

let to_report r =
  let open Report in
  let rows =
    List.init (Array.length r.round_robin) (fun i ->
        [ Int (i + 1); Float r.round_robin.(i); Float r.random.(i) ])
  in
  let table = render ~header:[ "interval"; "round-robin"; "random" ] ~rows in
  Format.asprintf "%s\nround-robin: %a\nrandom:      %a\n" table
    Stats.Summary.pp r.round_robin_summary Stats.Summary.pp r.random_summary

(* ------------------------------------------------------------------ *)
(* Deviation studies of Algorithm 2                                    *)

let mean_deviation ~seed ?interval_length ?n_intervals dispatcher =
  (Stats.Summary.of_array
     (run_dispatcher ~seed ?interval_length ?n_intervals dispatcher))
    .Stats.Summary.mean

type dispatch_row = {
  dispatcher : string;
  mean_deviation : float;
}

let dispatch_smoothness ?(seed = Config.default_seed) () =
  List.map
    (fun (dispatcher, make) ->
      { dispatcher; mean_deviation = mean_deviation ~seed (make fractions) })
    [
      ("Algorithm 2 (paper)", Core.Dispatch.round_robin);
      ("no first-assignment guard", Core.Dispatch.round_robin_no_guard);
      ("index tie-breaking", Core.Dispatch.round_robin_index_ties);
      ("smooth WRR (nginx)", Core.Dispatch.smooth_weighted);
      ("golden-ratio quasi-random", Core.Dispatch.golden_ratio);
      ( "random",
        fun f -> Core.Dispatch.random ~rng:(Rng.create ~seed:(Int64.add seed 11L) ()) f );
      ( "random (alias method)",
        fun f ->
          Core.Dispatch.random_alias ~rng:(Rng.create ~seed:(Int64.add seed 12L) ()) f );
    ]

let dispatch_smoothness_report rows =
  Report.render
    ~header:[ "dispatcher"; "mean interval deviation" ]
    ~rows:
      (List.map
         (fun r -> [ Report.Text r.dispatcher; Report.Float r.mean_deviation ])
         rows)

type interval_row = {
  interval_length : float;
  round_robin_deviation : float;
  random_deviation : float;
}

let interval_lengths ?(seed = Config.default_seed) () =
  List.map
    (fun interval_length ->
      let n_intervals = int_of_float (3600.0 /. interval_length) in
      let dev = mean_deviation ~seed ~interval_length ~n_intervals in
      {
        interval_length;
        round_robin_deviation = dev (Core.Dispatch.round_robin fractions);
        random_deviation =
          dev
            (Core.Dispatch.random
               ~rng:(Rng.create ~seed:(Int64.add seed 13L) ())
               fractions);
      })
    [ 30.0; 60.0; 120.0; 240.0; 480.0 ]

let interval_lengths_report rows =
  Report.render
    ~header:[ "interval (s)"; "round-robin"; "random" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Report.Float r.interval_length;
             Report.Float r.round_robin_deviation;
             Report.Float r.random_deviation;
           ])
         rows)
