module Dist = Statsched_dist

type kind =
  | Static of Statsched_core.Policy.t
  | Static_custom of {
      label : string;
      make : rho:float -> speeds:float array -> rng:Statsched_prng.Rng.t ->
        Statsched_core.Dispatch.t;
    }
  | Least_load of {
      detection : Dist.Distribution.t;
      message_delay : Dist.Distribution.t;
      random_ties : bool;
      probe : int option;
    }
  | Sita of {
      params : Dist.Bounded_pareto.params;
      small_to : [ `Fast | `Slow ];
    }
  | Stale_least_load of { poll_period : float; count_in_flight : bool }
  | Jsq of { d : int; weighted : bool }
  | Jiq
  | Adaptive of {
      period : float;
      initial_rho : float;
      safety : float;
      windowed : bool;
      dispatching : Statsched_core.Policy.dispatch_strategy;
    }

let static p = Static p

let sita_paper ?(small_to = `Fast) () =
  Sita { params = Dist.Bounded_pareto.paper_default; small_to }

let stale_least_load ?(count_in_flight = true) ~poll_period () =
  if poll_period <= 0.0 then invalid_arg "Scheduler.stale_least_load: poll_period <= 0";
  Stale_least_load { poll_period; count_in_flight }

let adaptive_orr ?(period = 10_000.0) ?(initial_rho = 0.5) ?(safety = 1.05)
    ?(windowed = false) () =
  if period <= 0.0 then invalid_arg "Scheduler.adaptive_orr: period <= 0";
  if not (0.0 < initial_rho && initial_rho < 1.0) then
    invalid_arg "Scheduler.adaptive_orr: initial_rho outside (0,1)";
  if safety <= 0.0 then invalid_arg "Scheduler.adaptive_orr: safety <= 0";
  Adaptive
    {
      period;
      initial_rho;
      safety;
      windowed;
      dispatching = Statsched_core.Policy.Round_robin;
    }

let paper_delays =
  ( Dist.Uniform_dist.create ~a:0.0 ~b:1.0,
    Dist.Exponential.of_mean 0.05 )

let least_load_paper =
  let detection, message_delay = paper_delays in
  Least_load { detection; message_delay; random_ties = true; probe = None }

let least_load_instant =
  Least_load
    {
      detection = Dist.Deterministic.create 0.0;
      message_delay = Dist.Deterministic.create 0.0;
      random_ties = true;
      probe = None;
    }

let jsq ?(d = 2) ?(weighted = true) () =
  if d < 1 then invalid_arg "Scheduler.jsq: d < 1";
  Jsq { d; weighted }

let jiq = Jiq

let two_choices ?(d = 2) () =
  if d < 1 then invalid_arg "Scheduler.two_choices: d < 1";
  let detection, message_delay = paper_delays in
  Least_load { detection; message_delay; random_ties = true; probe = Some d }

let name = function
  | Static p -> Statsched_core.Policy.name p
  | Static_custom { label; _ } -> label
  | Least_load { detection; message_delay; probe; _ } ->
    let base =
      match probe with
      | Some d -> Printf.sprintf "LeastLoad(d=%d)" d
      | None -> "LeastLoad"
    in
    if
      (* Means are non-negative, so <= 0 is the exact-zero test. *)
      Dist.Distribution.mean detection <= 0.0
      && Dist.Distribution.mean message_delay <= 0.0
    then base ^ "(instant)"
    else base
  | Sita { small_to; _ } ->
    Printf.sprintf "SITA-E(small->%s)"
      (match small_to with `Fast -> "fast" | `Slow -> "slow")
  | Stale_least_load { poll_period; count_in_flight } ->
    Printf.sprintf "StaleLeastLoad(T=%g%s)" poll_period
      (if count_in_flight then "" else ",blind")
  | Jsq { d; weighted } ->
    Printf.sprintf "JSQ(d=%d%s)" d (if weighted then "" else ",uniform")
  | Jiq -> "JIQ"
  | Adaptive { period; dispatching; windowed; _ } ->
    let d =
      match dispatching with
      | Statsched_core.Policy.Round_robin -> "ORR"
      | Statsched_core.Policy.Random -> "ORAN"
    in
    Printf.sprintf "Adaptive%s(T=%g%s)" d period (if windowed then ",window" else "")

let names =
  [ "wran"; "oran"; "wrr"; "orr"; "least-load"; "two-choices"; "adaptive-orr";
    "sita"; "jsq-d"; "jsq-d-uniform"; "jiq" ]

let of_name ?(d = 2) name =
  let parse d = function
    | "wran" -> Ok (static Statsched_core.Policy.wran)
    | "oran" -> Ok (static Statsched_core.Policy.oran)
    | "wrr" -> Ok (static Statsched_core.Policy.wrr)
    | "orr" -> Ok (static Statsched_core.Policy.orr)
    | "least-load" -> Ok least_load_paper
    | "two-choices" -> Ok (two_choices ~d ())
    | "adaptive-orr" -> Ok (adaptive_orr ())
    | "sita" -> Ok (sita_paper ())
    | "jsq-d" -> Ok (jsq ~d ())
    (* The pre-weighting uniform probe sampler, kept addressable so
       recorded runs from before speed-weighted probing still replay. *)
    | "jsq-d-uniform" -> Ok (jsq ~d ~weighted:false ())
    | "jiq" -> Ok jiq
    | s ->
      Error (Printf.sprintf "unknown policy %S (known: %s)" s (String.concat ", " names))
  in
  match String.index_opt name ':' with
  | None -> parse d name
  | Some i -> (
    let suffix = String.sub name (i + 1) (String.length name - i - 1) in
    match int_of_string_opt suffix with
    | Some d when d >= 1 -> parse d (String.sub name 0 i)
    | Some _ | None ->
      Error (Printf.sprintf "bad probe count %S (want a positive int)" suffix))
