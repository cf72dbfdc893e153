module Core = Statsched_core
module Cluster = Statsched_cluster
module Dist = Statsched_dist
module E = Statsched_experiments

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)

let scheduler_of_name ?d name =
  match Cluster.Scheduler.of_name ?d name with
  | Ok kind -> kind
  | Error msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* Disciplines                                                         *)

let discipline_to_string = function
  | Cluster.Simulation.Ps -> "ps"
  | Cluster.Simulation.Fcfs -> "fcfs"
  | Cluster.Simulation.Srpt -> "srpt"
  | Cluster.Simulation.Rr q -> Printf.sprintf "rr:%g" q

let discipline_of_string s =
  match s with
  | "ps" -> Some Cluster.Simulation.Ps
  | "fcfs" -> Some Cluster.Simulation.Fcfs
  | "srpt" -> Some Cluster.Simulation.Srpt
  | _ -> (
    match String.split_on_char ':' s with
    | [ "rr"; q ] -> (
      match float_of_string_opt q with
      | Some q when q > 0.0 -> Some (Cluster.Simulation.Rr q)
      | _ -> None)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Size distributions                                                  *)

type size_dist =
  | Exp
  | Bp_paper
  | Weibull of float  (* shape *)
  | Lognormal of float  (* cv *)
  | Erlang of int  (* stages *)
  | Hyperexp of float  (* cv *)
  | Det

let size_dist_to_string = function
  | Exp -> "exp"
  | Bp_paper -> "bp"
  | Weibull k -> Printf.sprintf "weibull:%g" k
  | Lognormal cv -> Printf.sprintf "lognormal:%g" cv
  | Erlang k -> Printf.sprintf "erlang:%d" k
  | Hyperexp cv -> Printf.sprintf "hyperexp:%g" cv
  | Det -> "det"

let size_dist_of_string s =
  match s with
  | "exp" -> Some Exp
  | "bp" -> Some Bp_paper
  | "det" -> Some Det
  | _ -> (
    match String.split_on_char ':' s with
    | [ "weibull"; k ] -> (
      match float_of_string_opt k with
      | Some k when k > 0.0 -> Some (Weibull k)
      | _ -> None)
    | [ "lognormal"; cv ] -> (
      match float_of_string_opt cv with
      | Some cv when cv > 0.0 -> Some (Lognormal cv)
      | _ -> None)
    | [ "erlang"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Some (Erlang k)
      | _ -> None)
    | [ "hyperexp"; cv ] -> (
      match float_of_string_opt cv with
      | Some cv when cv >= 1.0 -> Some (Hyperexp cv)
      | _ -> None)
    | _ -> None)

let size_distribution ~mean = function
  | Exp -> Dist.Exponential.of_mean mean
  | Bp_paper -> Dist.Bounded_pareto.create_paper_default ()
  | Weibull shape ->
    (* E[X] = scale·Γ(1 + 1/shape); invert for the scale hitting [mean]. *)
    Dist.Weibull.create ~shape ~scale:(mean /. Dist.Special.gamma (1.0 +. (1.0 /. shape)))
  | Lognormal cv -> Dist.Lognormal.of_mean_cv ~mean ~cv
  | Erlang k -> Dist.Erlang.of_mean_cv ~mean ~cv:(1.0 /. sqrt (float_of_int k))
  | Hyperexp cv ->
    if cv <= 1.0 then Dist.Exponential.of_mean mean
    else Dist.Hyperexponential.fit_cv ~mean ~cv
  | Det -> Dist.Deterministic.create mean

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

type faults = {
  mtbf : float;
  mttr : float;
  on_failure : Cluster.Fault.on_failure;
}

type t = {
  speeds : float array;
  rho : float;
  policy : string;
  d : int;  (** sample size for jsq-d / two-choices; ignored otherwise *)
  discipline : Cluster.Simulation.discipline;
  arrival_cv : float;
  size : size_dist;
  mean_size : float;
  faults : faults option;
  seed : int64;
}

let v ?(discipline = Cluster.Simulation.Ps) ?(arrival_cv = 1.0) ?(size = Exp)
    ?(mean_size = 1.0) ?faults ?(seed = 1L) ?(d = 2) ~speeds ~rho ~policy () =
  (* SITA's size cutoffs are quantiles of the paper's bounded Pareto:
     under any other size distribution nearly every job falls in one
     interval and lands on one computer. *)
  (match size with
  | Bp_paper -> ()
  | Exp | Weibull _ | Lognormal _ | Erlang _ | Hyperexp _ | Det ->
    if String.equal policy "sita" then
      invalid_arg
        (Printf.sprintf
           "policy sita needs size distribution bp: its cutoffs are the \
            paper's bounded-Pareto quantiles (got %s)"
           (size_dist_to_string size)));
  { speeds; rho; policy; d; discipline; arrival_cv; size; mean_size; faults; seed }

let workload t =
  Cluster.Workload.with_size ~rho:t.rho ~arrival_cv:t.arrival_cv
    ~size:(size_distribution ~mean:t.mean_size t.size)
    t.speeds

let fault_plan t =
  Option.map
    (fun f ->
      Cluster.Fault.exponential ~on_failure:f.on_failure ~mtbf:f.mtbf
        ~mttr:f.mttr ())
    t.faults

let spec t =
  E.Runner.make_spec ~discipline:t.discipline ?faults:(fault_plan t)
    ~speeds:t.speeds ~workload:(workload t)
    ~scheduler:(scheduler_of_name ~d:t.d t.policy) ()

let to_run_command ?scale ?horizon ?warmup t =
  let b = Buffer.create 128 in
  Buffer.add_string b "schedsim run";
  Printf.bprintf b " -s %s" (Core.Speeds.to_string t.speeds);
  Printf.bprintf b " -u %g" t.rho;
  Printf.bprintf b " -p %s" t.policy;
  if t.d <> 2 then Printf.bprintf b " --d %d" t.d;
  Printf.bprintf b " --discipline %s" (discipline_to_string t.discipline);
  Printf.bprintf b " --arrival-cv %g" t.arrival_cv;
  Printf.bprintf b " --size-dist %s" (size_dist_to_string t.size);
  Printf.bprintf b " --mean-size %g" t.mean_size;
  Printf.bprintf b " --seed %Ld" t.seed;
  (match scale with
  | None -> ()
  | Some s -> Printf.bprintf b " --scale %s" (E.Config.scale_name s));
  (match horizon with
  | None -> ()
  | Some h -> Printf.bprintf b " --horizon %g" h);
  (match warmup with
  | None -> ()
  | Some w -> Printf.bprintf b " --warmup %g" w);
  (match t.faults with
  | None -> ()
  | Some f ->
    Printf.bprintf b " --mtbf %g --mttr %g --on-failure %s" f.mtbf f.mttr
      (Cluster.Fault.on_failure_name f.on_failure));
  Buffer.add_string b " --sanitize";
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_run_command t)
