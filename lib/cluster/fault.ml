module Dist = Statsched_dist
module Distribution = Dist.Distribution

type on_failure = Drop | Requeue | Resume

type reaction = Oblivious | Blacklist

type process = {
  computers : int list option;
  uptime : Distribution.t;
  downtime : Distribution.t;
  degrade : float;
}

type plan = {
  processes : process list;
  on_failure : on_failure;
  reaction : reaction;
}

type summary = {
  availability : float;
  failures : int;
  lost_jobs : int;
  downtime : float array;
}

let process ?computers ?(degrade = 0.0) ~uptime ~downtime () =
  if not (0.0 <= degrade && degrade < 1.0) then
    invalid_arg "Fault.process: degrade outside [0,1)";
  if Distribution.mean uptime <= 0.0 then
    invalid_arg "Fault.process: uptime mean <= 0";
  if Distribution.mean downtime <= 0.0 then
    invalid_arg "Fault.process: downtime mean <= 0";
  (match computers with
  | Some [] -> invalid_arg "Fault.process: empty computer list"
  | Some l ->
    List.iter (fun i -> if i < 0 then invalid_arg "Fault.process: negative computer index") l
  | None -> ());
  { computers; uptime; downtime; degrade }

let crashes ?computers ~mtbf ~mttr () =
  if mtbf <= 0.0 then invalid_arg "Fault.crashes: mtbf <= 0";
  if mttr <= 0.0 then invalid_arg "Fault.crashes: mttr <= 0";
  process ?computers
    ~uptime:(Dist.Exponential.of_mean mtbf)
    ~downtime:(Dist.Exponential.of_mean mttr)
    ()

let periodic ?computers ?degrade ~every ~duration () =
  if every <= 0.0 then invalid_arg "Fault.periodic: every <= 0";
  if duration <= 0.0 then invalid_arg "Fault.periodic: duration <= 0";
  process ?computers ?degrade
    ~uptime:(Dist.Deterministic.create every)
    ~downtime:(Dist.Deterministic.create duration)
    ()

let plan ?(on_failure = Requeue) ?(reaction = Blacklist) processes =
  { processes; on_failure; reaction }

let none = { processes = []; on_failure = Resume; reaction = Oblivious }

let exponential ?computers ?on_failure ?reaction ~mtbf ~mttr () =
  plan ?on_failure ?reaction [ crashes ?computers ~mtbf ~mttr () ]

let is_none p = match p.processes with [] -> true | _ :: _ -> false

let validate ~n p =
  List.iter
    (fun proc ->
      match proc.computers with
      | None -> ()
      | Some l ->
        List.iter
          (fun i ->
            if i < 0 || i >= n then
              invalid_arg
                (Printf.sprintf "Fault.validate: computer %d outside [0,%d)" i n))
          l)
    p.processes

let on_failure_name = function
  | Drop -> "drop"
  | Requeue -> "requeue"
  | Resume -> "resume"

let on_failure_of_string = function
  | "drop" -> Some Drop
  | "requeue" -> Some Requeue
  | "resume" -> Some Resume
  | _ -> None
