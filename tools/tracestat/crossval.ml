module J = Statsched_obs.Journal
module Band = Statsched_simcheck.Band
module Confidence = Statsched_stats.Confidence

type report = { bands : Band.t list; notes : string list; ok : bool }

(* Two-sided 99.9 % normal quantile — matches Band's default confidence
   for the estimators whose width we compute by normal approximation
   (binomial fractions, Horvitz-Thompson totals). *)
let z999 = 3.2905

let ( let* ) = Result.bind

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "journal lacks %s" what)

let speeds_of (jf : Journal_file.t) =
  let* raw = require "meta speeds" (List.assoc_opt "speeds" jf.Journal_file.meta) in
  let parts = String.split_on_char ',' raw in
  let floats = List.filter_map float_of_string_opt parts in
  if List.length floats = List.length parts && parts <> [] then
    Ok (Array.of_list floats)
  else Error (Printf.sprintf "malformed meta speeds %S" raw)

let interval ~mean ~half_width ~n =
  { Confidence.mean; half_width; confidence = 0.999; replications = n }

let validate ?(bias = 0.02) ?(util_bias = 0.05) (jf : Journal_file.t) =
  let* speeds = speeds_of jf in
  let n = Array.length speeds in
  let* warmup = require "meta warmup" (Journal_file.meta_float jf "warmup") in
  let* horizon = require "meta horizon" (Journal_file.meta_float jf "horizon") in
  let window = horizon -. warmup in
  if not (window > 0.0) then Error "journal meta has horizon <= warmup"
  else
    let* th_rt =
      require "summary mean_response_time"
        (Journal_file.summary_float jf "mean_response_time")
    in
    let* th_rr =
      require "summary mean_response_ratio"
        (Journal_file.summary_float jf "mean_response_ratio")
    in
    (* Measured completions: same predicate as the collector
       (arrival inside the measurement window). *)
    let rts = ref [] and rrs = ref [] in
    let spans = Array.make n [] in
    let disp = Array.make n 0 in
    let disp_total = ref 0 in
    let completed_ids = Hashtbl.create 1024 in
    let dispatches = ref [] in
    Array.iter
      (fun r ->
        match r with
        | J.Completion_r { id; computer; arrival; completion; size; _ } ->
          Hashtbl.replace completed_ids id ();
          if arrival >= warmup then begin
            let rt = completion -. arrival in
            rts := rt :: !rts;
            rrs := (rt /. size) :: !rrs
          end;
          (* A work-conserving server is busy exactly when some job is in
             the system, and a job is in the system from dispatch
             (= arrival: central dispatch is instantaneous) to
             completion. *)
          if completion > warmup && computer >= 0 && computer < n then
            spans.(computer) <-
              (max arrival warmup, min completion horizon) :: spans.(computer)
        | J.Dispatch_r { id; computer; time; size = _ } ->
          dispatches := (id, computer, time) :: !dispatches;
          if time >= warmup && computer >= 0 && computer < n then begin
            disp.(computer) <- disp.(computer) + 1;
            incr disp_total
          end
        | J.Queue_r _ | J.Drop_r _ | J.Rate_r _ -> ())
      jf.Journal_file.records;
    (* Jobs dispatched but never completed were still in the system at
       the horizon: they kept their server busy from dispatch to the end
       of the run. *)
    List.iter
      (fun (id, computer, time) ->
        if
          (not (Hashtbl.mem completed_ids id))
          && computer >= 0 && computer < n && time < horizon
        then spans.(computer) <- (max time warmup, horizon) :: spans.(computer))
      !dispatches;
    let rts = Array.of_list !rts in
    let rrs = Array.of_list !rrs in
    if Array.length rts = 0 then
      Error "journal retains no measured completion records"
    else begin
      let bands = ref [] in
      let notes = ref [] in
      let add b = bands := b :: !bands in
      add (Band.of_samples ~bias ~name:"mean_response_time" ~theory:th_rt rts);
      add (Band.of_samples ~bias ~name:"mean_response_ratio" ~theory:th_rr rrs);
      (* Dispatch fractions: the kept post-warm-up dispatches are a
         systematic subsample; binomial normal approximation. *)
      if !disp_total > 0 then
        for i = 0 to n - 1 do
          match Journal_file.summary_float jf (Printf.sprintf "dispatch_fraction_%d" i) with
          | None -> ()
          | Some theory ->
            let nt = float_of_int !disp_total in
            let p = float_of_int disp.(i) /. nt in
            let half_width = z999 *. sqrt (max 0.0 (p *. (1.0 -. p)) /. nt) in
            add
              (Band.of_interval ~bias
                 ~name:(Printf.sprintf "dispatch_fraction_%d" i)
                 ~theory
                 (interval ~mean:p ~half_width ~n:!disp_total))
        done
      else notes := "no post-warm-up dispatch records retained; dispatch fractions skipped" :: !notes;
      (* Per-computer utilization, recomputed as the union of service
         spans [start, completion] clipped to the window: a work-
         conserving server is busy exactly when some job is in service,
         so with the complete completion stream the union equals its
         busy time (up to jobs still in flight at the horizon).  A
         thinned stream cannot reconstruct the union, and a faulty run
         is down part of the window — skip in both cases. *)
      let faulty = Journal_file.seen_of jf "rate" > 0 in
      if faulty then
        notes :=
          "run had fault activity; utilization cross-check skipped" :: !notes
      else if jf.Journal_file.stride > 1 then
        notes :=
          "completion records are sampled (stride > 1); utilization \
           cross-check skipped" :: !notes
      else
        for i = 0 to n - 1 do
          match Journal_file.summary_float jf (Printf.sprintf "utilization_%d" i) with
          | None -> ()
          | Some theory ->
            let sorted =
              List.sort
                (fun (a, _) (b, _) -> Float.compare a b)
                spans.(i)
            in
            let busy = ref 0.0 in
            let edge = ref warmup in
            List.iter
              (fun (s, c) ->
                let s = max s !edge in
                if c > s then begin
                  busy := !busy +. (c -. s);
                  edge := c
                end)
              sorted;
            add
              (Band.of_interval ~bias:util_bias
                 ~name:(Printf.sprintf "utilization_%d" i)
                 ~theory
                 (interval ~mean:(!busy /. window) ~half_width:0.0
                    ~n:(List.length sorted)))
        done;
      (* Availability, integrated from the rate-change records.  Only
         exact when the rate stream was never thinned. *)
      (if faulty then
         match Journal_file.summary_float jf "availability" with
         | Some theory when jf.Journal_file.stride = 1 ->
           let rate = Array.make n 1.0 in
           let since = Array.make n 0.0 in
           let lost = Array.make n 0.0 in
           let flush i until =
             let from = max since.(i) warmup in
             let until = min until horizon in
             if until > from then
               lost.(i) <- lost.(i) +. ((until -. from) *. (1.0 -. rate.(i)))
           in
           Array.iter
             (fun r ->
               match r with
               | J.Rate_r { computer = i; time; rate = x } when i >= 0 && i < n ->
                 flush i time;
                 rate.(i) <- x;
                 since.(i) <- time
               | _ -> ())
             jf.Journal_file.records;
           for i = 0 to n - 1 do
             flush i horizon
           done;
           let total = Array.fold_left ( +. ) 0.0 speeds in
           let weighted = ref 0.0 in
           Array.iteri (fun i l -> weighted := !weighted +. (speeds.(i) *. l)) lost;
           let est = 1.0 -. (!weighted /. (window *. total)) in
           add
             (Band.of_interval ~bias ~name:"availability" ~theory
                (interval ~mean:est ~half_width:0.0 ~n:1))
         | Some _ ->
           notes :=
             "rate records are sampled (stride > 1); availability \
              cross-check skipped" :: !notes
         | None -> ());
      let bands = List.rev !bands in
      Ok
        {
          bands;
          notes = List.rev !notes;
          ok = List.for_all (fun (b : Band.t) -> b.Band.ok) bands;
        }
    end
