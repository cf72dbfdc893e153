module J = Statsched_obs.Journal
module Trace_event = Statsched_obs.Trace_event

let csv (jf : Journal_file.t) =
  let buf = Buffer.create (64 * (Array.length jf.Journal_file.records + 1)) in
  Buffer.add_string buf "kind,time,job_id,computer,size,response_time,response_ratio\n";
  Array.iter
    (function
      | J.Dispatch_r { id; computer; time; size } ->
        Printf.bprintf buf "dispatch,%.6f,%d,%d,%.6f,,\n" time id computer size
      | J.Queue_r _ | J.Completion_r _ | J.Drop_r _ | J.Rate_r _ -> ())
    jf.Journal_file.records;
  Array.iter
    (function
      | J.Completion_r { id; computer; arrival; completion; size; _ } ->
        let rt = completion -. arrival in
        Printf.bprintf buf "completion,%.6f,%d,%d,,%.6f,%.6f\n" completion id
          computer rt (rt /. size)
      | J.Dispatch_r _ | J.Queue_r _ | J.Drop_r _ | J.Rate_r _ -> ())
    jf.Journal_file.records;
  Buffer.contents buf

let jobs_pid = 0
let computers_pid = 1

let chrome (jf : Journal_file.t) =
  match
    ( List.assoc_opt "speeds" jf.Journal_file.meta,
      Journal_file.meta_float jf "warmup",
      Journal_file.meta_float jf "horizon" )
  with
  | None, _, _ | _, None, _ | _, _, None ->
    Error "journal lacks the speeds, warmup or horizon meta line"
  | Some speeds, Some warmup, Some horizon ->
    let tr = Trace_event.create () in
    Trace_event.process_name tr ~pid:jobs_pid "jobs";
    Trace_event.process_name tr ~pid:computers_pid "computers";
    (* The meta line carries each speed as %g text, which is how the
       lane labels print it. *)
    let speeds = Array.of_list (String.split_on_char ',' speeds) in
    Array.iteri
      (fun i speed ->
        let label = Printf.sprintf "computer %d (speed %s)" i speed in
        Trace_event.thread_name tr ~pid:jobs_pid ~tid:i label;
        Trace_event.thread_name tr ~pid:computers_pid ~tid:i label)
      speeds;
    let n = Array.length speeds in
    let spans = jf.Journal_file.stride = 1 in
    (* Each computer's current effective rate and when it took effect. *)
    let rate = Array.make n 1.0 and since = Array.make n 0.0 in
    let close i ~until =
      let prev = rate.(i) in
      if spans && prev < 1.0 && until > since.(i) then
        Trace_event.complete tr ~cat:"fault"
          ~name:(if prev <= 0.0 then "down" else "degraded")
          ~ts:since.(i) ~dur:(until -. since.(i)) ~pid:computers_pid ~tid:i
          ~args:[ ("rate", Trace_event.Num prev) ]
          ()
    in
    Array.iter
      (function
        | J.Completion_r { id; computer; arrival; start; completion; size } ->
          let wait = if start >= 0.0 then start -. arrival else 0.0 in
          Trace_event.complete tr ~cat:"job" ~name:"job" ~ts:arrival
            ~dur:(completion -. arrival) ~pid:jobs_pid ~tid:computer
            ~args:
              [
                ("id", Trace_event.Int id);
                ("size", Trace_event.Num size);
                ("wait", Trace_event.Num wait);
                ( "measured",
                  Trace_event.Str (if arrival >= warmup then "yes" else "no") );
              ]
            ()
        | J.Drop_r { id; computer; time } ->
          Trace_event.instant tr ~cat:"fault" ~name:"drop" ~ts:time
            ~pid:computers_pid ~tid:computer
            ~args:[ ("id", Trace_event.Int id) ]
            ()
        | J.Rate_r { computer; time; rate = r } when computer >= 0 && computer < n ->
          close computer ~until:time;
          rate.(computer) <- r;
          since.(computer) <- time
        | J.Rate_r _ | J.Dispatch_r _ | J.Queue_r _ -> ())
      jf.Journal_file.records;
    (* Spans still open at the end of the run close at its horizon. *)
    for i = 0 to n - 1 do
      close i ~until:horizon
    done;
    Ok tr
