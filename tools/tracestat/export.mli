(** Render a run journal in the formats other tools read.

    A stride-1 journal holds every dispatch, completion, drop and rate
    record of its run, so both renderings are complete: byte for byte
    the per-job CSV and the Chrome trace that the simulator's own
    recorders used to write.  A sampled journal (stride > 1) renders
    the records it kept. *)

val csv : Journal_file.t -> string
(** The per-job CSV: a header
    [kind,time,job_id,computer,size,response_time,response_ratio], one
    [dispatch] row per dispatch record (time = arrival) in recording
    order, then one [completion] row per completion record (time =
    completion); fields a kind lacks are empty. *)

val chrome : Journal_file.t -> (Statsched_obs.Trace_event.t, string) result
(** The Chrome trace (Perfetto, [chrome://tracing]): pid 0 holds one
    lane per computer carrying job spans (ts = arrival, dur = response
    time), pid 1 mirrors the computers with drop markers and down/
    degraded capacity spans.  Capacity spans are rebuilt from the rate
    records, so they are left out when those were sampled (stride > 1),
    the same rule as the availability cross-check.  [Error] when the
    journal lacks the [speeds], [warmup] or [horizon] meta lines. *)
