type t = {
  mutable times : float array;
  mutable queues : int array array;  (* per sample *)
  mutable len : int;
}

let create () = { times = [||]; queues = [||]; len = 0 }

let push t time qs =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = max 256 (2 * cap) in
    let ntimes = Array.make ncap 0.0 in
    let nqueues = Array.make ncap [||] in
    Array.blit t.times 0 ntimes 0 t.len;
    Array.blit t.queues 0 nqueues 0 t.len;
    t.times <- ntimes;
    t.queues <- nqueues
  end;
  t.times.(t.len) <- time;
  t.queues.(t.len) <- qs;
  t.len <- t.len + 1

let on_tick t ~time ~queues = push t time (Array.copy queues)

let sample_count t = t.len

let times t = Array.sub t.times 0 t.len

let check_nonempty t =
  if t.len = 0 then invalid_arg "Probe: no samples recorded"

let series t i =
  check_nonempty t;
  if i < 0 || i >= Array.length t.queues.(0) then
    invalid_arg "Probe.series: computer index out of range";
  Array.init t.len (fun k -> t.queues.(k).(i))

let peak t =
  let worst = ref 0 in
  for k = 0 to t.len - 1 do
    Array.iter (fun q -> if q > !worst then worst := q) t.queues.(k)
  done;
  !worst

let write_csv t path =
  check_nonempty t;
  let n = Array.length t.queues.(0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time";
      for i = 0 to n - 1 do
        Printf.fprintf oc ",c%d" i
      done;
      output_char oc '\n';
      for k = 0 to t.len - 1 do
        Printf.fprintf oc "%.6f" t.times.(k);
        Array.iter (fun q -> Printf.fprintf oc ",%d" q) t.queues.(k);
        output_char oc '\n'
      done)
