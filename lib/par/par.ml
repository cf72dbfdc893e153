(* Fork/join over stdlib Domain — the single Domain.spawn site in the
   tree (schedlint R6). Indices are handed out dynamically via an atomic
   counter; each worker keeps the [(k, f k)] pairs it computed and the
   caller sorts them by index after the join, so the returned list is
   always [f 0; ...; f (n-1)] no matter how the work was scheduled. *)

let available_parallelism () = Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "STATSCHED_JOBS" with
  | None -> available_parallelism ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "STATSCHED_JOBS must be a positive integer (got %S)" s))

(* Lifetime count of domains spawned by this module.  Monotonic telemetry
   only — never read back into control flow — so the global cannot make
   results depend on past calls; it exists so tests can pin the
   "jobs = 1 spawns nothing" contract. *)
(* schedlint: allow R5 *)
let spawned = Atomic.make 0

let spawn_count () = Atomic.get spawned

let resolve_jobs ?jobs n =
  let jobs =
    match jobs with
    | Some j -> if j < 1 then invalid_arg "Par.map: jobs < 1" else j
    | None -> default_jobs ()
  in
  max 1 (min jobs n)

(* Minor heap of every domain while it runs [map_parallel]'s indices:
   32 Ki words (256 KiB) instead of the runtime's 256 Ki words (2 MiB).
   Each busy domain keeps its whole minor heap resident: with default
   heaps, two domains running Table 3 replications peaked at 12.7–14.1
   MiB RSS, against 10.0–10.2 MiB when one domain ran them all; with
   the small heap they peaked at 10.2–11.8 MiB at the same batch
   throughput.  The extra collections cost the memory-heavier scale
   sweep's cells 5–10 % of their events/s.  The GC has no effect on
   results.

   Only while every domain has a core of its own ([shrink] below): a
   minor collection stops all domains, so when two share a core each of
   the 8× more frequent collections waits out a scheduler time slice.
   Four domains on two cores ran four Table 3 replications 2–3× slower
   than with default heaps. *)
let worker_minor_heap_words = 32 * 1024

let set_minor_heap words = Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

(* Parallel fan-out, reached only with [jobs >= 2] (hence [n >= 2],
   since [resolve_jobs] clamps to [n]).  The caller is one of the
   workers: it and [jobs - 1] helper domains all pull indices from 0
   through the atomic counter, so a batch of [jobs] indices runs all at
   once.  Helpers shrink their own minor heap when they start; the
   caller shrinks its own for the duration and restores it on every
   exit path. *)
let map_parallel jobs n f =
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let shrink = jobs <= available_parallelism () in
  (* Each worker pulls the next unstarted index until none is left; on
     the first exception everyone winds down. *)
  let worker () =
    if shrink then set_minor_heap worker_minor_heap_words;
    let rec loop acc =
      let k = Atomic.fetch_and_add next 1 in
      if k >= n || Atomic.get failed <> None then acc
      else
        match f k with
        | v -> loop ((k, v) :: acc)
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failed None (Some (e, bt)));
          acc
    in
    loop []
  in
  let caller_minor = (Gc.get ()).Gc.minor_heap_size in
  let pairs =
    Fun.protect
      ~finally:(fun () -> set_minor_heap caller_minor)
      (fun () ->
        let domains =
          List.init (jobs - 1) (fun _ ->
              Atomic.incr spawned;
              Domain.spawn worker)
        in
        let mine = worker () in
        List.concat (mine :: List.map Domain.join domains))
  in
  (match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  List.map snd (List.sort (fun (i, _) (j, _) -> Int.compare i j) pairs)

let map_array ?jobs n f =
  if n < 0 then invalid_arg "Par.map: negative length";
  let jobs = resolve_jobs ?jobs n in
  if jobs = 1 then Array.init n f else Array.of_list (map_parallel jobs n f)

let map ?jobs n f =
  if n < 0 then invalid_arg "Par.map: negative length";
  let jobs = resolve_jobs ?jobs n in
  (* [jobs = 1] is the provably pool-free path: no pairs, no atomics, no
     domains — just the plain sequential list build. *)
  if jobs = 1 then List.init n f else map_parallel jobs n f
