(* Join-Idle-Queue as it shipped in its own module, the reference for
   [Least_load.select_idle].  It keeps its own copy of the load belief
   (queue counts, availability, the speed-alias table) and its own idle
   stacks; the library's selector reads the state it shares with the
   other Least-Load selectors and must make the same decision at every
   step. *)

module Speeds = Statsched_core.Speeds
module Walker_alias = Statsched_core.Walker_alias

type t = {
  speeds : float array;
  queue : int array;  (* believed jobs at each computer *)
  available : bool array;
  class_of : int array;  (* computer -> speed class, fastest class 0 *)
  class_start : int array;  (* segment offsets into [stacks], n_classes + 1 *)
  stack_len : int array;  (* live idle entries per class segment *)
  stacks : int array;  (* segmented idle stacks (computer indices) *)
  pos : int array;  (* computer -> offset within its segment, -1 = not idle *)
  mutable idle_total : int;
  alias : Walker_alias.t;  (* speed-weighted fallback sampler *)
}

let[@inline] push_idle t i =
  if t.pos.(i) < 0 then begin
    let c = t.class_of.(i) in
    let slot = t.stack_len.(c) in
    t.stacks.(t.class_start.(c) + slot) <- i;
    t.pos.(i) <- slot;
    t.stack_len.(c) <- slot + 1;
    t.idle_total <- t.idle_total + 1
  end

let[@inline] remove_idle t i =
  let slot = t.pos.(i) in
  if slot >= 0 then begin
    let c = t.class_of.(i) in
    let last = t.stack_len.(c) - 1 in
    let base = t.class_start.(c) in
    let moved = t.stacks.(base + last) in
    t.stacks.(base + slot) <- moved;
    t.pos.(moved) <- slot;
    t.stack_len.(c) <- last;
    t.pos.(i) <- -1;
    t.idle_total <- t.idle_total - 1
  end

let create speeds =
  Speeds.validate speeds;
  let n = Array.length speeds in
  let speeds = Array.copy speeds in
  (* Distinct speeds, fastest first: class 0 is the preferred pool. *)
  let distinct =
    Array.to_list speeds |> List.sort_uniq Float.compare |> List.rev
    |> Array.of_list
  in
  let n_classes = Array.length distinct in
  let class_of =
    Array.map
      (fun s ->
        let c = ref 0 in
        Array.iteri (fun k d -> if Float.equal d s then c := k) distinct;
        !c)
      speeds
  in
  let sizes = Array.make n_classes 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) class_of;
  let class_start = Array.make (n_classes + 1) 0 in
  for c = 0 to n_classes - 1 do
    class_start.(c + 1) <- class_start.(c) + sizes.(c)
  done;
  let alias = Walker_alias.create speeds in
  let t =
    {
      speeds;
      queue = Array.make n 0;
      available = Array.make n true;
      class_of;
      class_start;
      stack_len = Array.make n_classes 0;
      stacks = Array.make n 0;
      pos = Array.make n (-1);
      idle_total = 0;
      alias;
    }
  in
  (* Everything starts empty, hence idle: push in ascending index order
     so the initial stacks are deterministic. *)
  for i = 0 to n - 1 do
    push_idle t i
  done;
  t

(* Fastest non-empty idle stack, top entry (most recently idled — the
   classic JIQ choice, and the cache-warm one).  When no computer is
   idle, fall back to a speed-weighted random destination via the alias
   table; a handful of redraws skips unavailable computers without
   turning the fallback into a scan. *)
let select ~rng t =
  if t.idle_total > 0 then begin
    let c = ref 0 in
    while t.stack_len.(!c) = 0 do
      incr c
    done;
    t.stacks.(t.class_start.(!c) + t.stack_len.(!c) - 1)
  end
  else begin
    let n = Array.length t.speeds in
    let chosen = ref (-1) in
    let tries = ref 0 in
    let drawing = ref true in
    while !drawing do
      let c = Walker_alias.draw t.alias rng in
      chosen := c;
      incr tries;
      if t.available.(c) || !tries >= 16 then drawing := false
    done;
    if t.available.(!chosen) then !chosen
    else begin
      (* Rare: persistent bad luck or everything down — first available
         computer, or the last draw when none is. *)
      let found = ref (-1) in
      let i = ref 0 in
      while !found < 0 && !i < n do
        if t.available.(!i) then found := !i;
        incr i
      done;
      if !found >= 0 then !found else !chosen
    end
  end

let job_sent t i =
  remove_idle t i;
  t.queue.(i) <- t.queue.(i) + 1

let departure_recorded t i =
  if t.queue.(i) > 0 then begin
    t.queue.(i) <- t.queue.(i) - 1;
    if t.queue.(i) = 0 && t.available.(i) then push_idle t i
  end

let set_available t i up =
  if t.available.(i) <> up then begin
    t.available.(i) <- up;
    if not up then remove_idle t i
    else if t.queue.(i) = 0 then push_idle t i
  end
