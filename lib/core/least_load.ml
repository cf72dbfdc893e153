module Rng = Statsched_prng.Rng

(* One load belief per computer — believed queue length, availability —
   read by every selector of the Least-Load family:

   - a tournament-tree index over the normalised loads: leaf [i] holds
     [(q_i + 1)/s_i] while computer [i] is available and [+inf] while it
     is not, so a full-information decision is a root read plus a
     counted descent instead of an O(n) scan — the difference between
     usable and hopeless at n = 10^4;
   - persistent index pools for the power-of-d samplers ([pool],
     [avail_pool]) and generation stamps for the weighted one, so no
     decision allocates;
   - Join-Idle-Queue's intrusive idle stacks: one segment of [stacks]
     per speed class (classes sorted by decreasing speed, so "fastest
     idle computer" is the first non-empty segment), with [pos.(i)]
     giving computer [i]'s slot in its segment or -1 when it is not
     idle.  Computer [i] is on its stack exactly when [q_i = 0] and it
     is available; push and remove are O(1) swap-and-update operations.

   The tree is refreshed lazily.  An update only marks the leaf stale;
   {!select} brings the stale leaves up to date before it reads the
   root.  Every tree node is a function of the leaf values alone, so the
   refreshed tree is exactly the eagerly maintained one, and the
   selectors that never read it (the samplers, JIQ) never pay for it. *)
type t = {
  speeds : float array;
  queue : int array;
  available : bool array;
  tree : Min_tree.t;
  stale : int array;  (* leaves awaiting a tree refresh, [n_stale] of them *)
  mutable n_stale : int;
  is_stale : Bytes.t;  (* '\001' while the leaf is on [stale] *)
  mutable up_count : int;
  pool : int array;  (* identity permutation, restored after each probe *)
  swaps : int array;  (* Fisher-Yates swap log for the un-swap restore *)
  mutable avail_pool : int array;  (* ascending available indices *)
  mutable avail_len : int;
  mutable avail_dirty : bool;  (* availability changed since last rebuild *)
  alias : Walker_alias.t;  (* speed-weighted sampler *)
  probe_gen : int array;  (* generation stamps: probed this decision? *)
  mutable gen : int;
  class_of : int array;  (* computer -> speed class, fastest class 0 *)
  class_start : int array;  (* segment offsets into [stacks], n_classes + 1 *)
  stack_len : int array;  (* live idle entries per class segment *)
  stacks : int array;  (* segmented idle stacks (computer indices) *)
  pos : int array;  (* computer -> offset within its segment, -1 = not idle *)
  mutable idle_total : int;
}

let[@inline] normalized_load t i =
  float_of_int (t.queue.(i) + 1) /. t.speeds.(i)

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

(* Computer [i]'s queue count or availability changed: mark its leaf
   stale and move it onto or off its idle stack. *)
let[@inline] changed t i =
  if Bytes.unsafe_get t.is_stale i = '\000' then begin
    Bytes.unsafe_set t.is_stale i '\001';
    t.stale.(t.n_stale) <- i;
    t.n_stale <- t.n_stale + 1
  end;
  if t.queue.(i) = 0 && t.available.(i) then push_idle t i else remove_idle t i

let create speeds =
  Speeds.validate speeds;
  let n = Array.length speeds in
  (* Distinct speeds, fastest first: class 0 is the preferred idle pool. *)
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
  let t =
    {
      speeds = Array.copy speeds;
      queue = Array.make n 0;
      available = Array.make n true;
      tree = Min_tree.create n;
      stale = Array.make n 0;
      n_stale = 0;
      is_stale = Bytes.make n '\000';
      up_count = n;
      pool = Array.init n (fun i -> i);
      swaps = Array.make n 0;
      avail_pool = Array.init n (fun i -> i);
      avail_len = n;
      avail_dirty = false;
      alias = Walker_alias.create speeds;
      probe_gen = Array.make n 0;
      gen = 0;
      class_of;
      class_start;
      stack_len = Array.make n_classes 0;
      stacks = Array.make n 0;
      pos = Array.make n (-1);
      idle_total = 0;
    }
  in
  (* Everything starts empty, hence idle: push in ascending index order
     so the initial stacks are deterministic. *)
  for i = 0 to n - 1 do
    Min_tree.set t.tree i (normalized_load t i);
    push_idle t i
  done;
  t

(* Bring every stale leaf up to date: the live load while the computer
   can be selected, +inf while it cannot (so it never wins the
   tournament). *)
let sync_tree t =
  for k = 0 to t.n_stale - 1 do
    let i = t.stale.(k) in
    Bytes.unsafe_set t.is_stale i '\000';
    if t.available.(i) then Min_tree.set t.tree i (normalized_load t i)
    else Min_tree.set t.tree i infinity
  done;
  t.n_stale <- 0

let set_available t i up =
  if t.available.(i) <> up then begin
    t.available.(i) <- up;
    t.up_count <- (t.up_count + if up then 1 else -1);
    t.avail_dirty <- true;
    changed t i
  end

let is_available t i = t.available.(i)

(* Every computer is down: there is no good choice, so all of them are
   candidates, scanned directly (the tree holds +inf for each). *)
let lowest_load_all t =
  let best = ref infinity in
  for i = 0 to Array.length t.speeds - 1 do
    best := Float.min !best (normalized_load t i)
  done;
  !best

let ties_all t =
  let best = lowest_load_all t in
  let ties = ref 0 in
  for i = 0 to Array.length t.speeds - 1 do
    if Float.equal (normalized_load t i) best then incr ties
  done;
  !ties

let nth_tied_all t k =
  let best = lowest_load_all t in
  let chosen = ref (-1) and seen = ref 0 and i = ref 0 in
  while !chosen < 0 do
    if Float.equal (normalized_load t !i) best then begin
      if !seen = k then chosen := !i;
      incr seen
    end;
    incr i
  done;
  !chosen

(* Uniform choice over the computers tied at the minimum: the tree
   root's tie count gives the tied-set size in O(1), so the break is a
   single [Rng.int ties] draw plus one counted descent to that member —
   O(log n) no matter how many computers tie (at large n a mostly-idle
   cluster ties thousands deep, so enumerating the ties would dominate
   the decision).  No draw when the minimum is unique or there is no
   [rng]; see the .mli note on draw order. *)
let[@inline] tie_count t =
  if t.up_count > 0 then begin
    sync_tree t;
    Min_tree.min_count t.tree
  end
  else ties_all t

let[@inline] nth_tie t k =
  if t.up_count > 0 then Min_tree.nth_tied t.tree ~k else nth_tied_all t k

let select ?rng t =
  let ties = tie_count t in
  match rng with
  | Some g when ties > 1 -> nth_tie t (Rng.int g ties)
  | Some _ | None -> nth_tie t 0

(* {!select} with a tie-break stream that is always there: the samplers'
   [d >= m] fallback, without building a [Some rng] per decision. *)
let select_drawn ~rng t =
  let ties = tie_count t in
  nth_tie t (if ties > 1 then Rng.int rng ties else 0)

let rebuild_avail_pool t =
  let n = Array.length t.speeds in
  if Array.length t.avail_pool < n then t.avail_pool <- Array.make n 0;
  let m = ref 0 in
  for i = 0 to n - 1 do
    if t.available.(i) then begin
      t.avail_pool.(!m) <- i;
      incr m
    end
  done;
  t.avail_len <- !m;
  t.avail_dirty <- false

let select_sampled ~rng t ~d =
  if d < 1 then invalid_arg "Least_load.select_sampled: d < 1";
  let n = Array.length t.speeds in
  (* With everything up (or everything down) the candidate pool is the
     identity permutation; otherwise the ascending available indices,
     rebuilt only when availability changed. *)
  let all = t.up_count = n || t.up_count = 0 in
  let pool = if all then t.pool else (if t.avail_dirty then rebuild_avail_pool t; t.avail_pool) in
  let m = if all then n else t.avail_len in
  if d >= m then select_drawn ~rng t
  else begin
    (* Partial Fisher-Yates over the persistent pool: d distinct probes,
       the same draws as a shuffle of a fresh index array.  The swap log
       lets the prefix be un-swapped afterwards, restoring the pool to
       its canonical order without reallocating it. *)
    let best = ref (-1) in
    let best_load = ref infinity in
    for k = 0 to d - 1 do
      let j = k + Rng.int rng (m - k) in
      t.swaps.(k) <- j;
      let tmp = pool.(k) in
      pool.(k) <- pool.(j);
      pool.(j) <- tmp;
      let candidate = pool.(k) in
      let load = normalized_load t candidate in
      if load < !best_load then begin
        best_load := load;
        best := candidate
      end
    done;
    for k = d - 1 downto 0 do
      let j = t.swaps.(k) in
      let tmp = pool.(k) in
      pool.(k) <- pool.(j);
      pool.(j) <- tmp
    done;
    !best
  end

(* Speed-aware power-of-d: probes are drawn from the Walker alias table
   over the speed vector instead of uniformly, so a computer twice as
   fast is probed twice as often — without this, the d sampled load
   values at large n are dominated by the slow majority and the fast
   capacity goes unseen (the ROADMAP-flagged ≈53 response ratio at
   n = 10^2).  Distinctness comes from generation stamps rather than
   without-replacement bookkeeping: a draw that repeats a computer
   already probed this decision is rejected and redrawn.  Equal
   normalised loads break toward the faster computer (smaller expected
   finish time for the marginal job); the uniform sampler keeps its
   first-seen break so recorded replays stay bit-identical.

   The rejection loop is bounded: if the available fraction is so small
   (or the speed skew so extreme) that [16 * d] draws cannot find [d]
   distinct available computers, the remaining probes fall back to the
   uniform partial Fisher-Yates over the available pool — correctness
   never depends on rejection luck, and the whole decision stays
   O(d). *)
let select_weighted ~rng t ~d =
  if d < 1 then invalid_arg "Least_load.select_weighted: d < 1";
  let n = Array.length t.speeds in
  let all = t.up_count = n || t.up_count = 0 in
  if (not all) && t.avail_dirty then rebuild_avail_pool t;
  let m = if all then n else t.avail_len in
  if d >= m then select_drawn ~rng t
  else begin
    t.gen <- t.gen + 1;
    let gen = t.gen in
    let probes = ref 0 in
    let tries = ref 0 in
    let max_tries = 16 * d in
    (* Only the best {e index} is tracked (an immediate, so the hot
       path stays allocation-free; a [float ref] here would box on
       every update).  The load comparison recomputes both sides — two
       array reads and a divide, cheaper than a minor-heap word. *)
    let best = ref (-1) in
    while !probes < d && !tries < max_tries do
      incr tries;
      let c = Walker_alias.draw t.alias rng in
      if t.available.(c) && t.probe_gen.(c) <> gen then begin
        t.probe_gen.(c) <- gen;
        incr probes;
        if
          !best < 0
          || normalized_load t c < normalized_load t !best
          || Float.equal (normalized_load t c) (normalized_load t !best)
             && t.speeds.(c) > t.speeds.(!best)
        then best := c
      end
    done;
    if !probes < d then begin
      (* Uniform fill for the probes rejection could not place.  Each
         Fisher-Yates draw yields a distinct pool member, of which at
         most [d - 1] can already carry this generation's stamp, so the
         loop runs at most [2d - 1] times. *)
      let pool = if all then t.pool else t.avail_pool in
      let k = ref 0 in
      while !probes < d && !k < m do
        let j = !k + Rng.int rng (m - !k) in
        t.swaps.(!k) <- j;
        let tmp = pool.(!k) in
        pool.(!k) <- pool.(j);
        pool.(j) <- tmp;
        let c = pool.(!k) in
        if t.probe_gen.(c) <> gen then begin
          t.probe_gen.(c) <- gen;
          incr probes;
          if
            !best < 0
            || normalized_load t c < normalized_load t !best
            || Float.equal (normalized_load t c) (normalized_load t !best)
               && t.speeds.(c) > t.speeds.(!best)
          then best := c
        end;
        incr k
      done;
      for i = !k - 1 downto 0 do
        let j = t.swaps.(i) in
        let tmp = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- tmp
      done
    end;
    !best
  end

let job_sent t i =
  t.queue.(i) <- t.queue.(i) + 1;
  changed t i

let departure_recorded t i =
  if t.queue.(i) > 0 then begin
    t.queue.(i) <- t.queue.(i) - 1;
    changed t i
  end

let load_index t i = t.queue.(i)

let set_load_index t i q =
  if q < 0 then invalid_arg "Least_load.set_load_index: negative queue length";
  t.queue.(i) <- q;
  changed t i

(* Every available computer becomes idle; the stacks are rebuilt in
   ascending index order, as at creation. *)
let reset t =
  Array.fill t.queue 0 (Array.length t.queue) 0;
  Array.fill t.stack_len 0 (Array.length t.stack_len) 0;
  Array.fill t.pos 0 (Array.length t.pos) (-1);
  t.idle_total <- 0;
  Array.iteri (fun i _ -> changed t i) t.queue

(* Fastest non-empty idle stack, top entry (most recently idled — the
   classic JIQ choice, and the cache-warm one).  When no computer is
   idle, fall back to a speed-weighted random destination via the alias
   table; a handful of redraws skips unavailable computers without
   turning the fallback into a scan. *)
let[@schedsim.hot] select_idle ~rng t =
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
