(* Future-event list: a binary min-heap keyed by (time, seq),
   structure-of-arrays throughout — four parallel arrays [times]
   (unboxed floatarray), [seqs], [slots] and [payloads].  Pop order
   depends only on [(time, seq)]: equal times pop in insertion order.

   Cancellation is a slot table, not the former sequence-number bitmap.
   The bitmap spanned [min stored seq, next seq), so one long-lived
   pending event made it grow with the {e total} event count — at
   n = 10^4 a fault run retained megabytes of dead bits.  A slot table
   is O(max concurrently stored) instead: every stored event owns a
   slot; [slot_seq.(slot) = seq] is the liveness test (sequence numbers
   are never reused); a handle packs [(generation lsl 32) lor slot] so
   a stale handle can never cancel the slot's next tenant. *)

type handle = int

let no_handle = -1

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable len : int;  (* stored in the heap, including lazily-cancelled *)
  mutable live : int;  (* stored entries not yet fired or cancelled *)
  mutable next_seq : int;
  mutable filler : 'a option;
      (* Written into vacated payload cells so popped entries become
         collectable immediately.  The type has no value to make one
         from until the first [add], whose payload is kept as the
         filler — so at most that one payload outlives its scheduling. *)
  (* slot table: liveness + handle generations, O(max stored) *)
  mutable slot_seq : int array;  (* seq of the tenant, -1 when free *)
  mutable slot_gen : int array;  (* bumped on free: stale handles miss *)
  mutable free_slots : int array;  (* stack of free slot ids *)
  mutable free_top : int;
  last_time : Float.Array.t;  (* length 1: time of the last [pop_step] *)
  mutable last_payload : 'a array;  (* length <= 1: its payload *)
}

let create () =
  {
    times = Float.Array.make 0 0.0;
    seqs = [||];
    slots = [||];
    payloads = [||];
    len = 0;
    live = 0;
    next_seq = 0;
    filler = None;
    slot_seq = [||];
    slot_gen = [||];
    free_slots = [||];
    free_top = 0;
    last_time = Float.Array.make 1 Float.nan;
    last_payload = [||];
  }

let is_empty q = q.live = 0

let size q = q.live

(* -- slot table --------------------------------------------------------- *)

(* [slot_seq.(slot) = seq] iff the event that stored [(seq, slot)] is
   still pending: sequence numbers are unique for the queue's lifetime
   and a slot is freed (and its generation bumped) exactly when its
   tenant fires or is cancelled. *)
let[@inline] entry_dead q slot seq = Array.unsafe_get q.slot_seq slot <> seq

(* Amortised growth paths allocate on resize only, so they are excluded
   from the R8 zero-alloc proof obligation. *)
let[@schedsim.cold] grow_slots q =
  let cap = Array.length q.slot_seq in
  let ncap = max 64 (2 * cap) in
  let ns = Array.make ncap (-1) in
  Array.blit q.slot_seq 0 ns 0 cap;
  q.slot_seq <- ns;
  let ng = Array.make ncap 0 in
  Array.blit q.slot_gen 0 ng 0 cap;
  q.slot_gen <- ng;
  let nf = Array.make ncap 0 in
  Array.blit q.free_slots 0 nf 0 q.free_top;
  q.free_slots <- nf;
  (* Push the new slot ids descending so low slots are handed out
     first. *)
  for s = ncap - 1 downto cap do
    nf.(q.free_top) <- s;
    q.free_top <- q.free_top + 1
  done

let[@inline] alloc_slot q seq =
  if q.free_top = 0 then grow_slots q;
  q.free_top <- q.free_top - 1;
  let slot = Array.unsafe_get q.free_slots q.free_top in
  Array.unsafe_set q.slot_seq slot seq;
  slot

let[@inline] free_slot q slot =
  Array.unsafe_set q.slot_seq slot (-1);
  Array.unsafe_set q.slot_gen slot (Array.unsafe_get q.slot_gen slot + 1);
  Array.unsafe_set q.free_slots q.free_top slot;
  q.free_top <- q.free_top + 1

(* -- heap helpers ------------------------------------------------------- *)

(* Indices handed to [precedes] and the sift loops below are always
   < [q.len], so the int/payload arrays use unsafe accessors like the
   float array already does — the heap sifts are the simulator's
   hottest loops and the bounds checks are pure overhead there. *)
let[@inline] precedes q i j =
  let ti = Float.Array.unsafe_get q.times i
  and tj = Float.Array.unsafe_get q.times j in
  ti < tj
  || (Float.equal ti tj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

let blank q i =
  match q.filler with Some d -> q.payloads.(i) <- d | None -> ()

let[@schedsim.cold] ensure_capacity q payload =
  (match q.filler with None -> q.filler <- Some payload | Some _ -> ());
  if Array.length q.last_payload = 0 then q.last_payload <- Array.make 1 payload;
  let cap = Float.Array.length q.times in
  if q.len = cap then begin
    let ncap = max 64 (2 * cap) in
    let nt = Float.Array.make ncap 0.0 in
    Float.Array.blit q.times 0 nt 0 q.len;
    q.times <- nt;
    let ns = Array.make ncap 0 in
    Array.blit q.seqs 0 ns 0 q.len;
    q.seqs <- ns;
    let nsl = Array.make ncap 0 in
    Array.blit q.slots 0 nsl 0 q.len;
    q.slots <- nsl;
    let np = Array.make ncap payload in
    Array.blit q.payloads 0 np 0 q.len;
    (* Fill the unused tail with the filler so growth retains no payload
       beyond it. *)
    (match q.filler with
    | Some d -> Array.fill np q.len (ncap - q.len) d
    | None -> ());
    q.payloads <- np
  end

let[@inline] [@schedsim.hot] add q ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: non-finite time";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let slot = alloc_slot q seq in
  ensure_capacity q payload;
  (* Sift up with a hole: the new entry has the largest seq, so on a
     time tie it never precedes its parent (FIFO). *)
  let i = ref q.len in
  q.len <- q.len + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Float.Array.unsafe_get q.times p in
    if time < tp then begin
      Float.Array.unsafe_set q.times !i tp;
      Array.unsafe_set q.seqs !i (Array.unsafe_get q.seqs p);
      Array.unsafe_set q.slots !i (Array.unsafe_get q.slots p);
      Array.unsafe_set q.payloads !i (Array.unsafe_get q.payloads p);
      i := p
    end
    else sifting := false
  done;
  Float.Array.unsafe_set q.times !i time;
  Array.unsafe_set q.seqs !i seq;
  Array.unsafe_set q.slots !i slot;
  Array.unsafe_set q.payloads !i payload;
  q.live <- q.live + 1;
  (Array.unsafe_get q.slot_gen slot lsl 32) lor slot

let[@inline] take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let[@inline] top_seq q = q.seqs.(0)

(* Remove the root, refilling the hole with the last entry sifted down. *)
let remove_root q =
  let last = q.len - 1 in
  q.len <- last;
  if last = 0 then blank q 0
  else begin
    let t = Float.Array.unsafe_get q.times last in
    let s = Array.unsafe_get q.seqs last in
    let sl = Array.unsafe_get q.slots last in
    let p = Array.unsafe_get q.payloads last in
    blank q last;
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c = if r < last && precedes q r l then r else l in
        let tc = Float.Array.unsafe_get q.times c in
        if tc < t || (Float.equal tc t && Array.unsafe_get q.seqs c < s) then begin
          Float.Array.unsafe_set q.times !i tc;
          Array.unsafe_set q.seqs !i (Array.unsafe_get q.seqs c);
          Array.unsafe_set q.slots !i (Array.unsafe_get q.slots c);
          Array.unsafe_set q.payloads !i (Array.unsafe_get q.payloads c);
          i := c
        end
        else sifting := false
      end
    done;
    Float.Array.unsafe_set q.times !i t;
    Array.unsafe_set q.seqs !i s;
    Array.unsafe_set q.slots !i sl;
    Array.unsafe_set q.payloads !i p
  end

let swap q i j =
  let t = Float.Array.get q.times i in
  Float.Array.set q.times i (Float.Array.get q.times j);
  Float.Array.set q.times j t;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let sl = q.slots.(i) in
  q.slots.(i) <- q.slots.(j);
  q.slots.(j) <- sl;
  let p = q.payloads.(i) in
  q.payloads.(i) <- q.payloads.(j);
  q.payloads.(j) <- p

let rec sift_down q i =
  let l = (2 * i) + 1 in
  if l < q.len then begin
    let r = l + 1 in
    let smallest = if r < q.len && precedes q r l then r else l in
    if precedes q smallest i then begin
      swap q i smallest;
      sift_down q smallest
    end
  end

(* Floyd's bottom-up heapify.  Pop order only depends on [(time, seq)],
   never on array layout, so rebuilding cannot change simulation
   results. *)
let heapify q =
  for i = (q.len / 2) - 1 downto 0 do
    sift_down q i
  done

let[@schedsim.hot] rec pop_step q =
  if q.len = 0 then false
  else begin
    let time = Float.Array.unsafe_get q.times 0 in
    let seq = Array.unsafe_get q.seqs 0 in
    let slot = Array.unsafe_get q.slots 0 in
    let payload = Array.unsafe_get q.payloads 0 in
    remove_root q;
    if entry_dead q slot seq then pop_step q (* cancelled: skip *)
    else begin
      free_slot q slot;
      q.live <- q.live - 1;
      Float.Array.unsafe_set q.last_time 0 time;
      q.last_payload.(0) <- payload;
      true
    end
  end

let[@inline] last_time q = Float.Array.unsafe_get q.last_time 0

let[@inline] last_payload q = q.last_payload.(0)

let blank_last q =
  match q.filler with Some d -> q.last_payload.(0) <- d | None -> ()

let pop q =
  if pop_step q then begin
    let p = q.last_payload.(0) in
    (* Release the scratch slot so the popped payload does not outlive
       this call. *)
    blank_last q;
    Some (Float.Array.get q.last_time 0, p)
  end
  else None

(* Cold path of [next_time]: drop lazily-cancelled roots until a live
   entry or emptiness surfaces. *)
let rec drop_done_roots q =
  if q.len = 0 then Float.nan
  else if entry_dead q (Array.unsafe_get q.slots 0) (Array.unsafe_get q.seqs 0)
  then begin
    remove_root q;
    drop_done_roots q
  end
  else Float.Array.unsafe_get q.times 0

(* Non-recursive so the common live-root case inlines into callers (the
   engine main loop and the PS reschedule path read this once per event)
   and the returned float stays unboxed there. *)
let[@inline] next_time q =
  if q.len = 0 then Float.nan
  else if entry_dead q (Array.unsafe_get q.slots 0) (Array.unsafe_get q.seqs 0)
  then drop_done_roots q
  else Float.Array.unsafe_get q.times 0

(* -- cancellation ------------------------------------------------------- *)

(* Rebuild the heap from the entries still live.  Triggered when live
   entries fall under a quarter of the stored total, so the dead weight
   carried between compactions is O(live), independent of how large the
   queue once was. *)
let compact q =
  let j = ref 0 in
  for i = 0 to q.len - 1 do
    if not (entry_dead q q.slots.(i) q.seqs.(i)) then begin
      Float.Array.unsafe_set q.times !j (Float.Array.unsafe_get q.times i);
      q.seqs.(!j) <- q.seqs.(i);
      q.slots.(!j) <- q.slots.(i);
      q.payloads.(!j) <- q.payloads.(i);
      incr j
    end
  done;
  let new_len = !j in
  (match q.filler with
  | Some d -> Array.fill q.payloads new_len (q.len - new_len) d
  | None -> ());
  q.len <- new_len;
  heapify q

let cancel q h =
  (* O(1) via the slot table: a handle is valid exactly while its
     generation matches the slot's.  Freeing the slot is the lazy
     deletion — the stored entry is skipped when a pop or compaction
     reaches it. *)
  if h < 0 then false
  else begin
    let slot = h land 0xFFFFFFFF in
    let gen = h lsr 32 in
    if slot >= Array.length q.slot_gen then false
    else if Array.unsafe_get q.slot_gen slot <> gen then false
    else if Array.unsafe_get q.slot_seq slot < 0 then false
    else begin
      free_slot q slot;
      q.live <- q.live - 1;
      if q.len >= 64 && q.live * 4 < q.len then compact q;
      true
    end
  end

(* Audit the heap property over every stored entry (live or lazily
   cancelled).  O(n); meant for sanitizers and tests, not the hot path. *)
let heap_ordered q =
  let ok = ref true in
  for i = 1 to q.len - 1 do
    if precedes q i ((i - 1) / 2) then ok := false
  done;
  !ok

module Testing = struct
  let corrupt q =
    if q.len >= 2 then
      Float.Array.set q.times 0 (Float.Array.get q.times (q.len - 1) +. 1.0)

  let stored q = q.len

  let slot_capacity q = Array.length q.slot_seq
end
