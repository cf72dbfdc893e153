(* Future-event list: a binary min-heap keyed by (time, seq),
   structure-of-arrays throughout — three parallel arrays [times]
   (unboxed floatarray), [seqs] and [payloads].  Pop order depends only
   on [(time, seq)]: equal times pop in insertion order.

   A handle is the event's sequence number.  Sequence numbers are never
   reused, so a stale handle can never cancel another event.  [cancel]
   finds the number by a scan and removes the entry in place, so the heap
   never holds a dead entry: its memory is O(most events pending at
   once), and [pop_step] and [next_time] never skip anything.  Cancel is
   O(pending); no per-job path cancels (the engine's only caller is
   {!Engine.stop}, when a periodic task is torn down). *)

type handle = int

let no_handle = -1

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable filler : 'a option;
      (* Written into vacated payload cells so popped and cancelled
         entries become collectable immediately.  The type has no value
         to make one from until the first [add], whose payload is kept as
         the filler — so at most that one payload outlives its
         scheduling. *)
  last_time : Float.Array.t;  (* length 1: time of the last [pop_step] *)
  mutable last_payload : 'a array;  (* length <= 1: its payload *)
}

let create () =
  {
    times = Float.Array.make 0 0.0;
    seqs = [||];
    payloads = [||];
    len = 0;
    next_seq = 0;
    filler = None;
    last_time = Float.Array.make 1 Float.nan;
    last_payload = [||];
  }

let is_empty q = q.len = 0

let size q = q.len

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

(* Amortised growth allocates on resize only, so it is excluded from the
   R8 zero-alloc proof obligation. *)
let[@schedsim.cold] ensure_capacity q payload =
  (match q.filler with None -> q.filler <- Some payload | Some _ -> ());
  if Array.length q.last_payload = 0 then q.last_payload <- Array.make 1 payload;
  let cap = Float.Array.length q.times in
  if q.len = cap then begin
    let ncap = max 4 (2 * cap) in
    let nt = Float.Array.make ncap 0.0 in
    Float.Array.blit q.times 0 nt 0 q.len;
    q.times <- nt;
    let ns = Array.make ncap 0 in
    Array.blit q.seqs 0 ns 0 q.len;
    q.seqs <- ns;
    let np = Array.make ncap payload in
    Array.blit q.payloads 0 np 0 q.len;
    (* Fill the unused tail with the filler so growth retains no payload
       beyond it. *)
    (match q.filler with
    | Some d -> Array.fill np q.len (ncap - q.len) d
    | None -> ());
    q.payloads <- np
  end

let[@inline] set q i t s p =
  Float.Array.unsafe_set q.times i t;
  Array.unsafe_set q.seqs i s;
  Array.unsafe_set q.payloads i p

let[@inline] move q ~src ~dst =
  set q dst (Float.Array.unsafe_get q.times src) (Array.unsafe_get q.seqs src)
    (Array.unsafe_get q.payloads src)

(* Entry [(t, s)] pops before the stored entry at [j].  Sequence
   numbers are unique, so for two distinct entries exactly one precedes
   the other. *)
let[@inline] before q t s j =
  let tj = Float.Array.unsafe_get q.times j in
  t < tj || (Float.equal t tj && s < Array.unsafe_get q.seqs j)

(* Fill the hole at [i] with entry [(t, s, p)], moving it towards the
   root past every parent it precedes. *)
let[@inline] sift_up q i t s p =
  let i = ref i in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let par = (!i - 1) / 2 in
    if before q t s par then begin
      move q ~src:par ~dst:!i;
      i := par
    end
    else sifting := false
  done;
  set q !i t s p

(* Fill the hole at [i] with entry [(t, s, p)], moving it towards the
   leaves past every child that precedes it. *)
let[@inline] sift_down q i t s p =
  let i = ref i in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= q.len then sifting := false
    else begin
      let r = l + 1 in
      let c = if r < q.len && precedes q r l then r else l in
      if before q t s c then sifting := false
      else begin
        move q ~src:c ~dst:!i;
        i := c
      end
    end
  done;
  set q !i t s p

(* Remove the entry at [i]: the last entry fills the hole and sifts up or
   down, and its old cell is blanked. *)
let remove_at q i =
  let last = q.len - 1 in
  q.len <- last;
  if i = last then blank q last
  else begin
    let t = Float.Array.unsafe_get q.times last in
    let s = Array.unsafe_get q.seqs last in
    let p = Array.unsafe_get q.payloads last in
    blank q last;
    if i > 0 && before q t s ((i - 1) / 2) then sift_up q i t s p
    else sift_down q i t s p
  end

let[@inline] [@schedsim.hot] add q ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: non-finite time";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  ensure_capacity q payload;
  let i = q.len in
  q.len <- i + 1;
  sift_up q i time seq payload;
  seq

let[@inline] take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let[@inline] top_seq q = q.seqs.(0)

let[@schedsim.hot] pop_step q =
  if q.len = 0 then false
  else begin
    Float.Array.unsafe_set q.last_time 0 (Float.Array.unsafe_get q.times 0);
    q.last_payload.(0) <- Array.unsafe_get q.payloads 0;
    remove_at q 0;
    true
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

let[@inline] next_time q =
  if q.len = 0 then Float.nan else Float.Array.unsafe_get q.times 0

let cancel q h =
  let i = ref 0 in
  while !i < q.len && Array.unsafe_get q.seqs !i <> h do
    incr i
  done;
  if !i < q.len then begin
    remove_at q !i;
    true
  end
  else false

(* Audit the heap property over every stored entry.  O(n); meant for
   sanitizers and tests, not the hot path. *)
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

  let capacity q = Float.Array.length q.times
end
