type kind = Dispatch | Queue | Completion | Drop | Rate

let kinds = 5

let kind_index = function
  | Dispatch -> 0
  | Queue -> 1
  | Completion -> 2
  | Drop -> 3
  | Rate -> 4

let kind_tag = [| 'D'; 'Q'; 'C'; 'X'; 'R' |]
let kind_name = [| "dispatch"; "queue"; "completion"; "drop"; "rate" |]

(* Record storage: one 8-double-wide slot per record (64 bytes, about
   one cache line — recording a sample touches one line where per-field
   columns would touch six or seven).  Slots live in fixed blocks of
   [block_records] that are allocated the first time a record lands in
   them and never copied or resized, so a journal costs memory for the
   records it keeps, up to [capacity], rather than for [capacity] up
   front.  Integer fields, the kind included, ride in doubles; every
   value stored is far below 2^53, so the round-trip through
   [float_of_int]/[int_of_float] is exact.  Field use per kind (unused
   fields are never decoded):

     kind        +0 (i0)  +1 (i1)   +2 (f0)  +3 (f1)  +4 (f2)     +5 (f3)  +6
     Dispatch    id       computer  time     size                          kind
     Queue       depth    computer  time                                   kind
     Completion  id       computer  arrival  start    completion  size     kind
     Drop        id       computer  time                                   kind
     Rate        0        computer  time     rate                          kind *)
let slot_width = 8
let kind_field = 6
let block_shift = 12
let block_records = 1 lsl block_shift
let block_mask = block_records - 1

type t = {
  capacity : int;
  blocks : floatarray array;  (* empty until first written *)
  mutable len : int;
  mutable stride : int;
  seen : int array;  (* per kind: events offered, sampled or not *)
  (* Next ordinal of each stream that will be sampled — the smallest
     multiple of [stride] not yet seen.  Lets [claim] decide with one
     compare instead of [seen mod stride] (an integer division) on
     every event. *)
  next_due : int array;
}

let create ?(capacity = 4096) ?(sample_every = 1) () =
  if capacity < 16 then invalid_arg "Journal.create: capacity < 16";
  if sample_every < 1 then invalid_arg "Journal.create: sample_every < 1";
  {
    capacity;
    blocks =
      Array.make
        ((capacity + block_records - 1) / block_records)
        (Float.Array.create 0);
    len = 0;
    stride = sample_every;
    seen = Array.make kinds 0;
    next_due = Array.make kinds 0;
  }

(* The block holding record [r], and the offset of its slot there. *)
let[@inline] block t r = Array.unsafe_get t.blocks (r lsr block_shift)
let[@inline] base r = (r land block_mask) * slot_width

let[@inline] field t r f = Float.Array.get (block t r) (base r + f)
let[@inline] kind_at t r = int_of_float (field t r kind_field)

(* First record into block [b]: allocate it, sized to the capacity it
   covers.  Left uninitialised: every field a record's kind uses is
   written before it is read, and the others are only ever copied. *)
let[@schedsim.cold] ensure_block t b =
  if Float.Array.length t.blocks.(b) = 0 then
    t.blocks.(b) <-
      Float.Array.create
        (min block_records (t.capacity - (b * block_records)) * slot_width)

(* Overflow: keep every other retained record of each stream (so kept
   ordinals 0, k, 2k, … become 0, 2k, 4k, …) and double the stride; the
   predicate [seen mod stride = 0] then continues the same systematic
   grid.  In place, amortised over capacity/2 subsequent records. *)
let[@schedsim.cold] compact t =
  let parity = Array.make kinds 0 in
  let w = ref 0 in
  for r = 0 to t.len - 1 do
    let src = block t r and sb = base r in
    let k = int_of_float (Float.Array.unsafe_get src (sb + kind_field)) in
    let p = Array.unsafe_get parity k in
    Array.unsafe_set parity k (p + 1);
    if p land 1 = 0 then begin
      let d = !w in
      if d <> r then begin
        (* An inline copy: a [Float.Array.blit] per record is a C call,
           and at the default capacity compaction runs every few
           thousand records. *)
        let dst = block t d and db = base d in
        for f = 0 to kind_field do
          Float.Array.unsafe_set dst (db + f) (Float.Array.unsafe_get src (sb + f))
        done
      end;
      incr w
    end
  done;
  t.len <- !w;
  t.stride <- t.stride * 2;
  (* Re-aim every stream at the smallest multiple of the doubled stride
     it has not yet reached. *)
  let s = t.stride in
  for k = 0 to kinds - 1 do
    t.next_due.(k) <- (t.seen.(k) + s - 1) / s * s
  done

(* Slow path of [claim], taken once per [stride] events: the current
   ordinal [c] is due, so allocate its slot and schedule the next one —
   unless the compaction it triggers doubles the stride and leaves [c]
   off the new grid (an odd multiple of the old stride), in which case
   it is skipped like any other unsampled event. *)
let claim_due t k c =
  if t.len = t.capacity then compact t;
  (* After a compact the stride has doubled and [next_due] was re-aimed
     from [seen] (= c + 1); without one, the next due ordinal is simply
     one stride ahead.  Both equal this expression. *)
  let s = t.stride in
  let next = ((c / s) + 1) * s in
  Array.unsafe_set t.next_due k next;
  if next - c <> s then -1
  else begin
    let slot = t.len in
    t.len <- slot + 1;
    if slot land block_mask = 0 then ensure_block t (slot lsr block_shift);
    slot
  end

(* Returns the slot index to fill, or -1 when this event is not sampled.
   Bumps the stream's seen counter either way. *)
let[@inline] [@schedsim.hot] claim t k =
  let c = Array.unsafe_get t.seen k in
  Array.unsafe_set t.seen k (c + 1);
  if c <> Array.unsafe_get t.next_due k then -1 else claim_due t k c

(* Write the kind and the four leading fields of the slot at [b] in
   [blk]; [f1] is unused (and never decoded) for queue and drop
   records. *)
let[@inline] [@schedsim.hot] fill blk b k i0 i1 f0 f1 =
  Float.Array.unsafe_set blk b (float_of_int i0);
  Float.Array.unsafe_set blk (b + 1) (float_of_int i1);
  Float.Array.unsafe_set blk (b + 2) f0;
  Float.Array.unsafe_set blk (b + 3) f1;
  Float.Array.unsafe_set blk (b + kind_field) (float_of_int k)

let[@inline] [@schedsim.hot] record_dispatch t ~id ~computer ~time ~size =
  let slot = claim t 0 in
  if slot >= 0 then fill (block t slot) (base slot) 0 id computer time size

let[@inline] [@schedsim.hot] record_queue t ~depth ~computer ~time =
  let slot = claim t 1 in
  if slot >= 0 then fill (block t slot) (base slot) 1 depth computer time 0.0

let[@inline] [@schedsim.hot] record_completion t ~id ~computer ~arrival ~start ~completion
    ~size =
  let slot = claim t 2 in
  if slot >= 0 then begin
    let blk = block t slot and b = base slot in
    fill blk b 2 id computer arrival start;
    Float.Array.unsafe_set blk (b + 4) completion;
    Float.Array.unsafe_set blk (b + 5) size
  end

let[@inline] [@schedsim.hot] record_drop t ~id ~computer ~time =
  let slot = claim t 3 in
  if slot >= 0 then fill (block t slot) (base slot) 3 id computer time 0.0

let[@inline] [@schedsim.hot] record_rate t ~computer ~time ~rate =
  let slot = claim t 4 in
  if slot >= 0 then fill (block t slot) (base slot) 4 0 computer time rate

let length t = t.len
let capacity t = t.capacity
let stride t = t.stride
let seen t k = t.seen.(kind_index k)

let kept t k =
  let ki = kind_index k in
  let n = ref 0 in
  for r = 0 to t.len - 1 do
    if kind_at t r = ki then incr n
  done;
  !n

type record =
  | Dispatch_r of { id : int; computer : int; time : float; size : float }
  | Queue_r of { depth : int; computer : int; time : float }
  | Completion_r of {
      id : int;
      computer : int;
      arrival : float;
      start : float;
      completion : float;
      size : float;
    }
  | Drop_r of { id : int; computer : int; time : float }
  | Rate_r of { computer : int; time : float; rate : float }

let record_at t r =
  if r < 0 || r >= t.len then invalid_arg "Journal.record_at: index";
  let i0 = int_of_float (field t r 0) and i1 = int_of_float (field t r 1) in
  let f0 = field t r 2 and f1 = field t r 3 in
  match kind_at t r with
  | 0 -> Dispatch_r { id = i0; computer = i1; time = f0; size = f1 }
  | 1 -> Queue_r { depth = i0; computer = i1; time = f0 }
  | 2 ->
    Completion_r
      { id = i0; computer = i1; arrival = f0; start = f1;
        completion = field t r 4; size = field t r 5 }
  | 3 -> Drop_r { id = i0; computer = i1; time = f0 }
  | _ -> Rate_r { computer = i1; time = f0; rate = f1 }

let iter t f =
  for r = 0 to t.len - 1 do
    f (record_at t r)
  done

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)

let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

(* Round-trippable float text: shortest form that parses back exactly. *)
let fmt_float x =
  let s = Printf.sprintf "%.12g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let check_key k =
  if
    k = ""
    || String.exists (function ' ' | '\n' | '\t' | '\r' -> true | _ -> false) k
  then invalid_arg (Printf.sprintf "Journal: malformed key %S" k)

let to_string ?(meta = []) ?(summary = []) t =
  let buf = Buffer.create (4096 + (t.len * 48)) in
  Buffer.add_string buf "statsched-journal v2\n";
  List.iter
    (fun (k, v) ->
      check_key k;
      Buffer.add_string buf (Printf.sprintf "meta %s %s\n" k v))
    meta;
  Buffer.add_string buf (Printf.sprintf "stride %d\n" t.stride);
  Array.iteri
    (fun k c -> Buffer.add_string buf (Printf.sprintf "seen %s %d\n" kind_name.(k) c))
    t.seen;
  List.iter
    (fun (k, v) ->
      check_key k;
      Buffer.add_string buf (Printf.sprintf "summary %s %s\n" k v))
    summary;
  Buffer.add_string buf (Printf.sprintf "records %d\n" t.len);
  for r = 0 to t.len - 1 do
    let k = kind_at t r in
    let num f =
      Buffer.add_char buf ' ';
      Buffer.add_string buf (fmt_float (field t r f))
    in
    Buffer.add_char buf kind_tag.(k);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (int_of_float (field t r 0)));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (int_of_float (field t r 1)));
    num 2;
    (match k with
    | 0 | 4 -> num 3
    | 2 ->
      num 3;
      num 4;
      num 5
    | _ -> ());
    Buffer.add_char buf '\n'
  done;
  let body = Buffer.contents buf in
  Printf.sprintf "%schecksum fnv1a64 %016Lx\n" body (fnv1a64 body)

let write ?meta ?summary t path =
  let text = to_string ?meta ?summary t in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path
