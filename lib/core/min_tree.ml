(* Flat tournament (segment) tree over a fixed number of float leaves.

   Internal nodes hold exact copies of the minimum leaf value of their
   subtree — no arithmetic is performed on the values, so equality
   against the root is an exact test for "this subtree contains a
   minimal leaf".

   Each node additionally stores how many leaves of its subtree are
   [Float.equal] to its minimum, so the number of tied minima is O(1)
   to read ([min_count]) and the k-th tied leaf is a single O(log n)
   counted descent ([nth_tied]) — the uniform tie-break of a
   least-load dispatcher costs one RNG draw plus one descent instead of
   one draw per tied computer.

   Layout: one unboxed floatarray (values) and one int array (tie
   counts) of [2*cap] slots where [cap] is the smallest power of two
   >= n.  Node 1 is the root, node [i] has children [2i] and [2i+1],
   leaf [j] lives at [cap + j].  Padding leaves (indices >= n) stay at
   [+infinity] forever, so they never join a finite minimum's count. *)

type t = { tree : Float.Array.t; counts : int array; cap : int }

let create n =
  if n < 1 then invalid_arg "Min_tree.create: n < 1";
  let cap = ref 1 in
  while !cap < n do
    cap := !cap * 2
  done;
  let cap = !cap in
  let counts = Array.make (2 * cap) 1 in
  (* All leaves start equal (+inf), so an internal node's tie count is
     its subtree size. *)
  for i = cap - 1 downto 1 do
    counts.(i) <- counts.(2 * i) + counts.((2 * i) + 1)
  done;
  { tree = Float.Array.make (2 * cap) infinity; counts; cap }

let[@inline] min_value t = Float.Array.unsafe_get t.tree 1

let[@inline] min_count t = Array.unsafe_get t.counts 1

(* Recompute node [p] from its children: exact copy of the smaller
   child's value; tie counts add when both sides share the minimum.
   Values are loads or +infinity, never NaN, so the three-way
   comparison is exhaustive. *)
let[@inline] pull_up t p =
  let l = Float.Array.unsafe_get t.tree (2 * p) in
  let r = Float.Array.unsafe_get t.tree ((2 * p) + 1) in
  let cl = Array.unsafe_get t.counts (2 * p) in
  let cr = Array.unsafe_get t.counts ((2 * p) + 1) in
  if l < r then begin
    Float.Array.unsafe_set t.tree p l;
    Array.unsafe_set t.counts p cl
  end
  else if r < l then begin
    Float.Array.unsafe_set t.tree p r;
    Array.unsafe_set t.counts p cr
  end
  else begin
    Float.Array.unsafe_set t.tree p l;
    Array.unsafe_set t.counts p (cl + cr)
  end

(* Recompute the spine above leaf [i]. *)
let[@schedsim.hot] refresh t i =
  let j = ref ((t.cap + i) lsr 1) in
  while !j >= 1 do
    pull_up t !j;
    j := !j lsr 1
  done

(* O(log n): overwrite the leaf, then recompute the spine.  Inlined, so
   the callers' float argument is never boxed. *)
let[@inline] [@schedsim.hot] set t i v =
  Float.Array.unsafe_set t.tree (t.cap + i) v;
  refresh t i

(* Counted descent to the k-th (0-indexed, ascending) tied-minimum
   leaf: at each node, the left subtree contributes its tie count iff
   its minimum equals the global one.  O(log n), allocation-free. *)
let[@schedsim.hot] nth_tied t ~k =
  if k < 0 || k >= min_count t then
    invalid_arg "Min_tree.nth_tied: k out of range";
  let v = min_value t in
  let node = ref 1 in
  let k = ref k in
  let lo = ref 0 in
  let hi = ref t.cap in
  while !hi - !lo > 1 do
    let l = 2 * !node in
    let lc =
      if Float.equal (Float.Array.unsafe_get t.tree l) v then
        Array.unsafe_get t.counts l
      else 0
    in
    let mid = (!lo + !hi) lsr 1 in
    if !k < lc then begin
      node := l;
      hi := mid
    end
    else begin
      k := !k - lc;
      node := l + 1;
      lo := mid
    end
  done;
  !lo
