(* Flat tournament tree over lexicographic float pairs.

   Like {!Min_tree}, but each leaf carries a (primary, secondary) key
   and every internal node holds an exact copy of the lexicographically
   minimal descendant's pair together with that leaf's index — ties on
   both keys resolve toward the smaller index for free, because the
   left subtree's leaves all precede the right's.

   Built for the lazy round-robin dispatcher, whose selection key is
   (virtual next-arrival credit, normalised assignment count, index):
   the eager Algorithm 2 scan compares that triple, and here the argmin
   under the same triple is an O(1) root read instead of a walk over
   the credit-tied cohort — which at n = 10^4 ties thousands deep.

   No arithmetic is performed on stored values (exact copies only), so
   decisions are bit-faithful to the linear scan.  Values are credits
   and counts, never NaN. *)

type t = {
  prim : Float.Array.t;
  sec : Float.Array.t;
  arg : int array;  (* winning leaf index of each subtree *)
  cap : int;
  n : int;
}

let create n =
  if n < 1 then invalid_arg "Lex_tree.create: n < 1";
  let cap = ref 1 in
  while !cap < n do
    cap := !cap * 2
  done;
  let cap = !cap in
  let arg = Array.make (2 * cap) 0 in
  for j = 0 to cap - 1 do
    arg.(cap + j) <- j
  done;
  (* All leaves start equal, so every subtree's winner is its leftmost
     leaf. *)
  for i = cap - 1 downto 1 do
    arg.(i) <- arg.(2 * i)
  done;
  {
    prim = Float.Array.make (2 * cap) infinity;
    sec = Float.Array.make (2 * cap) infinity;
    arg;
    cap;
    n;
  }

let[@inline] min_prim t = Float.Array.unsafe_get t.prim 1
let[@inline] min_sec t = Float.Array.unsafe_get t.sec 1
let[@inline] argmin t = Array.unsafe_get t.arg 1
let[@inline] prim t i = Float.Array.unsafe_get t.prim (t.cap + i)

(* Copy the lexicographically smaller child up.  A tie on both keys
   goes left: the left winner's leaf index is always smaller. *)
let[@inline] pull_up t p =
  let l = 2 * p in
  let r = l + 1 in
  let pl = Float.Array.unsafe_get t.prim l in
  let pr = Float.Array.unsafe_get t.prim r in
  let w =
    if pl < pr then l
    else if pr < pl then r
    else if Float.Array.unsafe_get t.sec l <= Float.Array.unsafe_get t.sec r
    then l
    else r
  in
  Float.Array.unsafe_set t.prim p (Float.Array.unsafe_get t.prim w);
  Float.Array.unsafe_set t.sec p (Float.Array.unsafe_get t.sec w);
  Array.unsafe_set t.arg p (Array.unsafe_get t.arg w)

(* Recompute the spine above leaf [i]. *)
let[@schedsim.hot] refresh t i =
  let j = ref ((t.cap + i) lsr 1) in
  while !j >= 1 do
    pull_up t !j;
    j := !j lsr 1
  done

(* O(log n): overwrite the leaf pair, then recompute the spine.
   Inlined, so the callers' float arguments are never boxed. *)
let[@inline] [@schedsim.hot] set t i ~prim ~sec =
  Float.Array.unsafe_set t.prim (t.cap + i) prim;
  Float.Array.unsafe_set t.sec (t.cap + i) sec;
  refresh t i

let fill t ~prim ~sec =
  for i = 0 to t.n - 1 do
    Float.Array.unsafe_set t.prim (t.cap + i) prim;
    Float.Array.unsafe_set t.sec (t.cap + i) sec
  done;
  for i = t.cap - 1 downto 1 do
    pull_up t i
  done
