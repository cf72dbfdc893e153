module Rng = Statsched_prng.Rng

type t = {
  name : string;
  fractions : float array;
  select_fn : unit -> int;
  reset_fn : unit -> unit;
}

let select t = t.select_fn ()
let name t = t.name
let fractions t = Array.copy t.fractions
let reset t = t.reset_fn ()

let validate_fractions alpha =
  let n = Array.length alpha in
  if n = 0 then invalid_arg "Dispatch: empty fractions";
  let sum = ref 0.0 in
  Array.iter
    (fun a ->
      if not (Float.is_finite a) || a < 0.0 then
        invalid_arg "Dispatch: fractions must be non-negative and finite";
      sum := !sum +. a)
    alpha;
  if abs_float (!sum -. 1.0) > 1e-9 then
    invalid_arg "Dispatch: fractions must sum to 1"

let random ~rng alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. alpha.(i);
    cum.(i) <- !acc
  done;
  cum.(n - 1) <- 1.0;
  let select_fn () =
    let u = Rng.float rng in
    (* Binary search for the first cumulative value strictly above u. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  in
  { name = "random"; fractions = alpha; select_fn; reset_fn = (fun () -> ()) }

(* Walker's alias method: a uniform cell index plus one biased coin
   reproduces the target distribution exactly. *)
let random_alias ~rng alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let table = Walker_alias.create alpha in
  {
    name = "random-alias";
    fractions = alpha;
    select_fn = (fun () -> Walker_alias.draw table rng);
    reset_fn = (fun () -> ());
  }

(* Algorithm 2, parameterised for the ablation variants, over the live
   computers only: a computer with alpha = 0 is never selected, so
   leaving it out of the scan is exact.  The arrays are indexed by live
   rank, in computer-index order. *)
type rr = {
  computer : int array;  (* the computer behind each live rank *)
  alpha : float array;
  inv_alpha : float array;
  assign : int array;
  next : float array;
  mutable started : int;  (* live computers with [assign > 0] *)
  guard : bool;
  tie_by_norassign : bool;
}

(* The tie-break of Algorithm 2: rank [i] has a smaller normalised
   assignment count [(assign+1)/alpha] than rank [j]. *)
let[@inline] norassign_below r i j =
  float_of_int (r.assign.(i) + 1) /. r.alpha.(i)
  < float_of_int (r.assign.(j) + 1) /. r.alpha.(j)

(* One pass over the live ranks.  Algorithm 2 ends each select by
   taking 1.0 from the [next] of every started computer; here that -1.0
   is owed to the next select, which applies it to each element just
   before comparing it, so every element still sees the same float
   operations in the same order.  The first select after creation or
   [reset] owes nothing, and indeed no computer has started then.  Once
   all have started, the first loop drops the [assign] test.  The tie
   key is computed only when [x] equals the minimum.  The loops index
   [next] and [assign] below their common length [m], so they skip the
   bounds checks. *)
let[@schedsim.hot] rr_select r =
  let next = r.next and assign = r.assign in
  let m = Array.length next in
  let sel = ref 0 in
  if r.started = m then begin
    let x0 = next.(0) -. 1.0 in
    next.(0) <- x0;
    let minnext = ref x0 in
    for i = 1 to m - 1 do
      let x = Array.unsafe_get next i -. 1.0 in
      Array.unsafe_set next i x;
      if x < !minnext then begin
        sel := i;
        minnext := x
      end
      else if x <= !minnext && r.tie_by_norassign && norassign_below r i !sel then sel := i
    done
  end
  else begin
    if assign.(0) <> 0 then next.(0) <- next.(0) -. 1.0;
    let minnext = ref next.(0) in
    for i = 1 to m - 1 do
      if Array.unsafe_get assign i <> 0 then
        Array.unsafe_set next i (Array.unsafe_get next i -. 1.0);
      let x = Array.unsafe_get next i in
      if x < !minnext then begin
        sel := i;
        minnext := x
      end
      else if x <= !minnext && r.tie_by_norassign && norassign_below r i !sel then sel := i
    done
  end;
  let s = !sel in
  if assign.(s) = 0 then begin
    r.started <- r.started + 1;
    if r.guard then next.(s) <- 0.0
  end;
  next.(s) <- next.(s) +. r.inv_alpha.(s);
  assign.(s) <- assign.(s) + 1;
  r.computer.(s)

let round_robin_impl ~variant_name ~guard ~tie_by_norassign alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let computer =
    List.init (Array.length alpha) Fun.id
    |> List.filter (fun i -> alpha.(i) > 0.0)
    |> Array.of_list
  in
  let m = Array.length computer in
  let guard_value = if guard then 1.0 else 0.0 in
  let r =
    {
      computer;
      alpha = Array.map (fun i -> alpha.(i)) computer;
      inv_alpha = Array.map (fun i -> 1.0 /. alpha.(i)) computer;
      assign = Array.make m 0;
      next = Array.make m guard_value;
      started = 0;
      guard;
      tie_by_norassign;
    }
  in
  let reset_fn () =
    Array.fill r.assign 0 m 0;
    Array.fill r.next 0 m guard_value;
    r.started <- 0
  in
  { name = variant_name; fractions = alpha; select_fn = (fun () -> rr_select r); reset_fn }

let round_robin alpha =
  round_robin_impl ~variant_name:"round-robin" ~guard:true ~tie_by_norassign:true alpha

let round_robin_no_guard alpha =
  round_robin_impl ~variant_name:"round-robin/no-guard" ~guard:false
    ~tie_by_norassign:true alpha

let round_robin_index_ties alpha =
  round_robin_impl ~variant_name:"round-robin/index-ties" ~guard:true
    ~tie_by_norassign:false alpha

(* Algorithm 2 in offset form, O(log n) per decision.

   The scan above visits every live computer and takes 1.0 from every
   started one's [next] — O(n) per arrival, prohibitive at n = 10^4
   over 10^7 jobs.  Store instead [stored_i = next_i + A] where [A]
   counts selects so far: the global decrement becomes "A += 1" and a
   select only touches the chosen computer, so a tournament tree over
   the stored values yields the argmin in O(log n).

   Unstarted computers all sit at the guard value [next = 1.0] with
   tie-break key [(assign+1)/alpha = 1/alpha], so their priority order
   is static: a queue sorted by (1/alpha, index), consumed from the
   head.  A select therefore compares the best started candidate
   against the unstarted head under the same [(next, norassign, index)]
   order as the scan.  The started candidate comes from a lexicographic
   tournament tree keyed by [(stored, norassign)] with index ties going
   left, so it is an O(1) root read — a plain min-tree would need a
   walk over the credit-tied cohort, which on a large homogeneous
   cohort (thousands of equal-alpha computers at n = 10^4) degenerates
   to O(ties log n) per decision.

   Arithmetic caveat: [stored - A] reassociates the scan's interleaved
   +/-1.0 updates, so with arbitrary fractions the two
   variants can round ties differently.  When every fraction is a power
   of two all values are dyadic and exact, and the decision sequences
   are bit-identical — the equivalence test pins exactly that.  [A]
   reaches 10^7 in the scale sweeps, where a double still resolves
   2e-9 — far below the ~[1/alpha] spacing of the credits. *)
let round_robin_lazy alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let assign = Array.make n 0 in
  let tree = Lex_tree.create n in
  let a = Float.Array.make 1 0.0 in  (* A: selects so far, unboxed *)
  let order =
    (* Unstarted priority: (1/alpha asc, index asc); alpha = 0 excluded. *)
    let idx = ref [] in
    for i = n - 1 downto 0 do
      if alpha.(i) > 0.0 then idx := i :: !idx
    done;
    let arr = Array.of_list !idx in
    Array.sort
      (fun i j ->
        let c = Float.compare (1.0 /. alpha.(i)) (1.0 /. alpha.(j)) in
        if c <> 0 then c else Int.compare i j)
      arr;
    arr
  in
  let n_order = Array.length order in
  let head = ref 0 in
  let reset_fn () =
    Array.fill assign 0 n 0;
    Lex_tree.fill tree ~prim:infinity ~sec:infinity;
    Float.Array.set a 0 0.0;
    head := 0
  in
  let select_fn () =
    let a_now = Float.Array.get a 0 in
    let stored_min = Lex_tree.min_prim tree in
    let eff = stored_min -. a_now in  (* +inf when nothing started *)
    let have_unstarted = !head < n_order in
    (* Best started candidate: the tree's secondary key is exactly the
       scan's tie-break [(assign+1)/alpha] (maintained on every set),
       so the lexicographic root IS the winner — no tie walk. *)
    let s =
      if not have_unstarted then Lex_tree.argmin tree
      else if eff < 1.0 then Lex_tree.argmin tree
      else if Float.equal eff 1.0 then begin
        (* Guard-row tie: the unstarted head competes on the same
           (norassign, index) key. *)
        let s = Lex_tree.argmin tree in
        let nor_s = Lex_tree.min_sec tree in
        let u = order.(!head) in
        let nor_u = 1.0 /. alpha.(u) in
        if nor_u < nor_s || (Float.equal nor_u nor_s && u < s) then u else s
      end
      else order.(!head)
    in
    (* After this select [assign s] becomes assign+1, so the leaf's
       tie-break key for future comparisons is [(assign+2)/alpha]. *)
    let sec = float_of_int (assign.(s) + 2) /. alpha.(s) in
    if assign.(s) = 0 then begin
      (* First selection.  An unstarted winner is always the queue head
         (the tree only holds started computers), and the eager version
         resets the guard to 0 before crediting, so
         stored = 1/alpha + A(before this select). *)
      incr head;
      Lex_tree.set tree s ~prim:((1.0 /. alpha.(s)) +. a_now) ~sec
    end
    else
      Lex_tree.set tree s ~prim:(Lex_tree.prim tree s +. (1.0 /. alpha.(s))) ~sec;
    assign.(s) <- assign.(s) + 1;
    Float.Array.set a 0 (a_now +. 1.0);
    s
  in
  { name = "round-robin/lazy"; fractions = alpha; select_fn; reset_fn }

let smooth_weighted alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let current = Array.make n 0.0 in
  let select_fn () =
    let best = ref 0 in
    for i = 0 to n - 1 do
      current.(i) <- current.(i) +. alpha.(i);
      if current.(i) > current.(!best) then best := i
    done;
    current.(!best) <- current.(!best) -. 1.0;
    !best
  in
  {
    name = "smooth-wrr";
    fractions = alpha;
    select_fn;
    reset_fn = (fun () -> Array.fill current 0 n 0.0);
  }

let golden_ratio alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. alpha.(i);
    cum.(i) <- !acc
  done;
  cum.(n - 1) <- 1.0;
  let inv_phi = 2.0 /. (1.0 +. sqrt 5.0) in
  let u = ref 0.0 in
  let select_fn () =
    u := !u +. inv_phi;
    if !u >= 1.0 then u := !u -. 1.0;
    let x = !u in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  in
  {
    name = "golden-ratio";
    fractions = alpha;
    select_fn;
    reset_fn = (fun () -> u := 0.0);
  }
