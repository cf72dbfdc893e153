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

(* Algorithm 2, parameterised for the ablation variants. *)
let round_robin_impl ~variant_name ~guard ~tie_by_norassign alpha =
  validate_fractions alpha;
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let assign = Array.make n 0 in
  let next = Array.make n (if guard then 1.0 else 0.0) in
  let reset_fn () =
    Array.fill assign 0 n 0;
    Array.fill next 0 n (if guard then 1.0 else 0.0)
  in
  let select_fn () =
    let sel = ref (-1) in
    let minnext = ref infinity in
    let norassign = ref infinity in
    for i = 0 to n - 1 do
      if alpha.(i) > 0.0 then begin
        let candidate_nor = float_of_int (assign.(i) + 1) /. alpha.(i) in
        if !sel = -1 || next.(i) < !minnext then begin
          sel := i;
          minnext := next.(i);
          norassign := candidate_nor
        end
        else if Float.equal next.(i) !minnext && tie_by_norassign && candidate_nor < !norassign
        then begin
          sel := i;
          norassign := candidate_nor
        end
      end
    done;
    let s = !sel in
    assert (s >= 0);
    if guard && assign.(s) = 0 then next.(s) <- 0.0;
    next.(s) <- next.(s) +. (1.0 /. alpha.(s));
    assign.(s) <- assign.(s) + 1;
    for i = 0 to n - 1 do
      if assign.(i) <> 0 then next.(i) <- next.(i) -. 1.0
    done;
    s
  in
  { name = variant_name; fractions = alpha; select_fn; reset_fn }

let round_robin alpha =
  round_robin_impl ~variant_name:"round-robin" ~guard:true ~tie_by_norassign:true alpha

let round_robin_no_guard alpha =
  round_robin_impl ~variant_name:"round-robin/no-guard" ~guard:false
    ~tie_by_norassign:true alpha

let round_robin_index_ties alpha =
  round_robin_impl ~variant_name:"round-robin/index-ties" ~guard:true
    ~tie_by_norassign:false alpha

(* Algorithm 2 in offset form, O(log n) per decision.

   The eager loop above subtracts 1.0 from every started computer's
   [next] after each select — O(n) per arrival, prohibitive at n = 10^4
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

   Arithmetic caveat: [stored - A] reassociates the eager version's
   interleaved +/-1.0 updates, so with arbitrary fractions the two
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
       tie-break key for future comparisons is [(assign+2)/alpha].
       Direct leaf stores + refresh (the {!Lex_tree} raw-access
       contract) keep the decision free of boxed floats in dev
       builds. *)
    let pos = Lex_tree.leaf_pos tree s in
    let prim_leaves = Lex_tree.prim_leaves tree in
    if assign.(s) = 0 then begin
      (* First selection.  An unstarted winner is always the queue head
         (the tree only holds started computers), and the eager version
         resets the guard to 0 before crediting, so
         stored = 1/alpha + A(before this select). *)
      incr head;
      Float.Array.unsafe_set prim_leaves pos ((1.0 /. alpha.(s)) +. a_now)
    end
    else
      Float.Array.unsafe_set prim_leaves pos
        (Float.Array.unsafe_get prim_leaves pos +. (1.0 /. alpha.(s)));
    Float.Array.unsafe_set (Lex_tree.sec_leaves tree) pos
      (float_of_int (assign.(s) + 2) /. alpha.(s));
    Lex_tree.refresh tree s;
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
