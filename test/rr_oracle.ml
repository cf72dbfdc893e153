(* Algorithm 2 as the paper states it, the reference for
   [Dispatch.round_robin] and its two ablation variants.  Each select
   scans all n computers, computes the tie key [(assign+1)/alpha] of
   every live one, and ends with a second pass that takes 1.0 from the
   [next] of every started computer.  The library's one-pass scan must
   pick the same computer at every decision. *)

type t = { select : unit -> int; reset : unit -> unit }

let create ~guard ~tie_by_norassign alpha =
  let alpha = Array.copy alpha in
  let n = Array.length alpha in
  let assign = Array.make n 0 in
  let next = Array.make n (if guard then 1.0 else 0.0) in
  let reset () =
    Array.fill assign 0 n 0;
    Array.fill next 0 n (if guard then 1.0 else 0.0)
  in
  let select () =
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
  { select; reset }
