type t = {
  mutable size : Float.Array.t;
  mutable arrival : Float.Array.t;
  mutable start : Float.Array.t;
  mutable completion : Float.Array.t;
  mutable left : Float.Array.t;
  mutable id : int array;
  mutable computer : int array;
  mutable free : int array;  (* a stack: [free.(0 .. top-1)] are free *)
  mutable top : int;
}

let create () =
  let none = Float.Array.create 0 in
  {
    size = none;
    arrival = none;
    start = none;
    completion = none;
    left = none;
    id = [||];
    computer = [||];
    free = [||];
    top = 0;
  }

let capacity t = Array.length t.id

(* Double every column; the new slots go on the free-list lowest on top,
   so slots are handed out in index order. *)
let[@schedsim.cold] grow t =
  let cap = capacity t in
  let cap' = max 16 (2 * cap) in
  let floats a =
    let b = Float.Array.make cap' 0.0 in
    Float.Array.blit a 0 b 0 cap;
    b
  in
  let ints a =
    let b = Array.make cap' 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.size <- floats t.size;
  t.arrival <- floats t.arrival;
  t.start <- floats t.start;
  t.completion <- floats t.completion;
  t.left <- floats t.left;
  t.id <- ints t.id;
  t.computer <- ints t.computer;
  let free = Array.make cap' 0 in
  Array.blit t.free 0 free 0 t.top;
  for k = 0 to cap' - cap - 1 do
    free.(t.top + k) <- cap' - 1 - k
  done;
  t.free <- free;
  t.top <- t.top + (cap' - cap)

let[@inline] [@schedsim.hot] add t ~id ~size ~arrival =
  if size <= 0.0 then invalid_arg "Job_store.add: size <= 0";
  if arrival < 0.0 then invalid_arg "Job_store.add: arrival < 0";
  if t.top = 0 then grow t;
  t.top <- t.top - 1;
  let s = Array.unsafe_get t.free t.top in
  Array.unsafe_set t.id s id;
  Float.Array.unsafe_set t.size s size;
  Float.Array.unsafe_set t.arrival s arrival;
  Array.unsafe_set t.computer s (-1);
  Float.Array.unsafe_set t.start s (-1.0);
  Float.Array.unsafe_set t.completion s (-1.0);
  s

let[@inline] [@schedsim.hot] release t s =
  t.free.(t.top) <- s;
  t.top <- t.top + 1

let[@inline] id t s = t.id.(s)
let[@inline] size t s = Float.Array.get t.size s
let[@inline] arrival t s = Float.Array.get t.arrival s
let[@inline] computer t s = t.computer.(s)
let[@inline] set_computer t s c = t.computer.(s) <- c
let[@inline] start t s = Float.Array.get t.start s
let[@inline] set_start t s x = Float.Array.set t.start s x
let[@inline] completion t s = Float.Array.get t.completion s
let[@inline] set_completion t s x = Float.Array.set t.completion s x
let[@inline] left t s = Float.Array.get t.left s
let[@inline] set_left t s x = Float.Array.set t.left s x
