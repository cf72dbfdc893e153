type t = Xoshiro256.t

let default_seed = 0x5EEDFACE5EEDL

let create ?(seed = default_seed) () = Xoshiro256.create seed

let copy = Xoshiro256.copy

let split g =
  let a = Xoshiro256.next g in
  let b = Xoshiro256.next g in
  Xoshiro256.create (Int64.logxor a (Int64.mul b 0x9E3779B97F4A7C15L))

let substream = Xoshiro256.substream

let[@inline] [@schedsim.hot] float g = Xoshiro256.next_float g

let uniform g a b =
  if a > b then invalid_arg "Rng.uniform: a > b";
  a +. ((b -. a) *. float g)

(* Rejection sampling to avoid modulo bias; the loop lives in
   {!Xoshiro256.next_int} fused with the state update so no boxed
   [int64] is allocated per draw. *)
let[@inline] [@schedsim.hot] int g n =
  if n <= 0 then invalid_arg "Rng.int: n <= 0";
  Xoshiro256.next_int g n

let bits64 = Xoshiro256.next

let[@inline] [@schedsim.hot] bits53 g = Xoshiro256.next_bits53 g

let bool g = Int64.logand (Xoshiro256.next g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
