(* Growable float / int arrays for recording streams without boxing. *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let c = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 c 0 b.n;
      b.a <- c
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let c = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 c 0 b.n;
      b.a <- c
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end
