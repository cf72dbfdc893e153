(* Substring search without the [str] library. *)

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else at (i + 1)
  in
  at 0
