(* Fibonacci-style hashing: the product's high bits mix every bit of the
   key, so they are shifted down to where bucket indices are taken. *)
let int k = (k * 0x1E3779B97F4A7C15) lsr 31

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = int
end)
