(* splitmix64: fast, well-distributed, and trivially seedable.

   The 64-bit state is kept as two 32-bit halves in immediate fields: an
   [int64] field would be a box that every draw replaces, where this way
   a draw allocates nothing ([next] is inlined into each drawing
   function, so its [int64]s stay in registers). *)

type t = { mutable hi : int; mutable lo : int }

let[@inline] set t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land 0xFFFF_FFFF

let of_state s =
  let t = { hi = 0; lo = 0 } in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let s =
    Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)
  in
  let z = Int64.add s 0x9E3779B97F4A7C15L in
  set t z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next t)

(* Drop two bits so the result always fits a non-negative native int. *)
let[@inline] bits64 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  bits64 t mod bound

let[@inline] float t =
  float_of_int (bits64 t land 0x1F_FFFF_FFFF_FFFF) /. 9007199254740992.0

let bool t p = float t < p

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b
