(* Power-of-two bucketed histogram: bucket i counts samples v with
   2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v = 1 shares bucket 1
   via the ceiling log).  63 buckets cover the whole int range, so [add]
   is branch-light and allocation-free. *)

type t = {
  name : string;
  buckets : int array;  (* index = bits needed for the value *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(name = "") () =
  { name; buckets = Array.make 64 0; count = 0; sum = 0;
    min_v = max_int; max_v = min_int }

let bucket_of v =
  if v <= 0 then 0
  else
    (* number of significant bits: 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0

let add t v =
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count

let sum t = t.sum

let min_value t = if t.count = 0 then 0 else t.min_v

let max_value t = if t.count = 0 then 0 else t.max_v

let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Upper bound of a bucket: the largest value it can hold. *)
let upper i = if i = 0 then 0 else (1 lsl i) - 1

let buckets t =
  let acc = ref [] in
  for i = 63 downto 0 do
    if t.buckets.(i) > 0 then acc := (upper i, t.buckets.(i)) :: !acc
  done;
  !acc

(* p in [0,1]: smallest bucket upper bound covering fraction p of the
   samples — coarse (factor-of-two) but monotone and allocation-free. *)
let percentile t p =
  if t.count = 0 then 0
  else begin
    let want =
      int_of_float (ceil (p *. float_of_int t.count)) |> Int.max 1
    in
    let seen = ref 0 and result = ref (upper 63) and found = ref false in
    for i = 0 to 63 do
      if not !found then begin
        seen := !seen + t.buckets.(i);
        if !seen >= want then begin
          result := upper i;
          found := true
        end
      end
    done;
    !result
  end

let clear t =
  Array.fill t.buckets 0 64 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- min_int

let to_string t =
  if t.count = 0 then Printf.sprintf "%s: empty" t.name
  else
    Printf.sprintf "%s: n=%d mean=%.1f min=%d p50<=%d p99<=%d max=%d" t.name
      t.count (mean t) (min_value t) (percentile t 0.5) (percentile t 0.99)
      (max_value t)
