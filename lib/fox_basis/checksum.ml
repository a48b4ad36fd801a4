type alg = [ `Basic | `Optimized ]

(* An accumulator is one immediate int: bit 0 records that an odd number
   of bytes has been accumulated (so the next byte belongs to the low
   half of the current 16-bit word), and the bits above it hold a partial
   one's-complement sum, possibly un-folded (carries pending above bit
   15).  Nothing is boxed, so threading it through [add_*] allocates
   nothing. *)
type acc = int

let zero = 0

let none = -1

let[@inline] is_none acc = acc < 0

let[@inline] sum_of acc = acc lsr 1

let[@inline] is_odd acc = acc land 1 = 1

let[@inline] make sum ~odd = (sum lsl 1) lor Bool.to_int odd

let fold16 s =
  let rec go s = if s > 0xFFFF then go ((s land 0xFFFF) + (s lsr 16)) else s in
  go s

(* The x-kernel-style loop: 16 bits at a time, folding the carry on every
   addition. *)
let sum_basic b off len init =
  let sum = ref init in
  let i = ref off in
  let stop = off + (len land lnot 1) in
  while !i < stop do
    let s = !sum + Wire.get_u16 b !i in
    sum := (s land 0xFFFF) + (s lsr 16);
    i := !i + 2
  done;
  if len land 1 = 1 then begin
    let s = !sum + (Wire.get_u8 b (off + len - 1) lsl 8) in
    sum := (s land 0xFFFF) + (s lsr 16)
  end;
  !sum

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap16 : int -> int = "%bswap16"

(* The end of a word-wide pass (Figure 10 at 64 bits).  [native] is the
   unfolded sum of 32-bit halves loaded in native byte order; one's-
   complement addition is byte-order independent (RFC 1071 §2(B)), so it
   is folded and swapped to big-endian once, then [init] and the last
   [len] (< 8) bytes at [b.[off]] are added as big-endian words. *)
let finish_wide native b off len init =
  let s = fold16 native in
  let sum = ref (init + if Sys.big_endian then s else bswap16 s) in
  let i = ref off and stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Wire.get_u16 b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Wire.get_u8 b !i lsl 8);
  fold16 !sum

(* Figure 10 of the paper at the machine's word size: 8-byte loads, both
   32-bit halves added into the 63-bit native int so carries pile up in
   the high bits (2^29 loads, 4 GB, before any could be lost).  The
   caller has range-checked [off, len]. *)
let sum_optimized b off len init =
  let stop = off + (len land lnot 7) in
  let sum = ref 0 and i = ref off in
  while !i < stop do
    let w = get64u b !i in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFF_FFFF);
    i := !i + 8
  done;
  finish_wide !sum b stop (off + len - stop) init

let sum_range alg b off len init =
  match alg with
  | `Basic -> sum_basic b off len init
  | `Optimized -> sum_optimized b off len init

let bytes_summed = ref 0

let add_bytes ?(alg = `Optimized) acc b off len =
  if len < 0 || off < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.add_bytes";
  bytes_summed := !bytes_summed + len;
  if len = 0 then acc
  else if not (is_odd acc) then
    make (sum_range alg b off len (sum_of acc)) ~odd:(len land 1 = 1)
  else
    (* First byte completes the pending word (low half); the remainder is
       summed at even parity. *)
    let sum = fold16 (sum_of acc) + Wire.get_u8 b off in
    let rest = sum_range alg b (off + 1) (len - 1) 0 in
    make (fold16 sum + fold16 rest) ~odd:(len land 1 = 0)

let add_u16 acc v =
  if is_odd acc then invalid_arg "Checksum.add_u16: odd parity";
  acc + ((v land 0xFFFF) lsl 1)

let finish acc = fold16 (sum_of acc)

let checksum_of acc = lnot (finish acc) land 0xFFFF

let checksum ?(alg = `Optimized) b off len =
  checksum_of (add_bytes ~alg zero b off len)

let valid acc = finish acc = 0xFFFF

(* The pseudo-header's six 16-bit words in one sum. *)
let pseudo_ipv4 ~src ~dst ~proto ~len =
  make
    ((src lsr 16 land 0xFFFF) + (src land 0xFFFF)
    + (dst lsr 16 land 0xFFFF) + (dst land 0xFFFF)
    + (proto land 0xFF) + (len land 0xFFFF))
    ~odd:false

let reference b off len =
  let sum = ref 0 in
  for i = 0 to len - 1 do
    let byte = Wire.get_u8 b (off + i) in
    sum := !sum + if i land 1 = 0 then byte lsl 8 else byte
  done;
  lnot (fold16 !sum) land 0xFFFF
