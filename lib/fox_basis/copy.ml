type impl = Byte | Unrolled | Word | Blit

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let byte_copy src soff dst doff len =
  for i = 0 to len - 1 do
    Bytes.set dst (doff + i) (Bytes.get src (soff + i))
  done

let unrolled_copy src soff dst doff len =
  let i = ref 0 in
  let stop = len - 3 in
  while !i < stop do
    let i0 = !i in
    Bytes.set dst (doff + i0) (Bytes.get src (soff + i0));
    Bytes.set dst (doff + i0 + 1) (Bytes.get src (soff + i0 + 1));
    Bytes.set dst (doff + i0 + 2) (Bytes.get src (soff + i0 + 2));
    Bytes.set dst (doff + i0 + 3) (Bytes.get src (soff + i0 + 3));
    i := i0 + 4
  done;
  while !i < len do
    Bytes.set dst (doff + !i) (Bytes.get src (soff + !i));
    incr i
  done

let word_copy src soff dst doff len =
  let i = ref 0 in
  let stop = len - 7 in
  while !i < stop do
    Bytes.set_int64_ne dst (doff + !i) (Bytes.get_int64_ne src (soff + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.set dst (doff + !i) (Bytes.get src (soff + !i));
    incr i
  done

let blit src soff dst doff len = Bytes.blit src soff dst doff len

let bytes_fused = ref 0

(* Fused copy-and-checksum: one pass over the source copies it into the
   destination 8 bytes at a time while accumulating both 32-bit halves of
   each load in native byte order, as [Checksum]'s [`Optimized] loop does;
   [Checksum.finish_wide] swaps the sum to big-endian once and adds
   [init] and the 0..7 tail bytes.  Returns the folded 16-bit sum. *)
let blit_checksum src soff dst doff len ~init =
  if len < 0 || soff < 0 || doff < 0
     || soff + len > Bytes.length src
     || doff + len > Bytes.length dst
  then invalid_arg "Copy.blit_checksum";
  bytes_fused := !bytes_fused + len;
  let stop = len land lnot 7 in
  let sum = ref 0 and i = ref 0 in
  while !i < stop do
    let w = get64u src (soff + !i) in
    set64u dst (doff + !i) w;
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFF_FFFF);
    i := !i + 8
  done;
  Bytes.blit src (soff + stop) dst (doff + stop) (len - stop);
  Checksum.finish_wide !sum dst (doff + stop) (len - stop) init

let copy = function
  | Byte -> byte_copy
  | Unrolled -> unrolled_copy
  | Word -> word_copy
  | Blit -> blit

let all =
  [ ("byte", Byte); ("unrolled", Unrolled); ("word", Word); ("blit", Blit) ]
