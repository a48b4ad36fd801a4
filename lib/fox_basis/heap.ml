(* Array-backed binary min-heap keyed by ints, in three parallel arrays:
   keys, insertion sequence numbers and values.  The sequence number
   breaks ties so that equal keys pop in FIFO order, which keeps the
   scheduler deterministic.  Sifting moves a hole rather than swapping,
   and nothing is boxed: add, min_key and pop_min allocate nothing
   except when the arrays grow. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create ~dummy =
  { dummy; keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let size h = h.len

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let keys = Array.make ncap 0 and seqs = Array.make ncap 0 in
  let vals = Array.make ncap h.dummy in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let before h i key seq =
  let k = Array.unsafe_get h.keys i in
  k < key || (k = key && Array.unsafe_get h.seqs i < seq)

let set h i key seq v =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.vals i v

let move h ~src ~dst =
  set h dst (Array.unsafe_get h.keys src) (Array.unsafe_get h.seqs src)
    (Array.unsafe_get h.vals src)

(* [sift_up h i key seq] moves the hole at [i] up past every parent that
   (key, seq) precedes and returns where the hole stopped. *)
let rec sift_up h i key seq =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before h parent key seq then i
    else begin
      move h ~src:parent ~dst:i;
      sift_up h parent key seq
    end

(* [sift_down h len i key seq] moves the hole at [i] down past every child
   that precedes (key, seq), within the first [len] cells. *)
let rec sift_down h len i key seq =
  let l = (2 * i) + 1 in
  if l >= len then i
  else
    let r = l + 1 in
    let c =
      if r < len && before h r (Array.unsafe_get h.keys l) (Array.unsafe_get h.seqs l)
      then r
      else l
    in
    if before h c key seq then begin
      move h ~src:c ~dst:i;
      sift_down h len c key seq
    end
    else i

let add h key v =
  if h.len = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  set h (sift_up h h.len key seq) key seq v;
  h.len <- h.len + 1

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty";
  Array.unsafe_get h.keys 0

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty";
  let top = Array.unsafe_get h.vals 0 in
  let last = h.len - 1 in
  h.len <- last;
  let key = Array.unsafe_get h.keys last
  and seq = Array.unsafe_get h.seqs last
  and v = Array.unsafe_get h.vals last in
  (* the vacated cell must not keep its value alive *)
  Array.unsafe_set h.vals last h.dummy;
  if last > 0 then set h (sift_down h last 0 key seq) key seq v;
  top

let clear h =
  Array.fill h.vals 0 h.len h.dummy;
  h.len <- 0
