(* A power-of-two ring: [len] elements from [head], wrapping through
   [mask = Array.length cells - 1].  Growing copies the elements out in
   queue order, so the new ring starts at 0.  A popped cell is
   overwritten with [dummy] so the ring does not keep its value alive.
   The first push allocates 4 cells: most rings (a connection's send and
   retransmission queues, a mailbox) stay that small for their life. *)

type 'a t = {
  dummy : 'a;
  mutable cells : 'a array;
  mutable head : int;
  mutable len : int;
}

let create ~dummy = { dummy; cells = [||]; head = 0; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

let grow q =
  let cap = Array.length q.cells in
  let cells = Array.make (if cap = 0 then 4 else cap * 2) q.dummy in
  let first = Int.min q.len (cap - q.head) in
  Array.blit q.cells q.head cells 0 first;
  Array.blit q.cells 0 cells first (q.len - first);
  q.cells <- cells;
  q.head <- 0

let push q v =
  if q.len = Array.length q.cells then grow q;
  let mask = Array.length q.cells - 1 in
  Array.unsafe_set q.cells ((q.head + q.len) land mask) v;
  q.len <- q.len + 1

let push_front q v =
  if q.len = Array.length q.cells then grow q;
  let head = (q.head - 1) land (Array.length q.cells - 1) in
  Array.unsafe_set q.cells head v;
  q.head <- head;
  q.len <- q.len + 1

let peek q =
  if q.len = 0 then invalid_arg "Ring.peek: empty";
  Array.unsafe_get q.cells q.head

let pop q =
  if q.len = 0 then invalid_arg "Ring.pop: empty";
  let v = Array.unsafe_get q.cells q.head in
  Array.unsafe_set q.cells q.head q.dummy;
  q.head <- (q.head + 1) land (Array.length q.cells - 1);
  q.len <- q.len - 1;
  v

let clear q =
  Array.fill q.cells 0 (Array.length q.cells) q.dummy;
  q.head <- 0;
  q.len <- 0

let iter f q =
  let mask = Array.length q.cells - 1 in
  for i = 0 to q.len - 1 do
    f (Array.unsafe_get q.cells ((q.head + i) land mask))
  done

let to_list q =
  let mask = Array.length q.cells - 1 in
  let rec from i acc =
    if i < 0 then acc
    else from (i - 1) (Array.unsafe_get q.cells ((q.head + i) land mask) :: acc)
  in
  from (q.len - 1) []
