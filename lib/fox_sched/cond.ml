open Fox_basis

(* Two mutable rings: blocked waiters' resumptions, and values signalled
   while nobody waited.  At most one of them is non-empty.  [values] has
   no element to fill its empty cells with, so it uses an immediate
   placeholder; [Ring] never returns a cell's filler. *)
type 'a t = { waiting : ('a -> unit) Ring.t; values : 'a Ring.t }

let create () =
  {
    waiting = Ring.create ~dummy:ignore;
    values = Ring.create ~dummy:(Obj.magic 0);
  }

let wait c =
  if Ring.is_empty c.values then
    Scheduler.suspend (fun resume -> Ring.push c.waiting resume)
  else Ring.pop c.values

let try_wait c =
  if Ring.is_empty c.values then None else Some (Ring.pop c.values)

let signal c v =
  if Ring.is_empty c.waiting then Ring.push c.values v
  else (Ring.pop c.waiting) v

let broadcast c v =
  (* exactly the threads blocked now: a resumption only queues its thread
     to run, so none of them can wait or signal again inside this loop *)
  for _ = 1 to Ring.length c.waiting do
    (Ring.pop c.waiting) v
  done

let waiters c = Ring.length c.waiting

let pending c = Ring.length c.values
