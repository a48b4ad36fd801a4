(** Mutable first-in first-out queues in a growable power-of-two ring.

    The scheduler's run queue and the link's per-medium departure times
    live here.  Elements sit in one array indexed modulo its length, so
    {!push}, {!peek} and {!pop} allocate nothing (beyond doubling the
    array when it fills): no list cell, no option, no tuple. *)

type 'a t

(** [create ~dummy] is an empty queue.  [dummy] fills the cells that
    hold no element, so that a popped value is not kept alive; it is
    never returned. *)
val create : dummy:'a -> 'a t

(** [length q] is the number of elements. *)
val length : 'a t -> int

(** [is_empty q] is true iff [q] holds no elements. *)
val is_empty : 'a t -> bool

(** [push q v] adds [v] at the back. *)
val push : 'a t -> 'a -> unit

(** [peek q] is the front element.
    @raise Invalid_argument if [q] is empty. *)
val peek : 'a t -> 'a

(** [pop q] removes and returns the front element.
    @raise Invalid_argument if [q] is empty. *)
val pop : 'a t -> 'a

(** [clear q] removes all elements; [q] can be reused. *)
val clear : 'a t -> unit
