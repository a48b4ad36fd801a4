(** Mutable first-in first-out queues in a growable power-of-two ring.

    The repository's one queue type.  The scheduler's run queue, the
    link's per-medium departure times, a TCP connection's send and
    retransmission queues, the monolithic baseline's unacked and pending
    queues and the {!Fox_sched.Cond} mailboxes live here.  Elements sit
    in one array indexed modulo its length, so {!push}, {!peek} and
    {!pop} allocate nothing (beyond doubling the array when it fills): no
    list cell, no option, no tuple. *)

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

(** [push_front q v] adds [v] at the front: the next {!pop} returns it. *)
val push_front : 'a t -> 'a -> unit

(** [peek q] is the front element.
    @raise Invalid_argument if [q] is empty. *)
val peek : 'a t -> 'a

(** [pop q] removes and returns the front element.
    @raise Invalid_argument if [q] is empty. *)
val pop : 'a t -> 'a

(** [clear q] removes all elements; [q] can be reused. *)
val clear : 'a t -> unit

(** [iter f q] applies [f] to each element, front to back.  [f] must not
    modify [q]. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [to_list q] is the elements, front to back. *)
val to_list : 'a t -> 'a list
