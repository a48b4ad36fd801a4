(** Mutable int-keyed min-queues.

    The paper's scheduler keeps its sleep queue in "a priority queue
    implemented as a heap"; [Fox_sched.Scheduler] is this module's only
    user, keyed by virtual due time.  Ties are broken by insertion order
    so that scheduling is deterministic.

    Keys, insertion stamps and values live in parallel arrays, so
    {!add}, {!min_key} and {!pop_min} allocate nothing (beyond doubling
    the arrays when they fill): no tuple, no entry record, no option. *)

type 'a t

(** [create ~dummy] is an empty queue.  [dummy] fills the cells that
    hold no element, so that a popped value is not kept alive; it is
    never returned. *)
val create : dummy:'a -> 'a t

(** [size h] is the number of elements. *)
val size : 'a t -> int

(** [is_empty h] is true iff [h] holds no elements. *)
val is_empty : 'a t -> bool

(** [add h key v] inserts [v] under [key]. *)
val add : 'a t -> int -> 'a -> unit

(** [min_key h] is the smallest key in [h].
    @raise Invalid_argument if [h] is empty. *)
val min_key : 'a t -> int

(** [pop_min h] removes and returns the value under the smallest key
    (the earliest inserted among equal keys).
    @raise Invalid_argument if [h] is empty. *)
val pop_min : 'a t -> 'a

(** [clear h] removes all elements; [h] can be reused. *)
val clear : 'a t -> unit
