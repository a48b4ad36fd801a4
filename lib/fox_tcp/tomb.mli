(** The TIME-WAIT tombstone table.

    A connection parked in TIME-WAIT is a {!Tcb.time_wait} tombstone
    (DESIGN §4), and the engine finds one by its 4-tuple.  The table is
    intrusive: chains in a power-of-two array of heads, threaded through
    the tombstones' own [chain] field, so an entry costs its tombstone
    one field and its slot a head (a stdlib [Hashtbl] would add a bucket
    cell and a key tuple per parked connection).  The first tombstone
    allocates the array, which grows fourfold loaded, and the last one
    drops it.

    Like {!Receive} and {!State}, the table touches nothing outside
    itself: the engine clears the timer and delivers the upcall of a
    tombstone it removes. *)

type 'h tomb = 'h Tcb.time_wait

type 'h t

(** [create ~equal ~hash ()] is an empty table, with no array, that
    compares and hashes hosts with [equal] and [hash] ([Aux.equal] and
    [Aux.hash] in the engine). *)
val create : equal:('h -> 'h -> bool) -> hash:('h -> int) -> unit -> 'h t

(** [count t] is the number of tombstones in the table. *)
val count : 'h t -> int

(** [slots t] is the length of the array of chain heads: 0 while the
    table is empty. *)
val slots : 'h t -> int

(** [arrive t] numbers the next tombstone to be parked (the [arrival]
    of {!Tcb.time_wait_of}): 1, 2, ... over the table's life. *)
val arrive : 'h t -> int

(** [find t host local_port remote_port] is the tombstone parked for
    that 4-tuple. *)
val find : 'h t -> 'h -> int -> int -> 'h tomb option

(** [parked t tw] is whether [tw] itself is in the table. *)
val parked : 'h t -> 'h tomb -> bool

(** [add t tw] parks [tw], whose 4-tuple must not be in the table. *)
val add : 'h t -> 'h tomb -> unit

(** [remove t tw] unparks [tw], which must be in the table. *)
val remove : 'h t -> 'h tomb -> unit

(** [to_list t] is every tombstone in the table, in no set order. *)
val to_list : 'h t -> 'h tomb list

(** [oldest t] is the tombstone with the lowest arrival number: the
    one the [max_time_wait] bound recycles first. *)
val oldest : 'h t -> 'h tomb option
