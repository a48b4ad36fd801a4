(** Profiling counters.

    The paper could not use the SML/NJ sampling profiler under Mach, so it
    mapped free-running hardware counters into the address space and
    charged each profiled region to a named counter; Table 2 is those
    counters as percentages.  This module is that set of named
    accumulators, each recording total time and number of updates.  (The
    paper's ~15 µs per start/stop pair is charged by the cost model as
    its own "counters (est.)" row.) *)

type t

(** [create ()] is an empty counter set. *)
val create : unit -> t

(** [add t name us] charges [us] microseconds to counter [name] and records
    one update. *)
val add : t -> string -> int -> unit

(** [total t name] is the accumulated microseconds for [name] (0 if the
    counter was never touched). *)
val total : t -> string -> int

(** [grand_total t] sums every counter. *)
val grand_total : t -> int

(** [dump t] lists [(name, total_us, updates)] sorted by name. *)
val dump : t -> (string * int * int) list
