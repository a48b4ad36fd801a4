(** Timers with the interface of Figure 11 of the paper.

    In the paper, [start] forks a thread that sleeps and then calls the
    handler only if an updatable boolean is still unset, and [clear]
    works "by changing the value of a variable".  Here the same
    interface is served by the hierarchical timing wheel ({!Wheel}):
    O(1) arm/clear and one shared scheduler sleeper for any number of
    timers, at the price of firing up to one wheel grain (≈1 ms virtual)
    after the requested deadline, never before.  TCP's retransmission,
    delayed-ACK, 2MSL and user timers are all built on this. *)

type t

(** [start handler us] arms a timer that calls [handler ()] [us] virtual
    microseconds from now, rounded up to the wheel grain, unless cleared
    first.  Must be called from inside a running scheduler. *)
val start : (unit -> unit) -> int -> t

(** [create handler] is a timer that is not running; each {!set} arms it
    to call [handler ()] once.  For a timer restarted over and over — a
    connection's retransmission or delayed-ACK timer — one [create] and
    many [set]s replace a [start] per restart. *)
val create : (unit -> unit) -> t

(** [set t us] (re)arms [t] to fire [us] virtual microseconds from now,
    rounded up to the wheel grain, replacing any deadline it had.  The
    timer is re-armed in place: nothing is allocated.  Must be called
    from inside a running scheduler; a timer armed in an earlier run may
    be set again in a later one. *)
val set : t -> int -> unit

(** [set_at t ~now us] is [set t us] for a caller that has just read the
    clock: [now] must be {!Scheduler.now}[ ()]. *)
val set_at : t -> now:int -> int -> unit

(** [clear t] prevents the handler from firing (idempotent; harmless after
    expiry).  The wheel lets go of the timer at once, so a cleared timer
    the caller drops is garbage before its old deadline. *)
val clear : t -> unit

(** [cleared t] is true once [clear] has been called since the timer was
    last armed, before it fired. *)
val cleared : t -> bool

(** [armed t] is true while the timer is running: armed and neither
    expired nor cleared since. *)
val armed : t -> bool
