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

(** [clear t] prevents the handler from firing (idempotent; harmless after
    expiry). *)
val clear : t -> unit

(** [cleared t] is true once [clear] has been called. *)
val cleared : t -> bool
