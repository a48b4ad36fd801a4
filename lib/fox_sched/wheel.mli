(** A hierarchical timing wheel: the backend of {!Timer}.

    Four wheels of 256 slots; level 0 has a grain of {!granularity_us}
    virtual microseconds, each higher level is 256× coarser.  Insert and
    cancel are O(1); advancing costs one step per occupied slot crossed,
    with empty rounds skipped in a single jump.  Instead of a perpetual
    tick thread (which would pin the virtual clock and keep every run
    alive), the wheel arms a single scheduler sleeper — an {e alarm} —
    aimed at the earliest live deadline, so runs still terminate when
    all timers have fired or been cleared.

    Handlers fire no earlier than requested, and at most
    [granularity_us - 1] µs late (deadlines round up to a tick
    boundary).

    The wheel is domain-local and epoch-tagged: entries inserted under
    a previous {!Scheduler.run} on the same domain are discarded when a
    new run first touches it. *)

type entry

(** Virtual microseconds per level-0 slot. *)
val granularity_us : int

(** [schedule handler us] fires [handler] once, [us] (rounded up to the
    tick grain) virtual microseconds from now.  Must be called from
    inside a running scheduler.  The handler runs on the wheel's alarm
    thread. *)
val schedule : (unit -> unit) -> int -> entry

(** [cancel e] prevents the handler from firing (idempotent; harmless
    after the entry fired). *)
val cancel : entry -> unit

(** [cancelled e] is true once [cancel e] has been called. *)
val cancelled : entry -> bool

(** Number of armed (neither fired nor cancelled) entries. *)
val pending : unit -> int

(** Lifetime counters: [scheduled], [fired], [cancelled], [cascaded],
    [alarms]. *)
val stats : unit -> (string * int) list

val reset_stats : unit -> unit
