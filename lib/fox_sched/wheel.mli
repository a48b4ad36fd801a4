(** A hierarchical timing wheel: the backend of {!Timer}.

    Four wheels of 256 slots; level 0 has a grain of {!granularity_us}
    virtual microseconds, each higher level is 256× coarser.  Insert and
    cancel are O(1); advancing costs one step per occupied slot crossed,
    with empty rounds skipped in a single jump.

    Each slot is an intrusive doubly linked list of entries.  {!cancel}
    unlinks its entry, so a cancelled entry (and its handler) is
    garbage as soon as its owner drops it, not at its old deadline; and
    {!set} re-arms an existing entry in place, allocating nothing.

    Instead of a perpetual tick thread (which would pin the virtual
    clock and keep every run alive), the wheel arms a single scheduler
    sleeper — an {e alarm} — aimed at the earliest live deadline, so
    runs still terminate when all timers have fired or been cleared.

    Handlers fire no earlier than requested, and at most
    [granularity_us - 1] µs late (deadlines round up to a tick
    boundary).

    The wheel is domain-local and epoch-tagged: entries armed under a
    previous {!Scheduler.run} on the same domain are unlinked (they never
    fire) when a new run first arms an entry; an entry so dropped can be
    armed again in the new run. *)

type entry

(** Virtual microseconds per level-0 slot. *)
val granularity_us : int

(** [schedule handler us] is a fresh entry armed to fire [handler] once,
    [us] (rounded up to the tick grain) virtual microseconds from now.
    Must be called from inside a running scheduler.  The handler runs on
    the wheel's alarm thread. *)
val schedule : (unit -> unit) -> int -> entry

(** [create handler] is an unarmed entry that will call [handler] each
    time it fires; arm it with {!set}. *)
val create : (unit -> unit) -> entry

(** [set e us] arms [e] to fire once, [us] (rounded up to the tick
    grain) virtual microseconds from now, first cancelling it if it is
    armed — in place: nothing is allocated (beyond an alarm thread when
    the new deadline is the earliest).  Counted as a cancel (when it was
    armed) plus a schedule.  Must be called from inside a running
    scheduler. *)
val set : entry -> int -> unit

(** [set_at e ~now us] is [set e us] for a caller that has just read the
    clock: [now] must be {!Scheduler.now}[ ()]. *)
val set_at : entry -> now:int -> int -> unit

(** [cancel e] prevents the handler from firing and unlinks the entry
    from the wheel (idempotent; harmless after the entry fired). *)
val cancel : entry -> unit

(** [cancelled e] is true once [cancel e] has been called after the
    entry was last armed and before it fired. *)
val cancelled : entry -> bool

(** [armed e] is true while [e] waits to fire: armed, and neither fired
    nor cancelled since. *)
val armed : entry -> bool

(** Number of armed (neither fired nor cancelled) entries. *)
val pending : unit -> int

(** Lifetime counters: [scheduled], [fired], [cancelled], [cascaded],
    [alarms]. *)
val stats : unit -> (string * int) list

val reset_stats : unit -> unit
