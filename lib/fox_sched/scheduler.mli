(** The COROUTINE scheduler.

    The paper implements its scheduler "entirely in SML using continuations"
    — non-preemptive, so thread switches happen only inside scheduler calls
    and data-structure locks are unnecessary.  We implement the same design
    with OCaml 5 effect handlers (one-shot delimited continuations, the
    direct descendant of the [callcc] the Fox project used).

    Time is {e virtual}: a microsecond clock that advances only when every
    runnable thread has yielded and the earliest sleeper is due.  This makes
    whole-stack runs deterministic — the property the paper's
    quasi-synchronous control structure is designed around — and lets the
    benchmark harness measure protocol dynamics independently of host speed.

    Only the operations that give up the CPU capture the calling thread's
    continuation: {!yield}, {!sleep}, {!suspend} and {!stop} are effects
    handled by the running scheduler.  {!now} is a read of the running
    scheduler's state, and {!fork}, {!call_at} and {!advance} are writes
    to it (a push onto the run queue, a bump of the clock); none of them
    performs an effect or switches threads.  The running
    scheduler is domain-local, so one scheduler per domain (a sharded
    engine) sees only its own clock and queues, and a {!run} nested
    inside a thread has its own, until it returns or raises.

    All operations except {!run}, {!exit_thread}, {!pp_stats} and
    {!epoch} must be called inside a running scheduler: from one of its
    threads or, for the read and write operations, from its [idle] hook.
    Called elsewhere they raise [Effect.Unhandled]. *)

(** Statistics returned by {!run}. *)
type stats = {
  switches : int;  (** number of times a thread was given the CPU *)
  forks : int;  (** threads created (including the main thread) *)
  sleeps : int;  (** calls to [sleep] that actually suspended *)
  completed : int;  (** threads that ran to completion or exited *)
  blocked : int;  (** threads still suspended when the run ended *)
  end_time : int;  (** virtual clock (µs) at termination *)
}

(** [run ?start_time ?realtime ?idle main] executes [main] and every
    thread it forks until no thread is runnable or sleeping (or {!stop} is
    called), then returns run statistics.  Threads blocked forever on a
    {!suspend} do not prevent termination; they are counted in [blocked].

    By default time is virtual (see above).  With [~realtime:true] the
    clock follows the wall clock instead: [now] reports real elapsed
    microseconds and sleepers wait in real time — the mode used when the
    stack drives a real device (TUN/TAP) and must share timebase with the
    kernel.

    [idle] is invoked whenever no thread is runnable, with the number of
    microseconds until the earliest sleeper ([None] if there are no
    sleepers).  It may block for up to that long (e.g. in [select] on a
    device) and may make threads runnable by calling resumers obtained
    from {!suspend} — this is how external I/O enters the scheduler.  When
    an [idle] hook is present the run only terminates via {!stop} or when
    the hook leaves the scheduler with neither runnable nor sleeping
    threads and returns without enqueuing work twice in a row.

    The hook runs inside the run: {!now} called from it returns the
    run's clock, and {!fork} or {!call_at} from it adds work
    to the run.  (When the clock was an effect, these raised
    [Effect.Unhandled] there.)  The hook cannot {!yield}, {!sleep},
    {!suspend} or {!stop}: it is not a thread. *)
val run :
  ?start_time:int ->
  ?realtime:bool ->
  ?idle:(int option -> unit) ->
  (unit -> unit) ->
  stats

(** [fork f] creates a new thread running [f].  The current thread keeps
    the CPU; the new thread runs when the current one yields. *)
val fork : (unit -> unit) -> unit

(** [call_at due f] runs [f] from the scheduler loop at virtual time
    [due] (at once, in fork order, if [due] has passed): it starts
    exactly where the body of
    [fork (fun () -> let w = due - now () in if w > 0 then sleep w; f ())]
    would (on the sleep queue if [due] is ahead, in run-queue order
    otherwise), but [f] is no thread: it counts in none of the {!stats}
    (no fork, switch or sleep), and {!stop} discards it if it has not
    run.  Timed one-shot work — a frame in flight, a deadline watcher
    that signals a {!Cond} — costs no parked continuation.  [f] must not give up the CPU: a {!yield}, {!sleep}, {!suspend}
    or {!stop} inside it raises [Effect.Unhandled] there.  Work that may
    block forks a thread of its own. *)
val call_at : int -> (unit -> unit) -> unit

(** [yield ()] moves the current thread to the back of the run queue. *)
val yield : unit -> unit

(** [sleep us] suspends the current thread for [us] virtual microseconds.
    [sleep 0] is equivalent to [yield] except that it passes through the
    sleep queue. *)
val sleep : int -> unit

(** [now ()] is the current virtual time in microseconds: a read of
    the running scheduler's clock, which allocates nothing. *)
val now : unit -> int

(** [advance us] jumps the virtual clock forward by [us] microseconds
    without yielding: every sleeper whose due time falls inside the jump
    becomes due at once (released in due order when the run queue next
    empties).  This is the chaos harness's clock-jump fault — the
    suspend/resume a real host experiences — not a scheduling primitive
    for ordinary code. *)
val advance : int -> unit

(** [suspend f] blocks the current thread; [f] receives a resumer that,
    when called with a value, reschedules the thread with that value as the
    result of [suspend].  The resumer must be called at most once. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [exit_thread ()] terminates the current thread immediately. *)
val exit_thread : unit -> 'a

(** [stop ()] terminates the whole run: the run queue and sleep queue are
    discarded and {!run} returns.  Used by servers that would otherwise
    sleep forever. *)
val stop : unit -> 'a

val pp_stats : Format.formatter -> stats -> unit

(** [epoch ()] identifies the scheduler run most recently started {e on
    the calling domain}: run identities are drawn from one process-wide
    atomic counter, but each domain only ever observes its own runs, so
    sharded engines running one scheduler per domain do not perturb each
    other.  Domain-local structures that cache timers or threads across
    runs (notably the {!Wheel} timer backend) compare epochs to discard
    state belonging to a finished run.  May be called outside a running
    scheduler. *)
val epoch : unit -> int
