(** Mailbox-style synchronisation.

    The paper notes that although the cooperative scheduler removes the need
    for locks, "synchronization is required in particular cases, such as to
    insure that no data is delivered on a connection until after the
    corresponding open returns to the caller".  A ['a Cond.t] is the
    primitive used for those cases: [wait] blocks until a value is
    available; [signal] delivers a value to the longest-waiting thread or
    buffers it if nobody is waiting.

    A TCP connection has exactly one, a [unit Cond.t] that [connect],
    [send] and [close_sync] all wait on.  It is broadcast when the open
    or the close completes, when the connection goes down and when send
    buffer space frees up; each waiter loops, re-checking its own
    condition, so a wake-up meant for another waiter costs one switch. *)

type 'a t

(** [create ()] is an empty mailbox. *)
val create : unit -> 'a t

(** [wait c] returns the next value, blocking the calling thread if none is
    buffered. *)
val wait : 'a t -> 'a

(** [try_wait c] returns a buffered value without blocking, if any. *)
val try_wait : 'a t -> 'a option

(** [signal c v] delivers [v] to one waiter, or buffers it. *)
val signal : 'a t -> 'a -> unit

(** [broadcast c v] delivers [v] to every currently-blocked waiter. *)
val broadcast : 'a t -> 'a -> unit

(** [waiters c] is the number of blocked threads. *)
val waiters : 'a t -> int

(** [pending c] is the number of buffered values. *)
val pending : 'a t -> int
