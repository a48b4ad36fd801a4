(** Bounded in-memory event traces.

    The paper's debugging relied on print and trace switches passed as
    functor parameters; enabling them records protocol events that
    component tests and post-mortems can inspect without any I/O on the
    fast path.  A trace
    is a bounded ring: when full, the oldest events are dropped.

    Each trace carries an enabled flag and a minimum {!level}; recording
    below the bar costs one check — in particular {!addf} decides {e
    before} formatting, so a filtered call never allocates its message. *)

type t

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** [create ?enabled ?min_level capacity] is an empty trace holding at most
    [capacity] events (enabled at [Debug] by default, preserving the
    record-everything behaviour). *)
val create : ?enabled:bool -> ?min_level:level -> int -> t

val set_enabled : t -> bool -> unit

val enabled : t -> bool

val set_level : t -> level -> unit

val level : t -> level

(** [keeps t lvl] is whether an event at [lvl] would be recorded now. *)
val keeps : t -> level -> bool

(** [add ?level t ~time msg] records an event stamped with the caller's
    clock ([level] defaults to [Info]); dropped silently when below the
    trace's bar. *)
val add : ?level:level -> t -> time:int -> string -> unit

(** [addf ?level t ~time fmt ...] is [add] with a format string.  The
    level check happens first: a filtered call does not format. *)
val addf : ?level:level -> t -> time:int -> ('a, unit, string, unit) format4 -> 'a

(** [events t] lists [(time, message)] oldest first. *)
val events : t -> (int * string) list

(** [size t] is the number of retained events. *)
val size : t -> int

(** [dropped t] is the cumulative number of events lost to capacity.  It
    survives {!clear} — clearing a full ring must not hide that it
    overflowed — and is zeroed only by {!reset}. *)
val dropped : t -> int

(** [clear t] forgets the retained events, keeping the drop count. *)
val clear : t -> unit

(** [reset t] is [clear] plus zeroing {!dropped}. *)
val reset : t -> unit

(** [to_string t] renders one event per line. *)
val to_string : t -> string
