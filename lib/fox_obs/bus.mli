(** The flight-recorder event bus.

    A single, process-wide structured event stream for the whole stack:
    any layer may {!emit} a typed event — send, delivery, timer activity,
    state transition, retransmission, meter span — stamped with virtual
    time, the emitting layer, and (when connection-scoped) a connection
    id.  Each event lands in a bounded global ring {e and}, when it names
    a connection, in that connection's bounded ring, so a post-mortem can
    replay either one connection's history or the interleaved whole.  Both
    are a {!Fox_basis.Ring} with a cap and a drop count: a full ring drops
    its oldest event, and a connection's ring allocates on its first
    event.  Nothing is formatted until a ring is read.

    The bus has no subscribers: its readers ([foxnet trace], the
    harnesses' failure dumps, the tests) read the rings back, and the one
    component that follows the switch, the network's pcap tap, reads
    [!live] directly.

    The bus is the paper's functor-parameter print and trace switches made
    first-class: instead of each functor owning a private trace, every
    layer reports to one recorder that tests, the fuzzer, and the [foxnet]
    CLI read back.

    {b Cost discipline.}  Emission sites must be guarded by the caller:

    {[
      if !Fox_obs.Bus.live then Fox_obs.Bus.emit ~layer:"tcp" (Send ...)
    ]}

    so a disabled bus costs exactly one reference read and a branch per
    event site — nothing is formatted, allocated, or called.  ([emit]
    re-checks the flag, so an unguarded call is merely slower, not
    wrong.) *)

type timer_event = Set of int  (** armed, µs *) | Cleared | Expired

type kind =
  | Send of { bytes : int; flags : string }  (** segment/frame out *)
  | Deliver of { bytes : int }  (** data handed upward *)
  | Retransmit of { seq : int; len : int; backoff : int }
  | Timer of { timer : string; what : timer_event }
  | State of { from_ : string; to_ : string }  (** connection state *)
  | Span of { name : string; dur_us : int; bytes : int }  (** meter span *)
  | Note of string  (** anything else, pre-rendered *)

type event = {
  time : int;  (** virtual µs at emission *)
  layer : string;  (** e.g. ["tcp"], ["ip"], ["tcp.resend"] *)
  conn : string;  (** connection id, ["-"] when not connection-scoped *)
  kind : kind;
}

(** The fast-path switch.  Read it directly ([if !Bus.live then ...]) at
    every emission site. *)
val live : bool ref

(** [enable ?capacity ?per_conn ()] turns the bus on.  [capacity] resizes
    the global ring (discarding its contents); [per_conn] sets the ring
    size used for connections first seen after the call. *)
val enable : ?capacity:int -> ?per_conn:int -> unit -> unit

(** [disable ()] turns the bus off (rings are kept for inspection). *)
val disable : unit -> unit

(** [reset ()] clears both rings and the emission counter without
    changing the on/off state. *)
val reset : unit -> unit

(** [now ()] is the scheduler's virtual time, 0 outside a run. *)
val now : unit -> int

(** [emit ?time ?conn ~layer kind] records one event (no-op while the bus
    is off).  [time] defaults to {!now}. *)
val emit : ?time:int -> ?conn:string -> layer:string -> kind -> unit

(** {2 Reading the recorder} *)

(** [events ()] is the global ring, oldest first. *)
val events : unit -> event list

(** Events lost to the global ring's capacity. *)
val dropped : unit -> int

(** Total events emitted since the last {!reset}. *)
val emitted : unit -> int

(** Connections with a per-connection ring, sorted. *)
val conn_ids : unit -> string list

(** [dump ()] renders the global ring, one line per event. *)
val dump : unit -> string list

(** [dump_conn id] renders one connection's ring, oldest first, as
    ["[%8d us] <layer> <kind>"] lines ([[]] for an unknown id). *)
val dump_conn : string -> string list

(** {2 Stats providers}

    Each TCP engine registers one lazy renderer of its engine-wide
    counters, under the id [tcp-engine-N]; nothing runs until someone
    asks.  [foxnet stat] prints them after its connection snapshots, and
    the repository benchmark reads their [segs=] field.  Connections are
    not registered here: [Tcp.snapshots] photographs them on demand. *)

val register_stats : id:string -> (unit -> string) -> unit

val unregister_stats : id:string -> unit

(** [(id, rendered snapshot)] for every registered provider, sorted. *)
val stats_snapshots : unit -> (string * string) list

(** {2 Histogram registry} *)

val register_histogram : string -> Histogram.t -> unit

val histograms : unit -> (string * Histogram.t) list
