(** Simulated wires: point-to-point links and multi-drop hubs.

    A wire hands out {e ports}.  Frames written to a port are delivered to
    the other port(s) after the serialisation and propagation delays of the
    wire's {!Netem} configuration, possibly dropped, duplicated, jittered
    or bit-corrupted (all deterministically, from the configured seed).
    Delivery is a {!Fox_sched.Scheduler.call_at} at the arrival time, so
    receive upcalls never run inside the sender's stack frame — the same
    asynchrony a real interrupt-driven device has, but with a total order
    imposed by the virtual clock.  The upcall runs from the scheduler
    loop, not from a thread: it must not block (a {!Device} with a
    metered receive forks a thread for that). *)

type port = {
  transmit : Fox_basis.Packet.t -> unit;
      (** send a frame; the packet is copied immediately, the caller may
          reuse it *)
  set_receive : (Fox_basis.Packet.t -> unit) -> unit;
      (** register the handler for delivered frames *)
}

(** Per-port statistics. *)
type stats = {
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  dropped : int;  (** frames lost to the [loss] knob *)
  duplicated : int;
  corrupted : int;
  unclaimed : int;  (** frames delivered with no receive handler set *)
  queue_drops : int;
      (** frames tail-dropped because [queue_frames] others were already
          waiting for the medium (finite egress queue).  A frame waits
          from its transmit until it starts serialising: at that
          microsecond it no longer counts *)
}

type t

(** [point_to_point config] is a two-port wire. *)
val point_to_point : Netem.t -> t

(** [hub ~ports config] is a shared-medium wire with [ports] ports; a frame
    transmitted on one port is delivered to every other port (half-duplex:
    all frames serialise through the one medium, like the paper's shared
    10 Mb/s Ethernet). *)
val hub : ports:int -> Netem.t -> t

(** [port t i] is the [i]th port. *)
val port : t -> int -> port

(** [stats t i] is a snapshot of port [i]'s counters. *)
val stats : t -> int -> stats

(** {1 Chaos controls}

    Mid-run fault injection, driven by {!Fox_check.Chaos}.  None of
    these consult the wire's rng, so the base netem decision stream is
    identical with or without a chaos plan installed: faults compose
    with — rather than reshuffle — the configured impairments. *)

(** Cumulative chaos-effect counters for the whole wire. *)
type chaos_stats = {
  chaos_dropped : int;
      (** frames eaten while the link was down ([`Drop] policy or hold
          overflow) or by the size blackhole *)
  chaos_held : int;  (** frames currently queued behind a downed link *)
  chaos_replayed : int;  (** held frames re-sent on {!bring_up} *)
  chaos_duplicated : int;  (** storm duplicates beyond the rng's *)
  chaos_corrupted : int;  (** storm corruptions beyond the rng's *)
}

(** [take_down t ~policy] downs the whole wire.  [`Drop] loses frames
    silently; [`Hold] queues up to a small NIC-ring's worth and replays
    them on {!bring_up}. *)
val take_down : t -> policy:[ `Drop | `Hold ] -> unit

(** [bring_up t] restores the wire and replays held frames in their
    original send order. *)
val bring_up : t -> unit

val is_up : t -> bool

(** [set_blackhole t n] silently drops frames longer than [n] bytes —
    the classic path-MTU blackhole.  [0] disables. *)
val set_blackhole : t -> int -> unit

(** [set_storm t ~dup_every ~corrupt_every ()] duplicates / corrupts
    every Nth frame deterministically (0 disables each). *)
val set_storm : t -> ?dup_every:int -> ?corrupt_every:int -> unit -> unit

val chaos_stats : t -> chaos_stats
