(** Network interfaces.

    A device binds a {!Link.port} into the protocol stack, standing in for
    the paper's Mach 3.0 device interface: it is the place where the stack
    hands frames to "the system" and where incoming frames enter.  The
    paper charges one mandatory data copy at this boundary; [send] copies
    the frame exactly once (into the wire) and the wire delivers a fresh
    buffer to the receive handler, matching that accounting. *)

type t

type stats = {
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  tx_dropped : int;  (** oversized or sent while down *)
  rx_dropped : int;  (** received while down or with no handler *)
}

(** [create ?name ?mtu ?on_send ?on_receive port] is an interface on the
    given wire port.  [mtu] is the maximum frame size accepted by [send]
    (default 1518, an Ethernet frame with FCS).  The optional hooks are
    called with the frame length before each transmit / before each
    delivery upcall; the benchmark harness charges the paper's "eth, Mach
    interf.", "Mach send" and "packet wait" costs through them.  The
    wire delivers frames from the scheduler loop, not from a thread; a
    device with [on_receive] forks one thread per arrival, in which the
    hook and the upcall run and may block (a charge sleeps while the
    host's CPU is busy).  Without it the upcall runs at once and must
    not block.  [tap]
    receives every frame in both directions — see {!Pcap} for writing them
    to a capture file. *)
val create :
  ?name:string ->
  ?mtu:int ->
  ?on_send:(int -> unit) ->
  ?on_receive:(int -> unit) ->
  ?tap:(Fox_basis.Packet.t -> unit) ->
  Link.port ->
  t

(** [send dev frame] transmits, dropping oversized frames and frames sent
    while the device is down (counted in [tx_dropped]). *)
val send : t -> Fox_basis.Packet.t -> unit

(** [set_receive dev handler] registers the frame upcall. *)
val set_receive : t -> (Fox_basis.Packet.t -> unit) -> unit

(** [thread_receives dev] makes [dev] fork a thread for each arrival, as
    a device with [on_receive] does, for a receiver whose upcall blocks
    without a receive hook (an application that charges the host's CPU
    inside its data upcall). *)
val thread_receives : t -> unit

(** [up dev] / [down dev] set the administrative state (created up). *)
val up : t -> unit

val down : t -> unit
val is_up : t -> bool
val mtu : t -> int
val name : t -> string
val stats : t -> stats
