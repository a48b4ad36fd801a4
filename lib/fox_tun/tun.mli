(** Real TAP devices: the Fox Net stack on an actual kernel interface.

    The paper ran its stack in user space over Mach IPC to a real Ethernet;
    the modern equivalent of that boundary is a TAP device, and this module
    provides it — raw Ethernet frames flow between the OCaml stack and the
    Linux kernel's own networking, so the repository's TCP can be pinged
    by, and open connections against, the real Linux stack (see
    [examples/tap_interop.ml] and [test/test_tun.ml]).

    Because the kernel lives on the wall clock, a TAP-backed stack must run
    the scheduler in realtime mode with this module's {!idle_hook}:

    {[
      let tap = Tun.open_tap () in
      Scheduler.run ~realtime:true ~idle:(Tun.idle_hook tap) (fun () ->
          Tun.start tap;
          ...build the stack on Tun.port tap and use it...)
    ]} *)

type t

(** [open_tap ?name ()] opens /dev/net/tun and attaches a TAP interface
    (kernel picks a name like [tap0] when [name] is omitted).  Requires
    CAP_NET_ADMIN.  Raises [Failure] when unavailable. *)
val open_tap : ?name:string -> unit -> t

(** The interface name the kernel assigned. *)
val name : t -> string

(** [configure t ~ip ~prefix] gives the {e kernel} side of the interface
    an address and brings it up (shells out to [ip]); the OCaml stack's own
    address is whatever the Eth/Ip layers built on {!port} are configured
    with. *)
val configure : t -> ip:string -> prefix:int -> unit

(** [port t] is the wire port to hand to {!Fox_dev.Device.create}:
    transmitted frames are written to the TAP fd, received frames are
    delivered to the registered handler (by the thread started with
    {!start}). *)
val port : t -> Fox_dev.Link.port

(** [start t] (inside a running scheduler) forks the delivery thread that
    moves frames from the pump into the device handler. *)
val start : t -> unit

(** [idle_hook t] is the canonical idle hook: it waits up to the
    scheduler's suggested timeout, capped at 20 ms so timers stay
    responsive, for the TAP to become readable, and transfers any pending
    frames toward {!start}'s thread.  Only the scheduler calls it, never
    a thread. *)
val idle_hook : t -> int option -> unit

(** Frames moved in each direction. *)
val stats : t -> int * int

(** [close t] closes the fd (the kernel removes the transient interface). *)
val close : t -> unit
