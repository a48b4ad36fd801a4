(** Deterministic fault injection as a {!Fox_proto.Virtual} protocol.

    [Make (P)] is a protocol identical to [P] — same addresses, same wire
    format, no header — that injects failures at the module boundary:
    [allocate_send] and [send] raising [Send_failed], [send] silently
    consuming the packet, [connect] failing transiently, and [finalize]
    driving the wrapped instance's reference count to zero so its live
    connections abort.  Every decision draws from a seeded
    {!Fox_basis.Rng}, so a failing composition replays exactly from its
    seed.

    Because the functor preserves the address types, a faulty layer
    slots in anywhere in a stack:

    {[
      module Feth = Faulty.Make (Fox_eth.Eth.Standard)
      module Ip = Fox_ip.Ip.Make (Feth) (Fox_ip.Ip.Default_params)
      module Fip = Faulty.Make (Ip)
      module Tcp =                       (* Tcp(Faulty(Ip(Faulty(Eth)))) *)
        Fox_tcp.Tcp.Make (Fip) (Fip.Lift_aux (Fox_ip.Ip_aux.Make (Ip)))
          (Fox_tcp.Congestion.Reno) (...)
    ]}

    exercising the error handling of every layer above it from below. *)

open Fox_basis
module Protocol = Fox_proto.Protocol

type config = {
  rng : Rng.t;
  allocate_fail : float;  (** probability [allocate_send] raises *)
  send_fail : float;  (** probability [send] raises [Send_failed] *)
  send_drop : float;  (** probability [send] silently drops the packet *)
  connect_fail : int;  (** fail this many [connect]s before succeeding *)
  finalize_abort : bool;
      (** one [finalize] drives the wrapped instance to zero, aborting its
          live connections *)
}

(** No faults at all: the wrapped layer behaves identically to [P]. *)
let passthrough =
  {
    rng = Rng.create 1;
    allocate_fail = 0.0;
    send_fail = 0.0;
    send_drop = 0.0;
    connect_fail = 0;
    finalize_abort = false;
  }

type stats = {
  allocate_failures : int;
  send_failures : int;
  send_drops : int;
  connect_failures : int;
}

module Make
    (P : Protocol.PROTOCOL
           with type incoming_message = Packet.t
            and type outgoing_message = Packet.t) : sig
  include
    Fox_proto.Virtual.S
      with type lower_connection := P.connection
       and type lower_address := P.address
       and type lower_pattern := P.address_pattern

  val create : P.t -> config -> t

  val stats : t -> stats
end = struct
  module Hooks = struct
    type state = {
      config : config;
      mutable connects_to_fail : int;
      mutable allocate_failures : int;
      mutable send_failures : int;
      mutable send_drops : int;
      mutable connect_failures : int;
    }

    (* Draw from the stream only for enabled fault classes, so switching one
       class off does not perturb the others' decisions for a given seed. *)
    let roll t p = p > 0.0 && Rng.bool t.config.rng p

    let send_stage t inner_send packet =
      if roll t t.config.send_fail then begin
        t.send_failures <- t.send_failures + 1;
        raise (Fox_proto.Common.Send_failed "injected send failure")
      end
      else if roll t t.config.send_drop then
        (* the layer accepts the packet and loses it, like a full device
           queue: no error reaches the caller *)
        t.send_drops <- t.send_drops + 1
      else inner_send packet

    let upcall _ data = data

    let check t = function
      | Fox_proto.Virtual.Connect ->
        if t.connects_to_fail > 0 then begin
          t.connects_to_fail <- t.connects_to_fail - 1;
          t.connect_failures <- t.connect_failures + 1;
          raise
            (Fox_proto.Common.Connection_failed
               "injected transient connect failure")
        end
      | Allocate ->
        if roll t t.config.allocate_fail then begin
          t.allocate_failures <- t.allocate_failures + 1;
          raise (Fox_proto.Common.Send_failed "injected allocation failure")
        end

    let finalize t inner =
      if t.config.finalize_abort then begin
        (* drive the wrapped instance all the way down: its connections are
           aborted no matter how many initializations are outstanding *)
        while inner () > 0 do
          ()
        done;
        0
      end
      else inner ()
  end

  include Fox_proto.Virtual.Make (P) (Hooks)

  let create inner config =
    make inner
      {
        Hooks.config;
        connects_to_fail = config.connect_fail;
        allocate_failures = 0;
        send_failures = 0;
        send_drops = 0;
        connect_failures = 0;
      }

  let stats t =
    let s = state t in
    {
      allocate_failures = s.allocate_failures;
      send_failures = s.send_failures;
      send_drops = s.send_drops;
      connect_failures = s.connect_failures;
    }
end
