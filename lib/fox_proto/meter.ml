(** The metering and flight-recorder shim, a {!Virtual} protocol.

    We use a virtual protocol to reproduce the paper's evaluation:
    [Make (P)] yields a protocol identical to [P] (same addresses, same
    wire format — it pushes no header at all) that invokes callbacks
    around every send and delivery.  The benchmark
    harness hangs {!Fox_sched.Cpu} charges on these callbacks to model the
    DECstation's per-layer processing costs, which is what turns a run
    into Table 1's timings and Table 2's profile without touching any
    protocol code.

    A meter created with [~probe:name] also reports to the process-wide
    {!Fox_obs.Bus}: a [Deliver] event per delivered packet (before
    [on_receive]), and after [on_send] a [Send] event plus a [Span]
    measuring how long the layer below took in virtual time.  It feeds
    three {!Fox_obs.Histogram}s registered on the bus as
    ["<name>.send_bytes"], ["<name>.recv_bytes"] and
    ["<name>.send_span_us"].  Every emission is guarded by the bus's one
    flag, so while the bus is off a named meter costs a reference read
    and a branch per packet; an unnamed meter stays silent.

    Composition works because the functor preserves the address types:

    {[
      module Metered_ip = Meter.Make (Ip)
      module Tcp = Tcp.Make (Metered_ip) (Metered_ip.Lift_aux (Ip_aux)) (...)
    ]} *)

open Fox_basis
module Bus = Fox_obs.Bus
module Histogram = Fox_obs.Histogram

type config = {
  on_send : int -> unit;  (** called with the packet length, before *)
  on_receive : int -> unit;  (** called with the packet length, before *)
}

let silent = { on_send = ignore; on_receive = ignore }

module Make
    (P : Protocol.PROTOCOL
           with type incoming_message = Packet.t
            and type outgoing_message = Packet.t) : sig
  include
    Virtual.S
      with type lower_connection := P.connection
       and type lower_address := P.address
       and type lower_pattern := P.address_pattern

  (** [create ?probe inner config] wraps [inner].  [probe] is the bus
      layer tag; with it, three fresh histograms are registered with the
      bus. *)
  val create : ?probe:string -> P.t -> config -> t
end = struct
  (* A named meter's bus layer tag and histograms. *)
  type probe = {
    name : string;
    send_hist : Histogram.t;
    recv_hist : Histogram.t;
    span_hist : Histogram.t;
  }

  let histogram name =
    let h = Histogram.create ~name () in
    Bus.register_histogram name h;
    h

  let named name =
    let send_hist = histogram (name ^ ".send_bytes") in
    let recv_hist = histogram (name ^ ".recv_bytes") in
    let span_hist = histogram (name ^ ".send_span_us") in
    { name; send_hist; recv_hist; span_hist }

  (* The late send stage: emit, time the layer below, emit the span. *)
  let observed_send p inner_send packet =
    let bytes = Packet.length packet in
    Histogram.add p.send_hist bytes;
    Bus.emit ~layer:p.name (Bus.Send { bytes; flags = "" });
    let t0 = Bus.now () in
    inner_send packet;
    let dur = Bus.now () - t0 in
    Histogram.add p.span_hist dur;
    Bus.emit ~layer:p.name (Bus.Span { name = "send"; dur_us = dur; bytes })

  module Hooks = struct
    type state = { config : config; probe : probe option }

    let send_stage { config = { on_send; _ }; probe } inner_send =
      match probe with
      | None ->
        fun packet ->
          on_send (Packet.length packet);
          inner_send packet
      | Some p ->
        fun packet ->
          on_send (Packet.length packet);
          if !Bus.live then observed_send p inner_send packet
          else inner_send packet

    let upcall { config = { on_receive; _ }; probe } data =
      match probe with
      | None ->
        fun packet ->
          on_receive (Packet.length packet);
          data packet
      | Some p ->
        fun packet ->
          let bytes = Packet.length packet in
          if !Bus.live then begin
            Histogram.add p.recv_hist bytes;
            Bus.emit ~layer:p.name (Bus.Deliver { bytes })
          end;
          on_receive bytes;
          data packet

    let check _ _ = ()

    let finalize _ inner = inner ()
  end

  include Virtual.Make (P) (Hooks)

  let create ?probe inner config =
    make inner { Hooks.config; probe = Option.map named probe }
end
