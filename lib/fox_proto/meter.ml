(** A virtual protocol: the metering and flight-recorder shim.

    The x-kernel calls a protocol that adds behaviour without adding a
    header a {e virtual protocol}; the paper lists them among the x-kernel
    ideas its stack had "not (yet) made use of".  We use one to reproduce
    the paper's evaluation: [Make (P)] yields a protocol identical to [P]
    (same addresses, same wire format — it pushes no header at all) that
    invokes callbacks around every send and delivery.  The benchmark
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
    Protocol.PROTOCOL
      with type address = P.address
       and type address_pattern = P.address_pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  (** [create ?probe inner config] wraps [inner].  [probe] is the bus
      layer tag; with it, three fresh histograms are registered with the
      bus. *)
  val create : ?probe:string -> P.t -> config -> t

  (** The wrapped connection, for auxiliary structures. *)
  val inner : connection -> P.connection

  (** Lift an [IP_AUX] structure over [P] to one over the metered
      protocol. *)
  module Lift_aux
      (Aux : Protocol.IP_AUX
               with type lower_connection = P.connection
                and type lower_address = P.address
                and type lower_pattern = P.address_pattern) :
    Protocol.IP_AUX
      with type host = Aux.host
       and type lower_address = address
       and type lower_pattern = address_pattern
       and type lower_connection = connection
end = struct
  include Common

  type address = P.address

  type address_pattern = P.address_pattern

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  (* A named meter's bus layer tag and histograms. *)
  type probe = {
    name : string;
    send_hist : Histogram.t;
    recv_hist : Histogram.t;
    span_hist : Histogram.t;
  }

  type t = { inner_instance : P.t; config : config; probe : probe option }

  type connection = { meter : t; pconn : P.connection }

  type listener = P.listener

  type handler = connection -> data_handler * status_handler

  let inner conn = conn.pconn

  let histogram name =
    let h = Histogram.create ~name () in
    Bus.register_histogram name h;
    h

  let create ?probe inner_instance config =
    let probe =
      Option.map
        (fun name ->
          let send_hist = histogram (name ^ ".send_bytes") in
          let recv_hist = histogram (name ^ ".recv_bytes") in
          let span_hist = histogram (name ^ ".send_span_us") in
          { name; send_hist; recv_hist; span_hist })
        probe
    in
    { inner_instance; config; probe }

  let observe_receive p packet =
    let bytes = Packet.length packet in
    Histogram.add p.recv_hist bytes;
    Bus.emit ~layer:p.name (Bus.Deliver { bytes })

  (* The late send stage shared by [send] and [prepare_send]: emit, time
     the layer below, emit the span. *)
  let observed_send p inner_send packet =
    let bytes = Packet.length packet in
    Histogram.add p.send_hist bytes;
    Bus.emit ~layer:p.name (Bus.Send { bytes; flags = "" });
    let t0 = Bus.now () in
    inner_send packet;
    let dur = Bus.now () - t0 in
    Histogram.add p.span_hist dur;
    Bus.emit ~layer:p.name (Bus.Span { name = "send"; dur_us = dur; bytes })

  let wrap_handler t (handler : handler) =
    fun pconn ->
    let conn = { meter = t; pconn } in
    let data, status = handler conn in
    ( (fun packet ->
        (match t.probe with
        | Some p when !Bus.live -> observe_receive p packet
        | _ -> ());
        t.config.on_receive (Packet.length packet);
        data packet),
      status )

  let connect t address handler =
    let pconn = P.connect t.inner_instance address (wrap_handler t handler) in
    { meter = t; pconn }

  let start_passive t pattern handler =
    P.start_passive t.inner_instance pattern (wrap_handler t handler)

  let stop_passive l = P.stop_passive l

  let send conn packet =
    let t = conn.meter in
    t.config.on_send (Packet.length packet);
    match t.probe with
    | Some p when !Bus.live -> observed_send p (P.send conn.pconn) packet
    | _ -> P.send conn.pconn packet

  let prepare_send conn =
    let inner_send = P.prepare_send conn.pconn in
    let on_send = conn.meter.config.on_send in
    match conn.meter.probe with
    | None ->
      fun packet ->
        on_send (Packet.length packet);
        inner_send packet
    | Some p ->
      fun packet ->
        on_send (Packet.length packet);
        if !Bus.live then observed_send p inner_send packet
        else inner_send packet

  let close conn = P.close conn.pconn

  let abort conn = P.abort conn.pconn

  let initialize t = P.initialize t.inner_instance

  let finalize t = P.finalize t.inner_instance

  let allocate_send conn len = P.allocate_send conn.pconn len

  let max_packet_size conn = P.max_packet_size conn.pconn

  let headroom conn = P.headroom conn.pconn

  let tailroom conn = P.tailroom conn.pconn

  let pp_address = P.pp_address

  module Lift_aux
      (Aux : Protocol.IP_AUX with type lower_connection = P.connection) =
  struct
    type host = Aux.host

    type lower_address = Aux.lower_address

    type lower_pattern = Aux.lower_pattern

    type lower_connection = connection

    let hash = Aux.hash

    let equal = Aux.equal

    let to_string = Aux.to_string

    let lower_address = Aux.lower_address

    let default_pattern = Aux.default_pattern

    let source conn = Aux.source conn.pconn

    let pseudo conn ~proto ~len = Aux.pseudo conn.pconn ~proto ~len

    let mtu conn = Aux.mtu conn.pconn
  end
end
