(** The Ethernet protocol layer.

    A functor in the style of the paper's Figure 3: static behaviour (here,
    whether to compute and check a software CRC) is fixed by functor
    application, and the result satisfies the generic
    {!Fox_proto.Protocol.PROTOCOL} signature extended with
    Ethernet-specific operations ({!module-type:S}).

    An Ethernet {e connection} is a (remote MAC, ethertype) pair, exactly
    an x-kernel session: IP opens one per next hop, ARP opens one to the
    broadcast address, and the paper's non-standard stack opens one per TCP
    peer.  Incoming frames are demultiplexed to the connection with a
    matching (source, ethertype) key, or to a passive listener on the
    ethertype, which creates the connection and upcalls its handler. *)

open Fox_basis
module Protocol = Fox_proto.Protocol

type address = { dest : Mac.t; proto : int }

type pattern = { match_proto : int }

type stats = {
  rx_not_mine : int;  (** frames for another station (promiscuous drop) *)
  rx_bad_crc : int;  (** frames failing the software FCS check *)
  rx_unknown : int;  (** frames with no matching connection or listener *)
  rx_delivered : int;
}

(** Static configuration, fixed at functor application. *)
module type PARAMS = sig
  (** Compute an FCS trailer on send and verify it on receive.  The
      simulated wire corrupts bits only in the frame body, so with
      [do_crc] the paper's "TCP over Ethernet without checksums" stack is
      sound — modulo the famous reviewer footnote. *)
  val do_crc : bool
end

(** The Ethernet-specific protocol signature, derived from the generic one
    as in Figure 2 of the paper. *)
module type S = sig
  include
    Protocol.PROTOCOL
      with type address = address
       and type address_pattern = pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  (** [create device ~mac] is an Ethernet instance bound to [device] with
      station address [mac]. *)
  val create : Fox_dev.Device.t -> mac:Mac.t -> t

  val local_mac : t -> Mac.t

  (** [peer conn] is the remote station of a connection. *)
  val peer : connection -> Mac.t

  (** [proto_of conn] is the connection's ethertype. *)
  val proto_of : connection -> int

  val stats : t -> stats
end

module Make (Params : PARAMS) : S = struct
  include Fox_proto.Common

  (* A connection's demux key: (remote station, ethertype), 64 bits that
     do not fit one int.  The receive path looks a frame up through the
     instance's own [probe], refilled per frame, so a lookup allocates no
     key. *)
  module Key = struct
    type t = { mutable station : int; mutable ethertype : int }

    let equal a b = a.station = b.station && a.ethertype = b.ethertype
    let hash k = Hash.int (k.station lxor (k.ethertype lsl 47))
  end

  module Conns = Hashtbl.Make (Key)

  type nonrec address = address

  type address_pattern = pattern

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Fox_proto.Status.t -> unit

  type connection = {
    eth : t;
    remote : Mac.t;
    ethertype : int;
    mutable data : data_handler;
    mutable status : status_handler;
    mutable send_staged : Packet.t -> unit;
    mutable alive : bool;
  }

  and listener = {
    l_eth : t;
    l_proto : int;
    l_handler : handler;
    mutable l_active : bool;
  }

  and handler = connection -> data_handler * status_handler

  and t = {
    device : Fox_dev.Device.t;
    mac : Mac.t;
    conns : connection Conns.t;
    probe : Key.t;
    listeners : listener Hash.Ints.t; (* ethertype *)
    mutable init_count : int;
    mutable rx_not_mine : int;
    mutable rx_bad_crc : int;
    mutable rx_unknown : int;
    mutable rx_delivered : int;
  }

  let fcs_bytes = if Params.do_crc then 4 else 0

  let local_mac t = t.mac

  let peer conn = conn.remote

  let proto_of conn = conn.ethertype

  (* The early stage of the send path: everything about the connection is
     resolved once, and the closure keeps only what the late stage needs. *)
  let stage_send t conn =
    let header = { Frame.dst = conn.remote; src = t.mac; ethertype = conn.ethertype } in
    let device = t.device in
    fun packet ->
      if not conn.alive then raise (Send_failed "ethernet connection closed");
      Frame.encode header packet;
      if Params.do_crc then Frame.append_fcs packet;
      Fox_dev.Device.send device packet

  let key conn =
    { Key.station = Mac.to_int conn.remote; ethertype = conn.ethertype }

  (* the connection for (station, ethertype); raises [Not_found] *)
  let find t station ethertype =
    t.probe.station <- Mac.to_int station;
    t.probe.ethertype <- ethertype;
    Conns.find t.conns t.probe

  let install_connection t ~remote ~ethertype (handler : handler) =
    let conn =
      {
        eth = t;
        remote;
        ethertype;
        data = ignore;
        status = ignore;
        send_staged = ignore;
        alive = true;
      }
    in
    conn.send_staged <- stage_send t conn;
    Conns.replace t.conns (key conn) conn;
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    conn.status Fox_proto.Status.Connected;
    conn

  (* Every frame handed to [receive] is owned by this station: a frame
     that is not delivered to a handler (bad FCS, undecodable, another
     station's, no listener) must be released or its buffer leaks — on a
     shared medium every transmission reaches every station, so the
     promiscuous-drop path runs for almost every frame on the wire. *)
  let receive t frame =
    (* the FCS covers the whole frame, so it is checked (and stripped)
       before the header is even looked at — exactly what the NIC does *)
    if Params.do_crc && not (Frame.check_and_strip_fcs frame) then begin
      t.rx_bad_crc <- t.rx_bad_crc + 1;
      Packet.release frame
    end
    else if Packet.length frame < Frame.header_length then begin
      t.rx_unknown <- t.rx_unknown + 1;
      Packet.release frame
    end
    else begin
      let dst = Frame.dst frame in
      if
        not
          (Mac.equal dst t.mac || Mac.is_broadcast dst || Mac.is_multicast dst)
      then begin
        t.rx_not_mine <- t.rx_not_mine + 1;
        Packet.release frame
      end
      else begin
        let src = Frame.src frame and ethertype = Frame.ethertype frame in
        Packet.pull_header frame Frame.header_length;
        match find t src ethertype with
        | conn ->
          t.rx_delivered <- t.rx_delivered + 1;
          conn.data frame
        | exception Not_found -> (
          match Hash.Ints.find_opt t.listeners ethertype with
          | Some l when l.l_active ->
            let conn =
              install_connection t ~remote:src ~ethertype l.l_handler
            in
            t.rx_delivered <- t.rx_delivered + 1;
            conn.data frame
          | Some _ | None ->
            t.rx_unknown <- t.rx_unknown + 1;
            Packet.release frame)
      end
    end

  let create device ~mac =
    let t =
      {
        device;
        mac;
        conns = Conns.create 16;
        probe = { Key.station = 0; ethertype = 0 };
        listeners = Hash.Ints.create 4;
        init_count = 0;
        rx_not_mine = 0;
        rx_bad_crc = 0;
        rx_unknown = 0;
        rx_delivered = 0;
      }
    in
    Fox_dev.Device.set_receive device (receive t);
    t

  let initialize t =
    t.init_count <- t.init_count + 1;
    t.init_count

  let teardown_connection reason conn =
    if conn.alive then begin
      conn.alive <- false;
      Conns.remove conn.eth.conns (key conn);
      conn.status reason
    end

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      Hash.Ints.iter (fun _ l -> l.l_active <- false) t.listeners;
      Hash.Ints.reset t.listeners;
      let conns = Conns.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (teardown_connection Fox_proto.Status.Aborted) conns
    end;
    t.init_count

  let connect t { dest; proto } handler =
    (* Session reuse, as in the x-kernel: an open of an existing
       (station, ethertype) session returns it; the first handler stays
       installed. *)
    match find t dest proto with
    | conn -> conn
    | exception Not_found ->
      install_connection t ~remote:dest ~ethertype:proto handler

  let start_passive t { match_proto } handler =
    if Hash.Ints.mem t.listeners match_proto then
      raise
        (Connection_failed
           (Printf.sprintf "ethertype 0x%04x already has a listener" match_proto));
    let l =
      { l_eth = t; l_proto = match_proto; l_handler = handler; l_active = true }
    in
    Hash.Ints.replace t.listeners match_proto l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hash.Ints.remove l.l_eth.listeners l.l_proto

  let headroom _conn = Frame.header_length

  let tailroom _conn = fcs_bytes

  let allocate_send _conn len =
    Packet.create ~headroom:Frame.header_length ~tailroom:fcs_bytes len

  let max_packet_size conn =
    Fox_dev.Device.mtu conn.eth.device - Frame.header_length - fcs_bytes

  let send conn packet = conn.send_staged packet

  let prepare_send conn = conn.send_staged

  let close conn = teardown_connection Fox_proto.Status.Closed conn

  let abort conn = teardown_connection Fox_proto.Status.Aborted conn

  let stats t =
    {
      rx_not_mine = t.rx_not_mine;
      rx_bad_crc = t.rx_bad_crc;
      rx_unknown = t.rx_unknown;
      rx_delivered = t.rx_delivered;
    }

  let pp_address fmt { dest; proto } =
    Format.fprintf fmt "%a/0x%04x" Mac.pp dest proto
end

(** The standard instantiation: hardware-like CRC left to the wire. *)
module Standard = Make (struct
  let do_crc = false
end)

(** With software FCS, for corrupting links and the paper's checksum-free
    TCP-over-Ethernet experiment. *)
module Checked = Make (struct
  let do_crc = true
end)
