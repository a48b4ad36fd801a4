(** The IP protocol layer.

    [Make (Lower) (Params)] yields an IP implementation over any lower
    protocol whose addresses can name a next hop — ARP-over-Ethernet in the
    standard stack, but the functor neither knows nor cares (Figure 3 of
    the paper builds stacks by exactly this kind of application).

    An IP {e connection} is a (peer address, protocol number) pair.  The
    lower-layer connection used to reach the peer is resolved lazily, on
    the first send, because resolution (e.g. ARP) may block and receive
    upcalls must not: incoming datagrams demultiplex purely on the IP
    header, so a connection is usable for delivery the instant it is
    registered.

    Sending a datagram larger than the lower layer's maximum packet
    fragments it; receiving reassembles (see {!Reass}).  Datagrams
    addressed to the instance's own address loop back through the normal
    receive path without touching the wire. *)

open Fox_basis
module Protocol = Fox_proto.Protocol

type address = { dest : Ipv4_addr.t; proto : int }

type pattern = { match_proto : int }

type stats = {
  rx_delivered : int;
  rx_bad_header : int;
  rx_not_mine : int;
  rx_unknown_proto : int;
  rx_fragments : int;
  tx_datagrams : int;
  tx_fragmented : int;  (** datagrams that needed fragmentation *)
}

(** Static configuration, fixed at functor application (the paper passes
    the same knobs as functor parameters to its Ip functor). *)
module type PARAMS = sig
  (** Compute and verify the IP header checksum. *)
  val compute_checksums : bool

  (** TTL stamped on outgoing datagrams. *)
  val default_ttl : int

  (** Reassembly give-up time, virtual µs. *)
  val reassembly_timeout_us : int
end

module Default_params : PARAMS = struct
  let compute_checksums = true
  let default_ttl = 64
  let reassembly_timeout_us = 30_000_000
end

(** The IP-specific protocol signature, derived from the generic one.
    [lower_address], [lower_pattern] and [lower_instance] are fixed by
    {!Make} to the lower layer's types. *)
module type S = sig
  include
    Protocol.PROTOCOL
      with type address = address
       and type address_pattern = pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  type lower_address
  type lower_pattern
  type lower_instance

  type config = {
    local_ip : Ipv4_addr.t;
    route : Route.t;
    lower_address : Ipv4_addr.t -> lower_address;
        (** next-hop IP to lower-layer address (identity over ARP) *)
    lower_pattern : lower_pattern;
        (** what to listen on below (e.g. the IPv4 ethertype) *)
  }

  (** [create lower config] is an IP instance bound to one lower-layer
      instance; it installs a passive open below so that datagrams start
      flowing immediately. *)
  val create : lower_instance -> config -> t

  val local_ip : t -> Ipv4_addr.t

  (** Connection accessors used by the {!Ip_aux} structure TCP and UDP
      receive as their [IP_AUX] parameter. *)

  val peer : connection -> Ipv4_addr.t

  val local : connection -> Ipv4_addr.t

  val proto_of : connection -> int

  val stats : t -> stats

  val reassembly_stats : t -> Reass.stats
end

module Make
    (Lower : Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Params : PARAMS) :
  S
    with type lower_address = Lower.address
     and type lower_pattern = Lower.address_pattern
     and type lower_instance = Lower.t = struct
  include Fox_proto.Common

  type nonrec address = address

  type address_pattern = pattern

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Fox_proto.Status.t -> unit

  type lower_address = Lower.address

  type lower_pattern = Lower.address_pattern

  type lower_instance = Lower.t

  type config = {
    local_ip : Ipv4_addr.t;
    route : Route.t;
    lower_address : Ipv4_addr.t -> lower_address;
    lower_pattern : lower_pattern;
  }

  type connection = {
    ip : t;
    peer : Ipv4_addr.t;
    proto : int;
    mutable data : data_handler;
    mutable status : status_handler;
    mutable staged : (Packet.t -> unit) option;
    mutable next_hop : Lower.connection option;
        (** the lower connection the route picked, once resolved: the
            headroom and size queries of every packet ask for it *)
    mutable alive : bool;
  }

  and listener = {
    l_ip : t;
    l_proto : int;
    l_handler : handler;
    mutable l_active : bool;
  }

  and handler = connection -> data_handler * status_handler

  and t = {
    lower : Lower.t;
    config : config;
    conns : connection Hash.Ints.t; (* [key peer proto] *)
    listeners : listener Hash.Ints.t;
    lower_conns : Lower.connection Hash.Ints.t; (* next-hop ip *)
    reass : Reass.t;
    mutable next_id : int;
    mutable init_count : int;
    mutable rx_delivered : int;
    mutable rx_bad_header : int;
    mutable rx_not_mine : int;
    mutable rx_unknown_proto : int;
    mutable rx_fragments : int;
    mutable tx_datagrams : int;
    mutable tx_fragmented : int;
  }

  let local_ip t = t.config.local_ip

  let peer conn = conn.peer

  let local conn = conn.ip.config.local_ip

  let proto_of conn = conn.proto

  (* ---------------- receive path ---------------- *)

  (* A connection's demux key, (peer, protocol) in one int. *)
  let key peer proto = (Ipv4_addr.to_int peer lsl 8) lor proto

  let install_connection t ~peer ~proto (handler : handler) =
    let conn =
      { ip = t; peer; proto; data = ignore; status = ignore; staged = None;
        next_hop = None; alive = true }
    in
    Hash.Ints.replace t.conns (key peer proto) conn;
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    conn.status Fox_proto.Status.Connected;
    conn

  let deliver t ~src ~proto packet =
    match Hash.Ints.find t.conns (key src proto) with
    | conn ->
      t.rx_delivered <- t.rx_delivered + 1;
      conn.data packet
    | exception Not_found -> (
      match Hash.Ints.find_opt t.listeners proto with
      | Some l when l.l_active ->
        let conn = install_connection t ~peer:src ~proto l.l_handler in
        t.rx_delivered <- t.rx_delivered + 1;
        conn.data packet
      | Some _ | None ->
        (* no taker above: the datagram dies here, give its buffer back *)
        t.rx_unknown_proto <- t.rx_unknown_proto + 1;
        Packet.release packet)

  let receive t packet =
    match Ipv4_header.verify ~checksum:Params.compute_checksums packet with
    | Some _ ->
      t.rx_bad_header <- t.rx_bad_header + 1;
      Packet.release packet
    | None ->
      let dst = Ipv4_header.dst packet in
      if
        not
          (Ipv4_addr.equal dst t.config.local_ip
          || Ipv4_addr.is_broadcast dst)
      then begin
        t.rx_not_mine <- t.rx_not_mine + 1;
        Packet.release packet
      end
      else begin
        let src = Ipv4_header.src packet and proto = Ipv4_header.proto packet in
        let more = Ipv4_header.more_fragments packet
        and offset = Ipv4_header.fragment_offset packet in
        if more || offset > 0 then begin
          t.rx_fragments <- t.rx_fragments + 1;
          let key = { Reass.src; dst; proto; id = Ipv4_header.id packet } in
          Ipv4_header.strip packet;
          match Reass.offer t.reass key ~offset ~more packet with
          | None -> ()
          | Some whole -> deliver t ~src ~proto whole
        end
        else begin
          Ipv4_header.strip packet;
          deliver t ~src ~proto packet
        end
      end

  (* ---------------- send path ---------------- *)

  let fresh_id t =
    let id = t.next_id in
    t.next_id <- (t.next_id + 1) land 0xFFFF;
    id

  (* Get (possibly opening) the lower connection for a next hop.  The
     lower handler feeds received datagrams back into [receive]. *)
  let lower_conn_for t next_hop =
    let key = Ipv4_addr.to_int next_hop in
    match Hash.Ints.find_opt t.lower_conns key with
    | Some lconn -> lconn
    | None ->
      let lconn =
        Lower.connect t.lower
          (t.config.lower_address next_hop)
          (fun _lconn -> ((fun packet -> receive t packet), ignore))
      in
      Hash.Ints.replace t.lower_conns key lconn;
      lconn

  let resolve conn =
    match conn.next_hop with
    | Some lconn -> lconn
    | None -> (
      let t = conn.ip in
      match Route.next_hop t.config.route conn.peer with
      | None ->
        raise
          (Send_failed ("no route to " ^ Ipv4_addr.to_string conn.peer))
      | Some next_hop ->
        let lconn = lower_conn_for t next_hop in
        conn.next_hop <- Some lconn;
        lconn)

  let encode_and_send t ~lower_send conn ~id ~offset ~more packet =
    let hdr =
      {
        Ipv4_header.tos = 0;
        total_length = Packet.length packet + Ipv4_header.min_length;
        id;
        dont_fragment = false;
        more_fragments = more;
        fragment_offset = offset;
        ttl = Params.default_ttl;
        proto = conn.proto;
        src = t.config.local_ip;
        dst = conn.peer;
      }
    in
    Ipv4_header.encode ~checksum:Params.compute_checksums hdr packet;
    lower_send packet

  let stage_send conn =
    let t = conn.ip in
    if Ipv4_addr.equal conn.peer t.config.local_ip then
      (* Self-addressed datagrams loop back through the receive path on a
         fresh thread, never touching the wire. *)
      fun packet ->
        if not conn.alive then raise (Send_failed "ip connection closed");
        t.tx_datagrams <- t.tx_datagrams + 1;
        let id = fresh_id t in
        let hdr =
          {
            Ipv4_header.tos = 0;
            total_length = Packet.length packet + Ipv4_header.min_length;
            id;
            dont_fragment = false;
            more_fragments = false;
            fragment_offset = 0;
            ttl = Params.default_ttl;
            proto = conn.proto;
            src = t.config.local_ip;
            dst = conn.peer;
          }
        in
        Ipv4_header.encode ~checksum:Params.compute_checksums hdr packet;
        (* Loop a settled copy back, like a wire crossing: the copy pays
           any deferred transport checksum, and the sender remains free to
           restore and recycle its own buffer when the send returns. *)
        let looped = Packet.copy_fused packet in
        Fox_sched.Scheduler.fork (fun () -> receive t looped)
    else begin
      (* Early stage: resolve the route and the lower connection, stage the
         lower layer's own send, remember the fragmentation threshold. *)
      let lconn = resolve conn in
      let lower_send = Lower.prepare_send lconn in
      let lower_max = Lower.max_packet_size lconn in
      let payload_max = lower_max - Ipv4_header.min_length in
      let lower_headroom = Lower.headroom lconn in
      fun packet ->
        if not conn.alive then raise (Send_failed "ip connection closed");
        t.tx_datagrams <- t.tx_datagrams + 1;
        let id = fresh_id t in
        if Packet.length packet <= payload_max then
          encode_and_send t ~lower_send conn ~id ~offset:0 ~more:false packet
        else begin
          t.tx_fragmented <- t.tx_fragmented + 1;
          (* a deferred transport checksum spans the whole datagram and
             cannot be patched per-fragment: settle it first *)
          Packet.finalize_tx_csum packet;
          let pieces =
            Frag.fragment ~mtu:payload_max
              ~headroom:(Ipv4_header.min_length + lower_headroom)
              packet
          in
          List.iter
            (fun (frag, offset, more) ->
              encode_and_send t ~lower_send conn ~id ~offset ~more frag;
              Packet.release frag)
            pieces
        end
    end

  let staged_of conn =
    match conn.staged with
    | Some f -> f
    | None ->
      let f = stage_send conn in
      conn.staged <- Some f;
      f

  (* ---------------- PROTOCOL operations ---------------- *)

  let initialize t =
    if t.init_count = 0 then ignore (Lower.initialize t.lower);
    t.init_count <- t.init_count + 1;
    t.init_count

  let teardown reason conn =
    if conn.alive then begin
      conn.alive <- false;
      Hash.Ints.remove conn.ip.conns (key conn.peer conn.proto);
      conn.status reason
    end

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      Hash.Ints.iter (fun _ l -> l.l_active <- false) t.listeners;
      Hash.Ints.reset t.listeners;
      let conns = Hash.Ints.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (teardown Fox_proto.Status.Aborted) conns;
      Hash.Ints.iter (fun _ lconn -> Lower.close lconn) t.lower_conns;
      Hash.Ints.reset t.lower_conns;
      ignore (Lower.finalize t.lower)
    end;
    t.init_count

  let connect t { dest; proto } handler =
    match Hash.Ints.find t.conns (key dest proto) with
    | conn -> conn (* session reuse, as in the x-kernel *)
    | exception Not_found -> install_connection t ~peer:dest ~proto handler

  let start_passive t { match_proto } handler =
    if Hash.Ints.mem t.listeners match_proto then
      raise
        (Connection_failed
           (Printf.sprintf "ip protocol %d already has a listener" match_proto));
    let l =
      { l_ip = t; l_proto = match_proto; l_handler = handler; l_active = true }
    in
    Hash.Ints.replace t.listeners match_proto l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hash.Ints.remove l.l_ip.listeners l.l_proto

  let send conn packet = staged_of conn packet

  let prepare_send conn = staged_of conn

  let close conn = teardown Fox_proto.Status.Closed conn

  let abort conn = teardown Fox_proto.Status.Aborted conn

  let self_connection conn =
    Ipv4_addr.equal conn.peer conn.ip.config.local_ip

  let max_packet_size conn =
    if self_connection conn then 65535 - Ipv4_header.min_length
    else Lower.max_packet_size (resolve conn) - Ipv4_header.min_length

  let headroom conn =
    if self_connection conn then Ipv4_header.min_length
    else Ipv4_header.min_length + Lower.headroom (resolve conn)

  let tailroom conn =
    if self_connection conn then 0 else Lower.tailroom (resolve conn)

  let allocate_send conn len =
    Packet.create ~headroom:(headroom conn) ~tailroom:(tailroom conn) len

  let stats t =
    {
      rx_delivered = t.rx_delivered;
      rx_bad_header = t.rx_bad_header;
      rx_not_mine = t.rx_not_mine;
      rx_unknown_proto = t.rx_unknown_proto;
      rx_fragments = t.rx_fragments;
      tx_datagrams = t.tx_datagrams;
      tx_fragmented = t.tx_fragmented;
    }

  let reassembly_stats t = Reass.stats t.reass

  let pp_address fmt { dest; proto } =
    Format.fprintf fmt "%a/%d" Ipv4_addr.pp dest proto

  let create lower config =
    let t =
      {
        lower;
        config;
        conns = Hash.Ints.create 32;
        listeners = Hash.Ints.create 4;
        lower_conns = Hash.Ints.create 8;
        reass = Reass.create ~timeout_us:Params.reassembly_timeout_us ();
        next_id = 1;
        init_count = 0;
        rx_delivered = 0;
        rx_bad_header = 0;
        rx_not_mine = 0;
        rx_unknown_proto = 0;
        rx_fragments = 0;
        tx_datagrams = 0;
        tx_fragmented = 0;
      }
    in
    (* Listen below so datagrams from not-yet-seen stations reach us. *)
    ignore
      (Lower.start_passive lower config.lower_pattern (fun _lconn ->
           ((fun packet -> receive t packet), ignore)));
    t
end
