(** A scripted SYN-flood peer.

    The attacker is a host with an IP stack but no TCP: it crafts raw TCP
    segments — SYNs from a sweep of source ports, bare ACKs carrying
    forged cookies, RSTs abandoning earlier handshakes — and fires them at
    a victim listener, then ignores whatever comes back (every reply is
    released, so the leak census stays clean).  Because it never completes
    a handshake, each of its SYNs pins whatever half-open state the victim
    engine is willing to allocate: a full TCB in legacy or baseline mode,
    a compact cache entry or nothing at all under the structured engine's
    SYN-cache/cookie defenses.

    Everything is deterministic: sequence numbers and source ports derive
    from a counter, so the same call sequence produces the same frames. *)

open Fox_basis
module Tcp_header = Fox_tcp.Tcp_header
module Seq = Fox_tcp.Seq
module Action = Fox_tcp.Action

module Make
    (Lower : Fox_proto.Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Aux : Fox_proto.Protocol.IP_AUX
             with type lower_address = Lower.address
              and type lower_pattern = Lower.address_pattern
              and type lower_connection = Lower.connection) =
struct
  let proto_number = 6

  type t = {
    lconn : Lower.connection;
    lower_send : Packet.t -> unit;
    mutable next_port : int;
    mutable sent : int;  (** segments actually put on the wire *)
  }

  (** [create lower ~target] opens the attacker's lower-layer session to
      [target].  Replies (SYN-ACKs, RSTs) are released unread. *)
  let create lower ~target =
    let lconn =
      Lower.connect lower
        (Aux.lower_address ~proto:proto_number target)
        (fun _lconn -> ((fun packet -> Packet.release packet), ignore))
    in
    { lconn; lower_send = Lower.prepare_send lconn; next_port = 40000; sent = 0 }

  let sent t = t.sent

  (** [transmit t ?data hdr] puts one raw segment on the wire, counting
      it unless the lower layer refuses it. *)
  let transmit t ?(data = None) hdr =
    let pseudo_for len = Aux.pseudo t.lconn ~proto:proto_number ~len in
    match
      Action.externalize ~pseudo_for ~hdr ~data
        ~allocate:(fun len ->
          Packet.create
            ~headroom:(24 + Lower.headroom t.lconn)
            ~tailroom:(Lower.tailroom t.lconn)
            len)
        ~send:t.lower_send ()
    with
    | () -> t.sent <- t.sent + 1
    | exception Fox_proto.Common.Send_failed _ -> ()

  (* The attacker's ISN for the handshake from [src_port]: any fixed
     function works, it only has to be consistent between a SYN and a
     follow-up RST for the same port. *)
  let isn ~src_port = Seq.of_int ((src_port * 9973) land 0xFFFFFF)

  (** [syn t ~dst_port] sends one SYN from a fresh source port and returns
      that port.  The handshake is never completed. *)
  let syn t ~dst_port =
    let src_port = t.next_port in
    t.next_port <- t.next_port + 1;
    transmit t
      { (Tcp_header.basic ~src_port ~dst_port) with
        Tcp_header.seq = isn ~src_port;
        syn = true;
        window = 4096;
        mss = Some 1460;
      };
    src_port

  (** [rst t ~src_port ~dst_port] abandons the handshake [syn] started
      from [src_port], the way a real peer whose connect was aborted
      would. *)
  let rst t ~src_port ~dst_port =
    transmit t
      { (Tcp_header.basic ~src_port ~dst_port) with
        Tcp_header.seq = Seq.add (isn ~src_port) 1;
        rst = true;
        ack_flag = true;
        ack = Seq.zero;
      }

  (** [bare_ack t ~dst_port] sends an ACK for a handshake that never
      happened — under SYN cookies this is the forged-cookie probe and
      must earn an RST, never a connection. *)
  let bare_ack t ~dst_port =
    let src_port = t.next_port in
    t.next_port <- t.next_port + 1;
    transmit t
      { (Tcp_header.basic ~src_port ~dst_port) with
        Tcp_header.seq = Seq.add (isn ~src_port) 1;
        ack_flag = true;
        ack = Seq.of_int 0x1234567;
        window = 4096;
      }

  (** [script lower ~target ~dst_port ~syns ~bad_acks ~gap_us] forks the
      scripted flood when there is one to fire: after [wait_us] (if
      given), [syns] half-open SYNs then [bad_acks] forged-cookie ACKs,
      [gap_us] apart, then an RST abandoning each handshake [abandon]
      picks (by SYN index), [rst_gap_us] apart.  [on_done] gets the
      count of segments put on the wire. *)
  let script ?wait_us lower ~target ~dst_port ~syns ~bad_acks ~gap_us
      ~abandon ~rst_gap_us ~on_done =
    if syns > 0 || bad_acks > 0 then
      Fox_sched.Scheduler.fork (fun () ->
          Option.iter Fox_sched.Scheduler.sleep wait_us;
          let t = create lower ~target in
          let ports = ref [] in
          for _ = 1 to syns do
            ports := syn t ~dst_port :: !ports;
            Fox_sched.Scheduler.sleep gap_us
          done;
          for _ = 1 to bad_acks do
            bare_ack t ~dst_port;
            Fox_sched.Scheduler.sleep gap_us
          done;
          List.iteri
            (fun i src_port ->
              if abandon i then begin
                rst t ~src_port ~dst_port;
                Fox_sched.Scheduler.sleep rst_gap_us
              end)
            (List.rev !ports);
          on_done (sent t))
end
