open Fox_basis

let internalize ~pseudo packet ~now =
  match Tcp_header.decode ~pseudo packet with
  | Error e -> Error e
  | Ok hdr -> Ok { Tcb.hdr; data = packet; arrived_at = now }

let externalize ?defer ~pseudo_for ~hdr ~data ~allocate ~send () =
  let hlen = Tcp_header.header_length hdr in
  match data with
  | Some packet ->
    (* The header is pushed onto the caller's packet in place, and that
       packet may sit on the retransmission queue: restore it even when
       [send] raises, or the next retransmission would re-encode a header
       on top of the old one and carry it as 20 extra bytes of data.  The
       send action owned one reference to the packet; it is consumed here
       (the retransmission queue, if any, holds its own). *)
    let saved = Packet.save packet in
    (match
       let pseudo = pseudo_for (hlen + Packet.length packet) in
       Tcp_header.encode ?defer ~pseudo hdr packet;
       send packet
     with
    | () ->
      Packet.restore packet saved;
      Packet.release packet
    | exception e ->
      Packet.restore packet saved;
      Packet.release packet;
      raise e)
  | None -> (
    let packet = allocate 0 in
    match
      let pseudo = pseudo_for hlen in
      Tcp_header.encode ?defer ~pseudo hdr packet;
      send packet
    with
    | () -> Packet.release packet
    | exception e ->
      Packet.release packet;
      raise e)
