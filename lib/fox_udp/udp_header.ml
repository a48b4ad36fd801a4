open Fox_basis

let length = 8

type t = { src_port : int; dst_port : int; checksum : int }

let encode ~pseudo hdr p =
  Packet.push_header p length;
  let total = Packet.length p in
  Packet.set_u16 p 0 hdr.src_port;
  Packet.set_u16 p 2 hdr.dst_port;
  Packet.set_u16 p 4 total;
  Packet.set_u16 p 6 0;
  match pseudo with
  | None -> ()
  | Some acc ->
    let acc =
      Checksum.add_bytes acc (Packet.buffer p) (Packet.offset p) total
    in
    let ck = Checksum.checksum_of acc in
    (* 0 means "no checksum"; an actual zero sum is sent as 0xFFFF *)
    Packet.set_u16 p 6 (if ck = 0 then 0xFFFF else ck)

type error = Too_short | Bad_length | Bad_checksum

let decode ~pseudo p =
  if Packet.length p < length then Error Too_short
  else begin
    let udp_len = Packet.get_u16 p 4 in
    if udp_len < length || udp_len > Packet.length p then Error Bad_length
    else begin
      let hdr =
        {
          src_port = Packet.get_u16 p 0;
          dst_port = Packet.get_u16 p 2;
          checksum = Packet.get_u16 p 6;
        }
      in
      (* strip link padding, then validate *)
      Packet.trim p udp_len;
      let valid =
        match pseudo with
        | None -> true
        | Some _ when hdr.checksum = 0 -> true (* sender opted out *)
        | Some acc ->
          Checksum.valid
            (Checksum.add_bytes acc (Packet.buffer p) (Packet.offset p) udp_len)
      in
      if not valid then Error Bad_checksum
      else begin
        Packet.pull_header p length;
        Ok hdr
      end
    end
  end
