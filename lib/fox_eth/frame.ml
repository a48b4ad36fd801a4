open Fox_basis

let header_length = 14

let ethertype_ipv4 = 0x0800

let ethertype_arp = 0x0806

let ethertype_tcp_direct = 0x88B5 (* IEEE 802 local experimental *)

type header = { dst : Mac.t; src : Mac.t; ethertype : int }

let encode { dst; src; ethertype } p =
  Packet.push_header p header_length;
  let b = Packet.buffer p and off = Packet.offset p in
  Mac.write dst b off;
  Mac.write src b (off + 6);
  Wire.set_u16 b (off + 12) ethertype

let dst p = Mac.read (Packet.buffer p) (Packet.offset p)

let src p = Mac.read (Packet.buffer p) (Packet.offset p + 6)

let ethertype p = Wire.get_u16 (Packet.buffer p) (Packet.offset p + 12)

let decode p =
  if Packet.length p < header_length then None
  else begin
    let hdr = { dst = dst p; src = src p; ethertype = ethertype p } in
    Packet.pull_header p header_length;
    Some hdr
  end

let append_fcs p =
  (* the FCS freezes the frame bytes: a deferred checksum must be in them *)
  Packet.finalize_tx_csum p;
  let crc = Crc32.digest (Packet.buffer p) (Packet.offset p) (Packet.length p) in
  Packet.push_trailer p 4;
  Packet.set_u32 p (Packet.length p - 4) crc

let check_and_strip_fcs p =
  let len = Packet.length p in
  if len < 4 then false
  else begin
    let stored = Packet.get_u32 p (len - 4) in
    let crc = Crc32.digest (Packet.buffer p) (Packet.offset p) (len - 4) in
    if crc = stored then begin
      Packet.pull_trailer p 4;
      true
    end
    else false
  end
