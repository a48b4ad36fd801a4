open Fox_basis

let min_length = 20

let proto_icmp = 1

type t = {
  tos : int;
  total_length : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;
  ttl : int;
  proto : int;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
}

let encode ~checksum hdr p =
  Packet.push_header p min_length;
  let b = Packet.buffer p and off = Packet.offset p in
  Wire.set_u8 b off 0x45 (* version 4, IHL 5 *);
  Wire.set_u8 b (off + 1) hdr.tos;
  Wire.set_u16 b (off + 2) hdr.total_length;
  Wire.set_u16 b (off + 4) hdr.id;
  let flags =
    (if hdr.dont_fragment then 0x4000 else 0)
    lor (if hdr.more_fragments then 0x2000 else 0)
    lor (hdr.fragment_offset / 8)
  in
  Wire.set_u16 b (off + 6) flags;
  Wire.set_u8 b (off + 8) hdr.ttl;
  Wire.set_u8 b (off + 9) hdr.proto;
  Wire.set_u16 b (off + 10) 0;
  Ipv4_addr.write hdr.src b (off + 12);
  Ipv4_addr.write hdr.dst b (off + 14 + 2);
  if checksum then
    Wire.set_u16 b (off + 10) (Checksum.checksum b off min_length)

type error = Too_short | Bad_version of int | Bad_checksum | Bad_length

let[@inline] field16 p at =
  Wire.get_u16 (Packet.buffer p) (Packet.offset p + at)

let[@inline] field8 p at = Wire.get_u8 (Packet.buffer p) (Packet.offset p + at)

let header_length p = (field8 p 0 land 0xF) * 4

let total_length p = field16 p 2

let id p = field16 p 4

let more_fragments p = field16 p 6 land 0x2000 <> 0

let fragment_offset p = field16 p 6 land 0x1FFF * 8

let proto p = field8 p 9

let src p = Ipv4_addr.read (Packet.buffer p) (Packet.offset p + 12)

let dst p = Ipv4_addr.read (Packet.buffer p) (Packet.offset p + 16)

let verify ~checksum p =
  if Packet.length p < min_length then Some Too_short
  else begin
    let vi = field8 p 0 in
    let version = vi lsr 4 and ihl = (vi land 0xF) * 4 in
    if version <> 4 then Some (Bad_version version)
    else if ihl < min_length || ihl > Packet.length p then Some Bad_length
    else begin
      let total_length = total_length p in
      if total_length < ihl || total_length > Packet.length p then
        Some Bad_length
      else if
        checksum
        && Checksum.(
             finish (add_bytes zero (Packet.buffer p) (Packet.offset p) ihl))
           <> 0xFFFF
      then Some Bad_checksum
      else None
    end
  end

(* the header and any link padding beyond total_length *)
let strip p =
  let ihl = header_length p in
  Packet.trim p (total_length p);
  Packet.pull_header p ihl

let decode ~checksum p =
  match verify ~checksum p with
  | Some e -> Error e
  | None ->
    let flags = field16 p 6 in
    let hdr =
      {
        tos = field8 p 1;
        total_length = total_length p;
        id = id p;
        dont_fragment = flags land 0x4000 <> 0;
        more_fragments = more_fragments p;
        fragment_offset = fragment_offset p;
        ttl = field8 p 8;
        proto = proto p;
        src = src p;
        dst = dst p;
      }
    in
    strip p;
    Ok hdr

let pp fmt h =
  Format.fprintf fmt "%a -> %a proto=%d len=%d id=%d%s off=%d ttl=%d"
    Ipv4_addr.pp h.src Ipv4_addr.pp h.dst h.proto h.total_length h.id
    (if h.more_fragments then "+MF" else "")
    h.fragment_offset h.ttl
