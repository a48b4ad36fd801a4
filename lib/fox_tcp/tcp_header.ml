open Fox_basis

let min_length = 20

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;
  urg : bool;
  ack_flag : bool;
  psh : bool;
  rst : bool;
  syn : bool;
  fin : bool;
  window : int;
  urgent : int;
  mss : int option;
}

let basic ~src_port ~dst_port =
  {
    src_port;
    dst_port;
    seq = Seq.zero;
    ack = Seq.zero;
    urg = false;
    ack_flag = false;
    psh = false;
    rst = false;
    syn = false;
    fin = false;
    window = 0;
    urgent = 0;
    mss = None;
  }

let header_length hdr = min_length + (match hdr.mss with Some _ -> 4 | None -> 0)

let flags_byte hdr =
  (if hdr.urg then 0x20 else 0)
  lor (if hdr.ack_flag then 0x10 else 0)
  lor (if hdr.psh then 0x08 else 0)
  lor (if hdr.rst then 0x04 else 0)
  lor (if hdr.syn then 0x02 else 0)
  lor if hdr.fin then 0x01 else 0

let encode ?(defer = false) ~pseudo hdr p =
  let hlen = header_length hdr in
  Packet.push_header p hlen;
  (* the checksum field first, through [Packet], which drops any RX sum
     memo the buffer carried; the rest of the header is the front of the
     window just pushed, written through the buffer, each access checked
     against it *)
  Packet.set_u16 p 16 0;
  let b = Packet.buffer p and off = Packet.offset p in
  Wire.set_u16 b off hdr.src_port;
  Wire.set_u16 b (off + 2) hdr.dst_port;
  Wire.set_u32 b (off + 4) (Seq.to_int hdr.seq);
  Wire.set_u32 b (off + 8) (Seq.to_int hdr.ack);
  let data_offset_words = hlen / 4 in
  Wire.set_u8 b (off + 12) (data_offset_words lsl 4);
  Wire.set_u8 b (off + 13) (flags_byte hdr);
  Wire.set_u16 b (off + 14) hdr.window;
  Wire.set_u16 b (off + 18) hdr.urgent;
  (match hdr.mss with
  | Some mss ->
    Wire.set_u8 b (off + 20) 2;
    Wire.set_u8 b (off + 21) 4;
    Wire.set_u16 b (off + 22) mss
  | None -> ());
  if not (Checksum.is_none pseudo) then
    if defer then
      (* TX checksum offload: leave the field zero and let the link-layer
         fused copy (or [Packet.finalize_tx_csum]) compute it while the
         bytes are being moved anyway. *)
      Packet.request_tx_csum p ~at:16 ~init:(Checksum.finish pseudo)
    else
      let acc =
        Checksum.add_bytes pseudo (Packet.buffer p) (Packet.offset p)
          (Packet.length p)
      in
      Packet.set_u16 p 16 (Checksum.checksum_of acc)

type error = Too_short | Bad_offset | Bad_checksum | Bad_options

(* [decode_options]' answers besides an MSS (which is 16 bits) *)
let no_mss = -1

let bad_options = -2

(* Scan the option bytes from [i] for an MSS ([mss] so far); skip
   everything else.  Malformed lists — a kind byte with its length
   truncated off, a zero/one length (which would loop forever), or a
   length running past the header — are a parse error, not a shrug:
   silently "stopping early" would let a forged option list smuggle
   arbitrary bytes past any future option the stack learns to read. *)
let rec scan_options p hlen i mss =
  if i >= hlen then mss
  else
    match Packet.get_u8 p i with
    | 0 -> mss (* end of options; the rest is padding *)
    | 1 -> scan_options p hlen (i + 1) mss (* nop *)
    | kind ->
      if i + 1 >= hlen then bad_options (* length byte truncated *)
      else
        let len = Packet.get_u8 p (i + 1) in
        if len < 2 || i + len > hlen then bad_options
        else if kind = 2 then
          if len = 4 then
            scan_options p hlen (i + len) (Packet.get_u16 p (i + 2))
          else bad_options (* MSS is fixed-length 4 *)
        else scan_options p hlen (i + len) mss

let decode ~pseudo p =
  if Packet.length p < min_length then Error Too_short
  else begin
    let hlen = Packet.get_u8 p 12 lsr 4 * 4 in
    if hlen < min_length || hlen > Packet.length p then Error Bad_offset
    else begin
      let checksum_ok =
        Checksum.is_none pseudo
        ||
          (* RX checksum offload: a fused link copy recorded the folded sum
             of the bytes it moved; derive the window sum from it instead of
             re-touching the payload.  [fold16 (p + s) = 0xFFFF] is exactly
             [valid] — the pseudo sum is never zero (proto and length are
             non-zero), so the 0 / 0xFFFF representative ambiguity of
             one's-complement arithmetic cannot arise. *)
          let cached = Packet.cached_window_sum p in
          if cached >= 0 then
            Checksum.fold16 (Checksum.finish pseudo + cached) = 0xFFFF
          else
            Checksum.valid
              (Checksum.add_bytes pseudo (Packet.buffer p) (Packet.offset p)
                 (Packet.length p))
      in
      if not checksum_ok then Error Bad_checksum
      else begin
        let mss = scan_options p hlen min_length no_mss in
        if mss = bad_options then Error Bad_options
        else
          let b = Packet.buffer p and off = Packet.offset p in
          let flags = Wire.get_u8 b (off + 13) in
          let hdr =
            {
              src_port = Wire.get_u16 b off;
              dst_port = Wire.get_u16 b (off + 2);
              seq = Seq.of_int (Wire.get_u32 b (off + 4));
              ack = Seq.of_int (Wire.get_u32 b (off + 8));
              urg = flags land 0x20 <> 0;
              ack_flag = flags land 0x10 <> 0;
              psh = flags land 0x08 <> 0;
              rst = flags land 0x04 <> 0;
              syn = flags land 0x02 <> 0;
              fin = flags land 0x01 <> 0;
              window = Wire.get_u16 b (off + 14);
              urgent = Wire.get_u16 b (off + 18);
              mss = (if mss = no_mss then None else Some mss);
            }
          in
          Packet.pull_header p hlen;
          Ok hdr
      end
    end
  end

let pp fmt hdr =
  let flag c b = if b then c else "" in
  Format.fprintf fmt "%d > %d [%s%s%s%s%s%s] seq=%a ack=%a win=%d%s" hdr.src_port
    hdr.dst_port (flag "S" hdr.syn) (flag "F" hdr.fin) (flag "R" hdr.rst)
    (flag "P" hdr.psh) (flag "." hdr.ack_flag) (flag "U" hdr.urg) Seq.pp hdr.seq
    Seq.pp hdr.ack hdr.window
    (match hdr.mss with Some m -> Printf.sprintf " mss=%d" m | None -> "")
