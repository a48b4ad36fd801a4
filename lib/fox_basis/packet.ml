(* Checksum-offload state carried by a packet.

   - [Tx_defer]: the TCP encoder left its checksum field zero and recorded
     where the field lives, where its coverage starts, and the folded
     pseudo-header sum.  The link-layer fused copy computes the coverage sum
     while copying and patches the field in the copy (the software analogue
     of NIC transmit offload); [finalize_tx_csum] patches in place for paths
     that bypass the link copy (loopback fork, fragmentation, FCS, TAP).
   - [Rx_sum]: a fused copy recorded the folded one's-complement sum over
     the whole range it copied; the TCP decoder derives its window's sum by
     subtracting the short header prefix (and any trailer suffix) instead of
     re-traversing the payload.

   Offsets are absolute buffer positions so pushes/pulls of the window do
   not disturb them; a reallocating [push_header] shifts them by the blit
   delta. *)
type csum =
  | No_csum
  | Tx_defer of { mutable d_at : int; mutable d_start : int; d_init : int }
  | Rx_sum of { mutable m_start : int; m_len : int; m_sum : int }

type t = {
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable csum : csum;
  mutable refs : int;
}

let reallocation_count = ref 0

let reallocations () = !reallocation_count

let bytes_copied = ref 0

(* ---- Leak census and buffer recycling ----------------------------- *)

(* Per-domain packet state, like a scheduler run: packets never migrate
   between shard worlds, so it needs no lock.

   - [live]: packets created (any constructor) and not yet released to a
     zero count.  The soak and chaos harnesses bracket a run with it to
     prove that every drop path gives its buffer back.
   - The free lists: a buffer whose packet is released to a zero count is
     zeroed and kept for the next [create] of exactly its length.  Slots
     are direct-mapped by length ([len land (slots - 1)]); a slot serves
     one length at a time and changes length only when empty, and it
     keeps at most [depth] buffers — beyond that, buffers go to the GC.
     A kept buffer sits in the major heap, so reusing it costs no minor
     allocation and no promotion. *)
let slots = 64

let depth = 256

type domain = {
  mutable live : int;
  sizes : int array;  (** length each slot serves; -1 = never used *)
  free : Bytes.t array array;  (** per slot, [depth] cells once used *)
  counts : int array;  (** buffers kept per slot *)
}

let domain_key : domain Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        live = 0;
        sizes = Array.make slots (-1);
        free = Array.make slots [||];
        counts = Array.make slots 0;
      })

let live_packets () = (Domain.DLS.get domain_key).live

let take d n =
  let i = n land (slots - 1) in
  let c = d.counts.(i) in
  if c > 0 && d.sizes.(i) = n then begin
    let stack = d.free.(i) in
    let b = stack.(c - 1) in
    stack.(c - 1) <- Bytes.empty;
    d.counts.(i) <- c - 1;
    b
  end
  else Bytes.make n '\000'

let recycle d b =
  let n = Bytes.length b in
  let i = n land (slots - 1) in
  let c = d.counts.(i) in
  if n > 0 && c < depth && (c = 0 || d.sizes.(i) = n) then begin
    if Array.length d.free.(i) = 0 then
      d.free.(i) <- Array.make depth Bytes.empty;
    d.sizes.(i) <- n;
    (* a reused buffer must equal [Bytes.make n '\000'], and a reader
       that breaks the ownership contract sees zeros, not stale bytes *)
    Bytes.unsafe_fill b 0 n '\000';
    d.free.(i).(c) <- b;
    d.counts.(i) <- c + 1
  end

let retain p = p.refs <- p.refs + 1

let release p =
  (* Idempotent once the count reaches zero: a second release of the same
     packet is a no-op, and so is releasing {!placeholder}. *)
  if p.refs > 0 then begin
    p.refs <- p.refs - 1;
    if p.refs = 0 then begin
      let d = Domain.DLS.get domain_key in
      d.live <- d.live - 1;
      recycle d p.buf
    end
  end

let discard p =
  if p.refs > 0 then begin
    p.refs <- 1;
    release p
  end

let placeholder =
  { buf = Bytes.empty; off = 0; len = 0; csum = No_csum; refs = 0 }

(* ---- Construction ------------------------------------------------- *)

let create ?(headroom = 0) ?(tailroom = 0) len =
  if len < 0 || headroom < 0 || tailroom < 0 then invalid_arg "Packet.create";
  let d = Domain.DLS.get domain_key in
  d.live <- d.live + 1;
  {
    buf = take d (headroom + len + tailroom);
    off = headroom;
    len;
    csum = No_csum;
    refs = 1;
  }

let of_string ?headroom ?tailroom s =
  let p = create ?headroom ?tailroom (String.length s) in
  Bytes.blit_string s 0 p.buf p.off (String.length s);
  bytes_copied := !bytes_copied + String.length s;
  p

let length p = p.len

let headroom p = p.off

let tailroom p = Bytes.length p.buf - p.off - p.len

let push_header p n =
  if n < 0 then invalid_arg "Packet.push_header";
  if n <= p.off then p.off <- p.off - n
  else begin
    (* Out of headroom: reallocate with fresh space.  Kept off the fast
       path by sizing allocations with the stack's total header budget. *)
    incr reallocation_count;
    let extra = n - p.off in
    let nbuf = Bytes.make (Bytes.length p.buf + extra) '\000' in
    Bytes.blit p.buf p.off nbuf n p.len;
    p.buf <- nbuf;
    p.off <- 0;
    (* every byte moved from absolute x to x + extra *)
    (match p.csum with
    | No_csum -> ()
    | Tx_defer d ->
      d.d_at <- d.d_at + extra;
      d.d_start <- d.d_start + extra
    | Rx_sum m -> m.m_start <- m.m_start + extra)
  end;
  p.len <- p.len + n

let pull_header p n =
  if n < 0 || n > p.len then invalid_arg "Packet.pull_header";
  p.off <- p.off + n;
  p.len <- p.len - n

let push_trailer p n =
  if n < 0 then invalid_arg "Packet.push_trailer";
  let avail = tailroom p in
  if n > avail then begin
    incr reallocation_count;
    let nbuf = Bytes.make (Bytes.length p.buf + n - avail) '\000' in
    Bytes.blit p.buf p.off nbuf p.off p.len;
    p.buf <- nbuf
  end;
  p.len <- p.len + n

let pull_trailer p n =
  if n < 0 || n > p.len then invalid_arg "Packet.pull_trailer";
  p.len <- p.len - n

let trim p len =
  if len < 0 || len > p.len then invalid_arg "Packet.trim";
  p.len <- len

let sub ?(headroom = 0) p off len =
  if off < 0 || len < 0 || off + len > p.len then invalid_arg "Packet.sub";
  let q = create ~headroom len in
  Bytes.blit p.buf (p.off + off) q.buf q.off len;
  bytes_copied := !bytes_copied + len;
  q

let copy p = sub ~headroom:p.off p 0 p.len

(* A window copy that also settles checksum-offload state: a deferred TX
   checksum is computed from the fused sum and patched into the copy (the
   source keeps its defer — retransmissions re-encode), and the folded sum
   of the copied bytes is recorded on the copy so the receiver's TCP
   decode can reuse it. *)
let copy_fused p =
  match p.csum with
  | Tx_defer { d_at; d_start; d_init } ->
    let q = create ~headroom:p.off p.len in
    let len1 = d_start - p.off in
    let s1 =
      if len1 > 0 then Copy.blit_checksum p.buf p.off q.buf q.off len1 ~init:0
      else 0
    in
    let s2 =
      Copy.blit_checksum p.buf d_start q.buf (q.off + len1) (p.len - len1)
        ~init:0
    in
    let field = lnot (Checksum.fold16 (d_init + s2)) land 0xFFFF in
    Wire.set_u16 q.buf (q.off + (d_at - p.off)) field;
    (* the patched field replaced a zero word at even word offset, so the
       copy's sum is s1 + s2 + field; only record the memo when the second
       span starts at even stream parity *)
    if len1 land 1 = 0 then
      q.csum <-
        Rx_sum
          {
            m_start = q.off;
            m_len = p.len;
            m_sum = Checksum.fold16 (s1 + s2 + field);
          };
    q
  | No_csum | Rx_sum _ ->
    let q = create ~headroom:p.off p.len in
    let s = Copy.blit_checksum p.buf p.off q.buf q.off p.len ~init:0 in
    q.csum <- Rx_sum { m_start = q.off; m_len = p.len; m_sum = s };
    q

let request_tx_csum p ~at ~init =
  if at < 0 || at + 2 > p.len then invalid_arg "Packet.request_tx_csum";
  p.csum <- Tx_defer { d_at = p.off + at; d_start = p.off; d_init = init }

let finalize_tx_csum p =
  match p.csum with
  | Tx_defer { d_at; d_start; d_init } ->
    let cover = p.off + p.len - d_start in
    let s =
      Checksum.finish (Checksum.add_bytes Checksum.zero p.buf d_start cover)
    in
    Wire.set_u16 p.buf d_at (lnot (Checksum.fold16 (d_init + s)) land 0xFFFF);
    p.csum <- No_csum
  | No_csum | Rx_sum _ -> ()

let cached_window_sum p =
  match p.csum with
  | Rx_sum { m_start; m_len; m_sum }
    when p.off >= m_start && p.off + p.len <= m_start + m_len ->
    let pre_len = p.off - m_start in
    if pre_len land 1 <> 0 then -1
    else begin
      let suf_start = p.off + p.len in
      let suf_len = m_start + m_len - suf_start in
      let pre =
        if pre_len = 0 then 0
        else
          Checksum.finish
            (Checksum.add_bytes Checksum.zero p.buf m_start pre_len)
      in
      let suf =
        if suf_len = 0 then 0
        else begin
          let s =
            Checksum.finish
              (Checksum.add_bytes Checksum.zero p.buf suf_start suf_len)
          in
          (* a range starting at odd stream parity contributes its
             even-parity sum byte-swapped (RFC 1071 byte-order rule) *)
          if (suf_start - m_start) land 1 = 1 then
            (s lsr 8 lor (s lsl 8)) land 0xFFFF
          else s
        end
      in
      Checksum.fold16 (m_sum + (lnot pre land 0xFFFF) + (lnot suf land 0xFFFF))
    end
  | _ -> -1

let check p i n =
  if i < 0 || i + n > p.len then
    invalid_arg
      (Printf.sprintf "Packet: access at %d width %d beyond length %d" i n p.len)

(* Mutations under the window invalidate a recorded RX sum.  A TX defer is
   deliberately kept: headers are written in front of the deferred coverage
   after the transport encodes, never inside it. *)
let invalidate_rx p =
  match p.csum with Rx_sum _ -> p.csum <- No_csum | _ -> ()

let get_u8 p i =
  check p i 1;
  Wire.get_u8 p.buf (p.off + i)

let set_u8 p i v =
  check p i 1;
  invalidate_rx p;
  Wire.set_u8 p.buf (p.off + i) v

let get_u16 p i =
  check p i 2;
  Wire.get_u16 p.buf (p.off + i)

let set_u16 p i v =
  check p i 2;
  invalidate_rx p;
  Wire.set_u16 p.buf (p.off + i) v

let get_u32 p i =
  check p i 4;
  Wire.get_u32 p.buf (p.off + i)

let set_u32 p i v =
  check p i 4;
  invalidate_rx p;
  Wire.set_u32 p.buf (p.off + i) v

let blit_from_string s soff p poff len =
  check p poff len;
  invalidate_rx p;
  Bytes.blit_string s soff p.buf (p.off + poff) len;
  bytes_copied := !bytes_copied + len

let blit_from_bytes b soff p poff len =
  check p poff len;
  invalidate_rx p;
  Bytes.blit b soff p.buf (p.off + poff) len;
  bytes_copied := !bytes_copied + len

let blit p poff dst doff len =
  check p poff len;
  Bytes.blit p.buf (p.off + poff) dst doff len;
  bytes_copied := !bytes_copied + len

let to_string p = Bytes.sub_string p.buf p.off p.len

type saved = { s_buf : Bytes.t; s_off : int; s_len : int }

let save p = { s_buf = p.buf; s_off = p.off; s_len = p.len }

let restore p { s_buf; s_off; s_len } =
  p.buf <- s_buf;
  p.off <- s_off;
  p.len <- s_len;
  (* offload state describes the window that was just abandoned *)
  p.csum <- No_csum

let buffer p = p.buf

let offset p = p.off

let fill p v =
  invalidate_rx p;
  Bytes.fill p.buf p.off p.len (Char.chr (v land 0xff))

