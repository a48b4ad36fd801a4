(** TCP segment header encoding and decoding (RFC 793 §3.1).

    The only option generated is Maximum Segment Size (on SYN segments);
    well-formed unknown options are skipped on decode, as RFC 1122
    requires, but a malformed option list — truncated length byte, a
    length under 2 (an infinite loop on a naive scanner), or a length
    running past the header — is rejected as [Bad_options].  The
    checksum covers the pseudo-header, header and text and is computed by
    {!Fox_basis.Checksum} with the optimised Figure 10 algorithm, for
    every engine: the layered one, the monolithic oracle and the
    SYN-flood generator all checksum with the same code. *)

val min_length : int
(** 20 bytes, an option-less header. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : Seq.t;
  ack : Seq.t;  (** meaningful only when [ack_flag] *)
  urg : bool;
  ack_flag : bool;
  psh : bool;
  rst : bool;
  syn : bool;
  fin : bool;
  window : int;
  urgent : int;
  mss : int option;  (** the MSS option, if present *)
}

(** [basic ~src_port ~dst_port] is a header template with all flags clear
    and zero sequence numbers — convenient for building segments field by
    field. *)
val basic : src_port:int -> dst_port:int -> t

(** [header_length hdr] is the encoded size, options included. *)
val header_length : t -> int

(** [encode ~pseudo hdr p] pushes the header in front of [p]'s window.
    When [pseudo] is an accumulator (pre-loaded with the pseudo-header for
    [header_length hdr + old length of p] bytes), the checksum field is
    computed over pseudo-header + header + text; when it is
    {!Fox_basis.Checksum.none}, the field is left zero.  With
    [~defer:true] (and a pseudo), the field is left zero and
    a deferred-checksum request is recorded on the packet
    ({!Fox_basis.Packet.request_tx_csum}) for the link-layer fused copy
    to settle — software TX checksum offload. *)
val encode :
  ?defer:bool ->
  pseudo:Fox_basis.Checksum.acc ->
  t ->
  Fox_basis.Packet.t ->
  unit

type error = Too_short | Bad_offset | Bad_checksum | Bad_options

(** [decode ~pseudo p] reads, verifies and strips a header, leaving the
    segment text in [p]'s window.  The checksum is not verified when
    [pseudo] is {!Fox_basis.Checksum.none}.  When the packet carries an RX
    sum memo from a fused link copy
    ({!Fox_basis.Packet.cached_window_sum}), the checksum is verified from
    the memo without re-reading the payload. *)
val decode :
  pseudo:Fox_basis.Checksum.acc ->
  Fox_basis.Packet.t ->
  (t, error) result
