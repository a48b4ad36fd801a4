(** UDP header encoding and decoding (RFC 768). *)

val length : int
(** 8 bytes. *)

type t = {
  src_port : int;
  dst_port : int;
  checksum : int;  (** 0 when the sender did not compute one *)
}

(** [encode ~pseudo hdr p] pushes the 8-byte header in front of [p]'s
    window.  When [pseudo] is given, the checksum is computed over the
    pseudo-header, header and payload (with the all-zeros value mapped to
    0xFFFF as the RFC requires); otherwise the field is 0. *)
val encode :
  pseudo:Fox_basis.Checksum.acc option -> t -> Fox_basis.Packet.t -> unit

type error = Too_short | Bad_length | Bad_checksum

(** [decode ~pseudo p] reads and strips the header, verifying length and —
    when [pseudo] is given and the sender computed one — the checksum. *)
val decode :
  pseudo:Fox_basis.Checksum.acc option ->
  Fox_basis.Packet.t ->
  (t, error) result
