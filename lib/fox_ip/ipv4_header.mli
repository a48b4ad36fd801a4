(** IPv4 header encoding and decoding (RFC 791).

    Options are tolerated on decode (skipped via the IHL field) but never
    generated, matching the paper's implementation scope. *)

val min_length : int
(** 20 bytes: the length of an option-less header. *)

(** IP protocol numbers used in this stack. *)

val proto_icmp : int

type t = {
  tos : int;
  total_length : int;  (** header + payload, bytes *)
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;  (** in bytes (converted from 8-byte units) *)
  ttl : int;
  proto : int;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
}

(** [encode ~checksum hdr p] pushes a 20-byte header in front of [p]'s
    window, computing the header checksum when [checksum] is true (zero
    otherwise, which receivers configured without checksums accept). *)
val encode : checksum:bool -> t -> Fox_basis.Packet.t -> unit

type error =
  | Too_short
  | Bad_version of int
  | Bad_checksum
  | Bad_length

(** [decode ~checksum p] reads a header, verifies it, and strips it (and
    any link-layer padding beyond [total_length]) from [p]'s window. *)
val decode : checksum:bool -> Fox_basis.Packet.t -> (t, error) result

(** The receive path's decoder, in pieces, so that it builds no header
    record and no [result]: [verify ~checksum p] is [None] when [p]'s
    window starts with a header [decode] would accept; then the field
    readers below read it in place, and [strip p] removes it as [decode]
    does. *)
val verify : checksum:bool -> Fox_basis.Packet.t -> error option

val id : Fox_basis.Packet.t -> int
val more_fragments : Fox_basis.Packet.t -> bool
val fragment_offset : Fox_basis.Packet.t -> int
val proto : Fox_basis.Packet.t -> int
val src : Fox_basis.Packet.t -> Ipv4_addr.t
val dst : Fox_basis.Packet.t -> Ipv4_addr.t
val strip : Fox_basis.Packet.t -> unit
