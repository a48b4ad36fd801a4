(** Ethernet II frame encoding and decoding.

    Layout: destination (6) · source (6) · ethertype (2) · payload, with an
    optional trailing 4-byte FCS (CRC-32) when software CRC is in use.  The
    well-known ethertypes used in this stack are exported as constants. *)

val header_length : int

(** Ethertypes. *)

val ethertype_ipv4 : int
val ethertype_arp : int

(** Ethertype used by the paper's non-standard "TCP directly over
    Ethernet" stack (an unassigned, locally administered value). *)
val ethertype_tcp_direct : int

type header = { dst : Mac.t; src : Mac.t; ethertype : int }

(** [encode hdr p] pushes a 14-byte header in front of [p]'s window. *)
val encode : header -> Fox_basis.Packet.t -> unit

(** [decode p] reads the header and strips it from [p]'s window.
    Returns [None] if the frame is shorter than a header. *)
val decode : Fox_basis.Packet.t -> header option

(** [dst p], [src p] and [ethertype p] read one field of the header at
    the front of [p]'s window, which must hold at least [header_length]
    bytes, and strip nothing: the receive path reads what it needs and
    pulls the header itself, with no header record or option built. *)
val dst : Fox_basis.Packet.t -> Mac.t

val src : Fox_basis.Packet.t -> Mac.t

val ethertype : Fox_basis.Packet.t -> int

(** [append_fcs p] computes the CRC-32 of the current window and appends it
    as a 4-byte trailer. *)
val append_fcs : Fox_basis.Packet.t -> unit

(** [check_and_strip_fcs p] verifies the trailing CRC-32; on success strips
    it and returns [true], otherwise leaves the packet alone and returns
    [false]. *)
val check_and_strip_fcs : Fox_basis.Packet.t -> bool
