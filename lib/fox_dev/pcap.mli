(** Packet capture in pcap format.

    Attach a capture to a {!Device} with its [tap] hook and every frame
    the interface sends or receives is appended to a classic
    microsecond-resolution pcap file (LINKTYPE_ETHERNET) that tcpdump and
    Wireshark read directly — virtual-time runs included, which makes
    protocol debugging of simulations feel exactly like debugging a real
    network:

    {[
      let cap = Pcap.create "handshake.pcap" in
      let dev = Device.create ~tap:(Pcap.tap cap) port in
      ... run ...
      Pcap.close cap
    ]} *)

type t

(** [create path] opens [path] and writes the pcap global header. *)
val create : string -> t

(** [tap t frame] is a {!Fox_dev.Device} tap callback: it appends
    [frame] stamped with the scheduler's current (virtual or real)
    time. *)
val tap : t -> Fox_basis.Packet.t -> unit

val close : t -> unit

(** [read_back path] parses a µs-resolution pcap file into
    [(time_us, frame-bytes)] pairs — used by the tests and handy for
    programmatic inspection. *)
val read_back : string -> (int * string) list
