(** Blind in-window attackers — RFC 5961's threat model, made concrete.

    The adversary knows the connection's four-tuple (source spoofing makes
    the addresses free, and ephemeral ports are guessable) but {e not} its
    sequence numbers, so every probe carries fresh 32-bit random SEQ and
    ACK values: a brute-force sweep of the sequence space at a configured
    rate.  Three probe kinds cover the three classic blind attacks:

    - {!Blind_rst} — forged RSTs.  Under RFC 793's "in the window" rule a
      single lucky probe tears the connection down; under RFC 5961 §3
      only an exact [rcv_nxt] match does, and near-misses earn nothing
      but a rate-limited challenge ACK.
    - {!Blind_syn} — forged SYNs on the established connection.  Legacy
      rule: any in-window SYN resets; §4: challenge ACK, connection
      intact.
    - {!Blind_data} — forged data segments (a marker payload) with random
      SEQ/ACK.  §5's acceptability window keeps the bytes out of the
      stream; the harness asserts zero marker bytes ever reach the
      application.

    Like {!Synflood}, the attacker is a host with an IP stack but no TCP,
    built over any lower layer.  Spoofing is configured at the host, by
    giving the attacker's IP instance the victim's {e peer} address as its
    local address: the IP layer then stamps and checksums every probe as
    if the legitimate peer had sent it, and the victim's replies (the
    challenge ACKs) travel to the real peer — exactly the asymmetry a
    blind attacker lives with.  Replies that do reach the attacker are
    released unread.

    Everything derives from the seed: probe values come from one {!Rng}
    and pacing from the virtual clock, so a run replays byte-for-byte. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Tcp_header = Fox_tcp.Tcp_header
module Seq = Fox_tcp.Seq

type kind = Blind_rst | Blind_syn | Blind_data

let kind_name = function
  | Blind_rst -> "blind-rst"
  | Blind_syn -> "blind-syn"
  | Blind_data -> "blind-data"

(** How the attacker picks the SEQ of each probe.  [Random] is the pure
    blind model.  [Sweep] walks a band in [stride] steps (wrapping at
    [span]) — the classic ISN-prediction attack: the victim stack derives
    its ISNs RFC 793-style from a clock, so an attacker that has modeled
    the generator can concentrate its probes on a narrow band and land
    in-window within a few thousand probes instead of a few billion.
    Against RFC 793's "in the window" rules one landing kills; against
    RFC 5961 the same sweep earns only challenge ACKs, because teardown
    demands an {e exact} [rcv_nxt] match. *)
type seq_model =
  | Random
  | Sweep of { base : int; stride : int; span : int }

(* The marker byte the data-injection probes carry: the oracle counts how
   many of these ever show up in delivered streams (the answer must be
   zero, and a corrupted legitimate byte counts as injected too). *)
let marker = '\xDB'

let data_len = 512

module Make
    (Lower : Fox_proto.Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Aux : Fox_proto.Protocol.IP_AUX
             with type lower_address = Lower.address
              and type lower_pattern = Lower.address_pattern
              and type lower_connection = Lower.connection) =
struct
  (* the raw-segment station the SYN flood uses *)
  module Station = Synflood.Make (Lower) (Aux)

  type t = { station : Station.t; rng : Rng.t; model : seq_model }

  (** [create lower ~target ~seed] opens the attacker's lower-layer
      session toward [target].  [lower] should be an IP instance whose
      local address is the connection's legitimate peer — that is the
      spoof. *)
  let create ?(model = Random) lower ~target ~seed =
    let station = Station.create lower ~target in
    { station; rng = Rng.create (seed lxor 0xb11d); model }

  (** probes actually put on the wire *)
  let sent t = Station.sent t.station

  let transmit t ?data hdr = Station.transmit t.station ?data hdr

  let rand_seq t = Seq.of_int (Rng.bits64 t.rng land 0xFFFFFFFF)

  let probe_seq t ~i =
    match t.model with
    | Random -> rand_seq t
    | Sweep { base; stride; span } ->
      Seq.of_int ((base + (i * stride mod span)) land 0xFFFFFFFF)

  (** [probe t ~i ~kind ~src_port ~dst_port] fires blind probe number [i]
      at the four-tuple: SEQ from the attacker's sequence model, ACK (when
      carried) always random — the send sequence space stays dark even to
      an ISN-predicting attacker. *)
  let probe t ~i ~kind ~src_port ~dst_port =
    let base = Tcp_header.basic ~src_port ~dst_port in
    match kind with
    | Blind_rst ->
      transmit t { base with Tcp_header.seq = probe_seq t ~i; rst = true }
    | Blind_syn ->
      transmit t
        { base with
          Tcp_header.seq = probe_seq t ~i;
          syn = true;
          window = 4096;
          mss = Some 1460;
        }
    | Blind_data ->
      let lconn = t.station.Station.lconn in
      let p =
        Packet.create
          ~headroom:(44 + Lower.headroom lconn)
          ~tailroom:(Lower.tailroom lconn)
          data_len
      in
      Packet.blit_from_string (String.make data_len marker) 0 p 0 data_len;
      transmit t ~data:(Some p)
        { base with
          Tcp_header.seq = probe_seq t ~i;
          ack_flag = true;
          ack = rand_seq t;
          psh = true;
          window = 4096;
        }

  (** [launch t ~kind ~src_port ~dst_port ~pps ~probes] forks a paced
      probe loop: [probes] probes at [pps] per virtual second. *)
  let launch t ~kind ~src_port ~dst_port ~pps ~probes =
    let interval = max 1 (1_000_000 / pps) in
    Scheduler.fork (fun () ->
        for i = 0 to probes - 1 do
          probe t ~i ~kind ~src_port ~dst_port;
          Scheduler.sleep interval
        done)
end
