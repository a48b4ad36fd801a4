(** The TCP protocol: the functor of Figure 4.

    [Make (Lower) (Aux) (Cc) (Params)] assembles the pure state-machine
    modules ({!Tcb}, {!State}, {!Receive}, {!Send}, {!Resend}, {!Action},
    and {!Listen} and {!Tomb} for passive opens and TIME-WAIT) and the
    paper's [Main], {!Engine}, into a protocol satisfying the generic
    signature:

    {[
      module Standard_tcp =
        Tcp.Make (Ip) (Ip_aux) (Congestion.Reno) (Tcp.Default_params)
      module Special_tcp =                     (* Figure 3's second stack *)
        Tcp.Make (Eth) (Eth_aux) (Congestion.Reno)
          (struct
            let params = { Tcb.default_params with compute_checksums = false }
          end)
    ]}

    This module demultiplexes segments to connections, tombstones and
    listeners, picks initial sequence numbers and implements the user
    calls; each of them queues work on a connection and leaves it to
    {!Engine.drain}, the quasi-synchronous executor (Figure 7). *)

open Fox_basis
module Protocol = Fox_proto.Protocol
module Status = Fox_proto.Status
module Bus = Fox_obs.Bus

(** Static configuration — the functor parameters of Figure 4, as one
    {!Tcb.params} record: every setting is declared and defaulted there,
    once.  Each configuration is its own functor application.  {!Make}'s
    [Cc] argument chooses the congestion-control algorithm: it overrides
    the record's [cc] field. *)
module type PARAMS = sig
  val params : Tcb.params
end

module Default_params : PARAMS = struct
  let params = Tcb.default_params
end

(** Instance-wide statistics. *)
type stats = {
  segs_in : int;
  segs_out : int;
  bad_segments : int;  (** failed internalisation (checksum, framing) *)
  rsts_sent : int;
  unknown_dropped : int;  (** segments for no connection, not answered *)
  accepts : int;  (** passive opens completed into connections *)
  active_conns : int;
  wire_send_failures : int;
      (** sends refused by the lower layer ([Send_failed]); the segment is
          left to the retransmission machinery *)
  syn_dropped : int;  (** SYNs silently dropped by the overload policy *)
  backlog_refused : int;
      (** connection attempts refused because a backlog or TCB cap was
          full (whether answered with RST or dropped) *)
  time_wait_recycled : int;
      (** TIME-WAIT tombstones dropped early, oldest first, by the
          [max_time_wait] bound *)
  to_do_shed : int;
      (** segments shed at the [to_do] door by the [max_to_do] bound *)
  challenge_acks_sent : int;
      (** RFC 5961 challenge ACKs put on the wire (live + dead conns) *)
  challenge_acks_limited : int;
      (** challenges suppressed by the global per-second budget *)
  rst_challenges : int;  (** in-window (not exact) RSTs deflected *)
  syn_challenges : int;  (** in-window SYNs on synchronized conns deflected *)
  ack_challenges : int;  (** ACKs outside the 5961 acceptance window *)
  blackhole_shrinks : int;
      (** MSS halvings by blackhole detection (live + dead conns) *)
  persist_aborts : int;
      (** connections aborted by the bounded zero-window persist *)
  user_timeout_aborts : int;  (** connections aborted by the user timeout *)
  rtx_limit_aborts : int;
      (** connections aborted by the retransmission limit *)
  keepalive_aborts : int;
      (** connections aborted after unanswered keepalive probes *)
}

(** Per-connection statistics, mostly straight out of the TCB. *)
type conn_stats = {
  state : string;
  bytes_sent : int;
  bytes_received : int;
  segments_sent : int;
  segments_received : int;
  retransmissions : int;
  fast_path_hits : int;
  duplicate_segments : int;
  out_of_order_segments : int;
  srtt_us : int;
  rto_us : int;
  snd_wnd : int;
  cwnd : int;
  ssthresh : int;
  cc_name : string;  (** active congestion-control algorithm *)
}

module Make
    (Lower : Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Aux : Protocol.IP_AUX
             with type lower_address = Lower.address
              and type lower_pattern = Lower.address_pattern
              and type lower_connection = Lower.connection)
    (Cc : Congestion.S)
    (Params : PARAMS) : sig
  (** [local_port = None] asks for an ephemeral port. *)
  type address = { peer : Aux.host; port : int; local_port : int option }

  type pattern = { local_port : int }

  include
    Protocol.PROTOCOL
      with type address := address
       and type address_pattern := pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  val create : Lower.t -> t

  (** [close_sync conn] closes and blocks until the connection is fully
      down (through TIME-WAIT if we close first). *)
  val close_sync : connection -> unit

  (** [state_of conn] is the RFC 793 state name, for tests and traces. *)
  val state_of : connection -> string

  val conn_stats : connection -> conn_stats

  (** [snapshot conn] photographs the connection's TCB between two
      executor actions (see {!Stats}). *)
  val snapshot : connection -> Stats.t

  (** [snapshots t] photographs every live connection, sorted by id. *)
  val snapshots : t -> Stats.t list

  val stats : t -> stats

  (** Connection identity, for logging. *)
  val endpoints : connection -> Aux.host * int * int
      (** peer, local port, remote port *)
end = struct
  include Fox_proto.Common

  let proto_number = 6

  let runtime_params = { Params.params with cc = (module Cc : Congestion.S) }

  let cc_name = Cc.name

  type address = { peer : Aux.host; port : int; local_port : int option }

  type pattern = { local_port : int }

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  (* TCP header (up to 24 bytes with the MSS option) plus slack so user
     buffers never reallocate on the fast path. *)
  let tcp_headroom = 24

  (* The fixed TCP header on every data segment.  The MSS we advertise is
     [mtu - tcp_fixed_header], NOT [mtu - tcp_headroom]: the 4 bytes of
     option slack in [tcp_headroom] exist only on SYNs, and subtracting
     them from the MSS made every full-sized data segment under-fill the
     MTU by 4 bytes. *)
  let tcp_fixed_header = Tcp_header.min_length

  (* Demultiplexing keys on Figure 5's host identity, [Aux.hash] and
     [Aux.equal], so TCP never formats an address to find a connection.
     [Conns] is keyed on (host, local port, remote port), and so are the
     tombstone table and each listener's SYN cache.  A segment is looked
     up through the engine's own [probe] key, refilled per segment, so
     the lookup allocates nothing. *)
  module Hosts = Hashtbl.Make (struct include Aux type t = host end)

  module Key = struct
    type t = {
      mutable host : Aux.host;
      mutable local_port : int;
      mutable remote_port : int;
    }

    let equal a b =
      a.local_port = b.local_port
      && a.remote_port = b.remote_port
      && Aux.equal a.host b.host

    let hash k = (((Aux.hash k.host * 31) + k.local_port) * 31) + k.remote_port
  end

  module Conns = Hashtbl.Make (Key)

  type connection = (Aux.host, Lower.connection) Engine.conn

  type listener = {
    l_tcp : t;
    l_port : int;
    l_handler : handler;
    mutable l_active : bool;
    l_passive : Aux.host Listen.t;  (** its half-open handshakes *)
  }

  and handler = connection -> data_handler * status_handler

  and t = {
    engine : (Aux.host, Lower.connection) Engine.t;
    lower_instance : Lower.t;
    conns : connection Conns.t;
    mutable probe : Key.t option;
        (** the lookup key, made from the first connection's *)
    listeners : listener Hash.Ints.t;
    lower_conns : Lower.connection Hosts.t;
    mutable iss_salt : int;
    isn_k0 : int;  (** RFC 6528 boot secret (per engine) *)
    isn_k1 : int;
    mutable next_ephemeral : int;
    mutable init_count : int;
  }

  let endpoints (conn : connection) =
    (conn.host, conn.local_port, conn.remote_port)

  let key_of (conn : connection) =
    { Key.host = conn.host; local_port = conn.local_port;
      remote_port = conn.remote_port }

  (* The connection of a 4-tuple; raises [Not_found]. *)
  let find t host local_port remote_port =
    match t.probe with
    | None -> raise_notrace Not_found
    | Some probe ->
      probe.host <- host;
      probe.local_port <- local_port;
      probe.remote_port <- remote_port;
      Conns.find t.conns probe

  (* Whether a 4-tuple is taken, by a connection or a tombstone. *)
  let taken t host local_port remote_port =
    (match find t host local_port remote_port with
    | _ -> true
    | exception Not_found -> false)
    || Option.is_some (Tomb.find t.engine.tombs host local_port remote_port)

  (* ---------------- connection and engine state ---------------- *)

  (* A handle the application kept reads TIME-WAIT while its tombstone is
     parked, and CLOSED once it is gone. *)
  let state_of (conn : connection) =
    match conn.tomb with
    | Some tw when not (Tomb.parked conn.engine.tombs tw) -> "CLOSED"
    | _ -> Tcb.state_name conn.state

  let snapshot (conn : connection) =
    Stats.of_tcb ~conn_id:conn.tcb.Tcb.obs_id ~state:(state_of conn)
      ~now:(Bus.now ()) conn.tcb

  let snapshots t =
    let now = Bus.now () in
    let tomb_rows =
      List.map
        (fun (tw : _ Tomb.tomb) ->
          Stats.of_time_wait
            ~conn_id:
              (Engine.conn_id t.engine tw.host tw.local_port tw.remote_port)
            ~now ~rcv_wnd:runtime_params.initial_window
            ~cc_name tw)
        (Tomb.to_list t.engine.tombs)
    in
    Conns.fold (fun _ c acc -> snapshot c :: acc) t.conns tomb_rows
    |> List.sort (fun a b -> String.compare a.Stats.conn_id b.Stats.conn_id)

  (* Initial sequence number selection.  With [secure_isn] (the default)
     this is RFC 6528: ISN = M + F(localhost, localport, remotehost,
     remoteport, secret) with M the RFC 793 4 µs clock and F a keyed PRF
     (SipHash) under a per-engine boot secret — an attacker observing the
     ISNs of its own connections learns nothing about the ISN any other
     4-tuple will get, which is what defeats the blind-injection Sweep of
     the attack harness.  A reused 4-tuple still gets monotonically
     advancing ISNs (F is fixed for it, M ticks), the RFC's guard against
     a new incarnation overlapping stale duplicates.

     The legacy scheme — clock plus a linear salt, every term recoverable
     from one observed ISN — is kept behind the switch for harnesses
     whose pinned digests predate the fix. *)
  let fresh_iss t ~host ~local_port ~remote_port =
    t.iss_salt <- t.iss_salt + 1;
    let m = Fox_sched.Scheduler.now () / 4 in
    if runtime_params.secure_isn then
      let f =
        Siphash.hash ~k0:t.isn_k0 ~k1:t.isn_k1
          (Printf.sprintf "%s|%d|%d" (Aux.to_string host) local_port
             remote_port)
      in
      Seq.of_int ((m + f) land 0xFFFFFFFF)
    else Seq.of_int (m + (t.iss_salt * 64021))

  (* ---------------- the lower layer ---------------- *)

  (* The pseudo-header of a [len]-byte segment on [lconn], when checksums
     are on; [Checksum.none] when they are off. *)
  let pseudo lconn len =
    if runtime_params.compute_checksums then
      Aux.pseudo lconn ~proto:proto_number ~len
    else Checksum.none

  (* A [len]-byte packet with room for every header from TCP's down. *)
  let allocate lconn len =
    Packet.create
      ~headroom:(tcp_headroom + Lower.headroom lconn)
      ~tailroom:(Lower.tailroom lconn)
      len

  let lower_ops =
    { Engine.prepare = Lower.prepare_send; send = Lower.send; pseudo; allocate }

  (* The MSS we offer on [lconn]'s path. *)
  let path_mss lconn = Int.max 64 (Aux.mtu lconn - tcp_fixed_header)

  (* An RST answering [hdr], which came from no connection. *)
  let reset_for t lconn (hdr : Tcp_header.t) ~seq ~ack =
    Engine.send_bare t.engine lconn ~send:(Lower.send lconn)
      ~src_port:hdr.dst_port ~dst_port:hdr.src_port ~seq ~ack ~rst:true 0

  (* ---------------- connection creation ---------------- *)

  let install_connection t ~host ~local_port ~remote_port ~lower ~state
      (handler : handler) =
    let conn =
      Engine.connection t.engine ~host ~local_port ~remote_port lower state
    in
    if Option.is_none t.probe then t.probe <- Some (key_of conn);
    Conns.replace t.conns (key_of conn) conn;
    if !Bus.live then
      Engine.note conn.tcb.Tcb.obs_id
        (Bus.State { from_ = "CLOSED"; to_ = Tcb.state_name state });
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    conn

  (* ---------------- demultiplexing ---------------- *)

  (* A segment for no connection: answered with an RST per
     [abort_unknown_connections] (RFC 793 p. 36), else counted; its buffer
     is released either way. *)
  let unknown t lconn (seg : Tcb.segment) =
    let hdr = seg.Tcb.hdr in
    (if runtime_params.abort_unknown_connections && not hdr.Tcp_header.rst
     then begin
       if hdr.Tcp_header.ack_flag then
         reset_for t lconn hdr ~seq:hdr.Tcp_header.ack ~ack:None
       else
         reset_for t lconn hdr ~seq:Seq.zero
           ~ack:
             (Some
                (Seq.add hdr.Tcp_header.seq
                   (Packet.length seg.Tcb.data
                   + (if hdr.Tcp_header.syn then 1 else 0)
                   + if hdr.Tcp_header.fin then 1 else 0)))
     end
     else
       let c = t.engine.counters in
       c.unknown_dropped <- c.unknown_dropped + 1);
    Packet.release seg.Tcb.data

  (* Global admission check: the engine refuses new connections (not new
     segments) once [max_connections] TCBs are live. *)
  let under_conn_cap t =
    runtime_params.max_connections = 0
    || Conns.length t.conns + Tomb.count t.engine.tombs
       < runtime_params.max_connections

  (* A passive open becomes a connection with the listener's handler. *)
  let accept t lconn ~host (hdr : Tcp_header.t) listener state =
    let c = t.engine.counters in
    c.accepts <- c.accepts + 1;
    install_connection t ~host
      ~local_port:hdr.Tcp_header.dst_port ~remote_port:hdr.Tcp_header.src_port
      ~lower:lconn ~state listener.l_handler

  (* A segment for a port we listen on and no connection we know: the
     decision {!Listen} takes, carried out.  Its buffer is released unless
     it goes on to a new TCB. *)
  let passive t lconn ~host (seg : Tcb.segment) listener ~now =
    let hdr = seg.Tcb.hdr and e = t.engine in
    let c = e.counters in
    match
      Listen.segment listener.l_passive host hdr ~now
        ~room:(under_conn_cap t) ~mss:path_mss lconn
    with
    | Listen.Syn_ack { iss; irs } ->
      (* no TCB behind it, so no retransmission either: the client's SYN
         retransmit re-elicits it *)
      Engine.send_bare e lconn ~send:(Lower.send lconn) ~syn:true
        ~mss:(path_mss lconn) ~src_port:hdr.dst_port ~dst_port:hdr.src_port
        ~seq:iss ~ack:(Some (Seq.add irs 1)) ~rst:false
        runtime_params.initial_window;
      Packet.release seg.Tcb.data
    | Listen.Open ->
      let state =
        State.passive_open runtime_params
          ~iss:
            (fresh_iss t ~host
               ~local_port:hdr.Tcp_header.dst_port
               ~remote_port:hdr.Tcp_header.src_port)
          ~mss:(path_mss lconn) ~syn:seg ~now
      in
      let conn = accept t lconn ~host hdr listener state in
      conn.half_open_of <- Some listener.l_passive;
      (* the SYN's buffer is not kept (any text on a SYN is ignored) *)
      Packet.release seg.Tcb.data;
      Engine.drain conn
    | Listen.Promote { iss; irs; peer_mss } ->
      (* the TCB starts in ESTABLISHED, and the promoting ACK goes through
         the receive DAG, so any text or FIN riding on it is processed
         (and its buffer's ownership follows the usual path) *)
      let state =
        State.promote_passive runtime_params ~iss ~irs ~mss:(path_mss lconn)
          ~peer_mss ~wnd:hdr.Tcp_header.window
      in
      let conn = accept t lconn ~host hdr listener state in
      conn.tcb.Tcb.segs_in <- conn.tcb.Tcb.segs_in + 1;
      Tcb.add_to_do conn.tcb (Tcb.Process_data seg);
      Engine.drain conn
    | Listen.Refuse reason ->
      (* an RST gives the client a fast failure; a silent drop makes its
         SYN retransmission the retry that may find room once the flood
         clears *)
      c.backlog_refused <- c.backlog_refused + 1;
      if !Bus.live then Engine.note "-" (Bus.Note ("syn refused: " ^ reason));
      if runtime_params.refuse_with_rst then
        reset_for t lconn hdr ~seq:Seq.zero
          ~ack:(Some (Seq.add hdr.Tcp_header.seq 1))
      else c.syn_dropped <- c.syn_dropped + 1;
      Packet.release seg.Tcb.data
    | Listen.Unknown -> unknown t lconn seg
    | Listen.Drop ->
      c.unknown_dropped <- c.unknown_dropped + 1;
      Packet.release seg.Tcb.data

  let receive t lconn packet =
    let now = Fox_sched.Scheduler.now () and e = t.engine in
    let c = e.counters in
    let pseudo = pseudo lconn (Packet.length packet) in
    match Action.internalize ~pseudo packet ~now with
    | Error _ ->
      c.bad_segments <- c.bad_segments + 1;
      Packet.release packet
    | Ok seg -> (
      c.segs_in <- c.segs_in + 1;
      let hdr = seg.Tcb.hdr in
      let host = Aux.source lconn in
      match find t host hdr.Tcp_header.dst_port hdr.Tcp_header.src_port with
      | conn when not conn.dead ->
        let tcb = conn.tcb in
        if
          runtime_params.max_to_do > 0
          && tcb.Tcb.to_do_len >= runtime_params.max_to_do
        then begin
          (* load shedding: the connection's work queue is saturated, so
             this segment is treated as lost on the wire — the peer's
             retransmission is the retry *)
          tcb.Tcb.to_do_shed <- tcb.Tcb.to_do_shed + 1;
          c.to_do_shed <- c.to_do_shed + 1;
          if !Bus.live then
            Engine.note tcb.Tcb.obs_id (Bus.Note "segment shed: to_do full");
          Packet.release seg.Tcb.data
        end
        else begin
          tcb.Tcb.segs_in <- tcb.Tcb.segs_in + 1;
          Tcb.add_to_do tcb (Tcb.Process_data seg);
          Engine.drain conn
        end
      | _ | (exception Not_found) -> (
        let local_port = hdr.Tcp_header.dst_port in
        match Tomb.find e.tombs host local_port hdr.Tcp_header.src_port with
        | Some tw -> Engine.tomb_receive e tw lconn seg
        | None -> (
          match Hash.Ints.find_opt t.listeners local_port with
          | Some l when l.l_active -> passive t lconn ~host seg l ~now
          | _ -> unknown t lconn seg)))

  (* ---------------- lower-layer sessions ---------------- *)

  let lower_conn_for t host =
    match Hosts.find_opt t.lower_conns host with
    | Some lconn -> lconn
    | None ->
      let lconn =
        Lower.connect t.lower_instance
          (Aux.lower_address ~proto:proto_number host)
          (fun lconn -> ((fun packet -> receive t lconn packet), ignore))
      in
      Hosts.replace t.lower_conns host lconn;
      lconn

  (* ---------------- PROTOCOL operations ---------------- *)

  let ephemeral t ~host ~remote_port =
    let rec pick attempts =
      if attempts > 16384 then raise (Connection_failed "tcp: no free port");
      let port = 49152 + (t.next_ephemeral land 0x3FFF) in
      t.next_ephemeral <- t.next_ephemeral + 1;
      if taken t host port remote_port || Hash.Ints.mem t.listeners port
      then pick (attempts + 1)
      else port
    in
    pick 0

  let connect t { peer; port = remote_port; local_port } handler =
    let local_port =
      match local_port with
      | Some p -> p
      | None -> ephemeral t ~host:peer ~remote_port
    in
    if taken t peer local_port remote_port then
      raise
        (Connection_failed
           (Printf.sprintf "tcp: %s:%d from port %d already open"
              (Aux.to_string peer) remote_port local_port));
    let lconn = lower_conn_for t peer in
    let mss = path_mss lconn in
    let now = Fox_sched.Scheduler.now () in
    let state =
      State.active_open runtime_params
        ~iss:(fresh_iss t ~host:peer ~local_port ~remote_port)
        ~mss ~now
    in
    let conn =
      install_connection t ~host:peer ~local_port ~remote_port ~lower:lconn
        ~state handler
    in
    Engine.drain conn;
    while not (conn.open_done || conn.dead) do
      Fox_sched.Cond.wait conn.wake
    done;
    if not conn.open_done then
      raise
        (Connection_failed
           ("tcp open failed: "
           ^ Status.to_string
               (Option.value conn.close_reason ~default:Status.Closed)));
    conn

  let start_passive t ({ local_port } : pattern) handler =
    if Hash.Ints.mem t.listeners local_port then
      raise
        (Connection_failed
           (Printf.sprintf "tcp port %d already has a listener" local_port));
    let l =
      {
        l_tcp = t;
        l_port = local_port;
        l_handler = handler;
        l_active = true;
        l_passive =
          Listen.create runtime_params ~equal:Aux.equal
            ~to_string:Aux.to_string ~secret:(t.isn_k0, t.isn_k1)
            ~iss:(fresh_iss t);
      }
    in
    Hash.Ints.replace t.listeners local_port l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hash.Ints.remove l.l_tcp.listeners l.l_port

  let send (conn : connection) packet =
    if conn.dead then raise (Send_failed "tcp connection closed");
    (* flow-control the caller against the send buffer bound *)
    while
      (not conn.dead)
      && conn.tcb.Tcb.queued_bytes >= Engine.send_buffer_bytes
    do
      Fox_sched.Cond.wait conn.wake
    done;
    if conn.dead then raise (Send_failed "tcp connection closed");
    Send.enqueue runtime_params conn.tcb packet
      ~now:(Fox_sched.Scheduler.now ());
    Engine.drain conn

  let prepare_send conn = send conn

  let close (conn : connection) =
    if not conn.dead then begin
      conn.state <-
        State.close runtime_params conn.state ~now:(Fox_sched.Scheduler.now ());
      Engine.drain conn
    end

  (* Returns once the connection is deleted, or once its tombstone is no
     longer parked: a connection that enters TIME-WAIT while we wait is
     dead but not yet closed. *)
  let close_sync (conn : connection) =
    close conn;
    let rec await () =
      match conn.tomb with
      | Some tw when Tomb.parked conn.engine.tombs tw ->
        (* the tombstone's upcall must wake us at 2·MSL *)
        tw.upcall <- Engine.finish conn;
        Fox_sched.Cond.wait conn.wake;
        await ()
      | _ ->
        if not conn.dead then begin
          Fox_sched.Cond.wait conn.wake;
          await ()
        end
    in
    await ()

  let abort (conn : connection) =
    match conn.tomb with
    | Some tw -> Engine.bury conn.engine tw Status.Aborted
    | None ->
      if not conn.dead then begin
        conn.close_reason <- Some Status.Aborted;
        conn.state <- State.abort runtime_params conn.state;
        Engine.drain conn
      end

  let initialize t =
    if t.init_count = 0 then ignore (Lower.initialize t.lower_instance);
    t.init_count <- t.init_count + 1;
    t.init_count

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      Hash.Ints.iter (fun _ l -> l.l_active <- false) t.listeners;
      Hash.Ints.reset t.listeners;
      let conns = Conns.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter abort conns;
      List.iter
        (fun tw -> Engine.bury t.engine tw Status.Aborted)
        (Tomb.to_list t.engine.tombs);
      ignore (Lower.finalize t.lower_instance)
    end;
    t.init_count

  let max_packet_size (conn : connection) = conn.tcb.Tcb.snd_mss

  let headroom (conn : connection) = tcp_headroom + Lower.headroom conn.lower

  let tailroom (conn : connection) = Lower.tailroom conn.lower

  let allocate_send (conn : connection) len = allocate conn.lower len

  let conn_stats (conn : connection) =
    let tcb = conn.tcb in
    {
      state = state_of conn;
      bytes_sent = tcb.Tcb.bytes_out;
      bytes_received = tcb.Tcb.bytes_in;
      segments_sent = tcb.Tcb.segs_out;
      segments_received = tcb.Tcb.segs_in;
      retransmissions = tcb.Tcb.retransmissions;
      fast_path_hits = tcb.Tcb.fast_path_hits;
      duplicate_segments = tcb.Tcb.dup_segments;
      out_of_order_segments = tcb.Tcb.ooo_segments;
      srtt_us = tcb.Tcb.srtt_us;
      rto_us = tcb.Tcb.rto_us;
      snd_wnd = tcb.Tcb.snd_wnd;
      cwnd = tcb.Tcb.cwnd;
      ssthresh = tcb.Tcb.ssthresh;
      cc_name = Congestion.name tcb.Tcb.cc;
    }

  let stats t : stats =
    let c = t.engine.counters in
    let live f = Conns.fold (fun _ (c : connection) a -> a + f c.tcb) t.conns 0
    in
    {
      segs_in = c.segs_in;
      segs_out = c.segs_out;
      bad_segments = c.bad_segments;
      rsts_sent = c.rsts_sent;
      unknown_dropped = c.unknown_dropped;
      accepts = c.accepts;
      active_conns = Conns.length t.conns + Tomb.count t.engine.tombs;
      wire_send_failures = c.wire_send_failures;
      syn_dropped = c.syn_dropped;
      backlog_refused = c.backlog_refused;
      time_wait_recycled = c.time_wait_recycled;
      to_do_shed = c.to_do_shed;
      challenge_acks_sent =
        c.tally_sent + live (fun tcb -> tcb.Tcb.challenge_acks_sent);
      challenge_acks_limited =
        c.tally_limited + live (fun tcb -> tcb.Tcb.challenge_acks_limited);
      rst_challenges = c.tally_rst + live (fun tcb -> tcb.Tcb.rst_challenges);
      syn_challenges = c.tally_syn + live (fun tcb -> tcb.Tcb.syn_challenges);
      ack_challenges = c.tally_ack + live (fun tcb -> tcb.Tcb.ack_challenges);
      blackhole_shrinks =
        c.blackhole_shrinks_dead + live (fun tcb -> tcb.Tcb.blackhole_shrinks);
      persist_aborts = c.persist_aborts;
      user_timeout_aborts = c.user_timeout_aborts;
      rtx_limit_aborts = c.rtx_limit_aborts;
      keepalive_aborts = c.keepalive_aborts;
    }

  let pp_address fmt { peer; port; local_port } =
    Format.fprintf fmt "%s:%d%s" (Aux.to_string peer) port
      (match local_port with
      | Some p -> Printf.sprintf " (from :%d)" p
      | None -> "")

  (* Engine instances within one functor application, for the bus id —
     atomic because sharded stacks create one engine per domain. *)
  let engine_seq = Atomic.make 0

  (* OS entropy for the default ISN boot secret; /dev/urandom with a
     time/pid fallback for platforms without it.  Read lazily so
     deterministic builds that pin [isn_secret] never touch the OS, and
     unbuffered: exactly the 16 bytes used are read (a buffered channel
     pulls a whole 64 KiB from the kernel per engine). *)
  let entropy_secret () =
    match
      let fd =
        Unix.openfile "/dev/urandom" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let bytes = Bytes.create 16 in
          let rec fill off =
            if off < 16 then
              match Unix.read fd bytes off (16 - off) with
              | 0 -> raise End_of_file
              | n -> fill (off + n)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
          in
          fill 0;
          bytes)
    with
    | bytes ->
      let word i =
        let w = ref 0 in
        for j = 7 downto 0 do
          w := (!w lsl 8) lor Char.code (Bytes.get bytes (i + j))
        done;
        !w land max_int
      in
      (word 0, word 8)
    | exception _ ->
      let t = int_of_float (Unix.gettimeofday () *. 1e6) in
      ( Siphash.hash_ints ~k0:t ~k1:(Unix.getpid ()) [ t; Unix.getpid () ],
        Siphash.hash_ints ~k0:(Unix.getpid ()) ~k1:t [ t lxor 0x5a5a ] )

  let create lower =
    let isn_k0, isn_k1 =
      match runtime_params.isn_secret with
      | Some (k0, k1) -> (k0, k1)
      | None -> entropy_secret ()
    in
    let conns = Conns.create 64 in
    let t =
      {
        engine =
          Engine.create runtime_params lower_ops ~name:Aux.to_string
            ~equal:Aux.equal ~hash:Aux.hash
            ~unlink:(fun conn -> Conns.remove conns (key_of conn));
        lower_instance = lower;
        conns;
        probe = None;
        listeners = Hash.Ints.create 8;
        lower_conns = Hosts.create 8;
        iss_salt = 0;
        isn_k0;
        isn_k1;
        next_ephemeral = 0;
        init_count = 0;
      }
    in
    ignore
      (Lower.start_passive lower
         (Aux.default_pattern ~proto:proto_number)
         (fun lconn -> ((fun packet -> receive t lconn packet), ignore)));
    (* engine-level counters on the bus (per-connection rows come from
       [snapshots]): this is where the overload policy's refusals show up
       even when the refused connection never existed *)
    Bus.register_stats
      ~id:
        (Printf.sprintf "tcp-engine-%d" (1 + Atomic.fetch_and_add engine_seq 1))
      (fun () ->
        let s = stats t in
        Printf.sprintf
          "engine conns=%d accepts=%d refused=%d syn_dropped=%d \
           tw_recycled=%d shed=%d rsts=%d segs=%d/%d unknown=%d \
           chall=%d/%d(r%d,s%d,a%d) aborts=rtx%d,persist%d,ut%d,ka%d"
          s.active_conns s.accepts s.backlog_refused s.syn_dropped
          s.time_wait_recycled s.to_do_shed s.rsts_sent s.segs_in s.segs_out
          s.unknown_dropped s.challenge_acks_sent s.challenge_acks_limited
          s.rst_challenges s.syn_challenges s.ack_challenges
          s.rtx_limit_aborts s.persist_aborts s.user_timeout_aborts
          s.keepalive_aborts);
    t
end
