(** The TCP protocol: the functor of Figure 4 and the [Main] module.

    [Make (Lower) (Aux) (Cc) (Params)] assembles the pure state-machine
    modules ({!Tcb}, {!State}, {!Receive}, {!Send}, {!Resend}, {!Action})
    into a protocol satisfying the generic signature:

    {[
      module Standard_tcp =
        Tcp.Make (Ip) (Ip_aux) (Congestion.Reno) (Tcp.Default_params)
      module Special_tcp =                     (* Figure 3's second stack *)
        Tcp.Make (Eth) (Eth_aux) (Congestion.Reno)
          (struct
            let params = { Tcb.default_params with compute_checksums = false }
          end)
    ]}

    The control structure is the paper's {e quasi-synchronous} one
    (Figure 7): network deliveries and timer expirations do nothing but
    place an action on the connection's [to_do] queue and invoke the
    drain loop; the thread that queued the action executes actions one at
    a time until the queue is empty (nested invocations — e.g. a user
    handler calling [send] from inside a data upcall — simply queue and
    return, and the outer drain picks the new work up).  Given the order
    in which actions enter the queue, everything that follows is
    deterministic. *)

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
      (** TIME-WAIT TCBs evicted early by the [max_time_wait] bound *)
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

  type address = { peer : Aux.host; port : int; local_port : int option }

  type pattern = { local_port : int }

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  (* Send-buffer bound: [send] blocks (cooperatively) while this many
     bytes are already queued, letting flow control pace the sender. *)
  let send_buffer_bytes = 65536

  (* TCP header (up to 24 bytes with the MSS option) plus slack so user
     buffers never reallocate on the fast path. *)
  let tcp_headroom = 24

  (* The fixed TCP header on every data segment.  The MSS we advertise is
     [mtu - tcp_fixed_header], NOT [mtu - tcp_headroom]: the 4 bytes of
     option slack in [tcp_headroom] exist only on SYNs, and subtracting
     them from the MSS made every full-sized data segment under-fill the
     MTU by 4 bytes. *)
  let tcp_fixed_header = Tcp_header.min_length

  (* A half-open connection held compactly: everything the handshake ACK
     needs to build the real TCB, a few dozen bytes instead of a [Tcb]
     with its queues.  This is what a SYN flood pins. *)
  type syn_cache_entry = {
    sc_host : Aux.host;
    sc_local_port : int;
    sc_remote_port : int;
    sc_iss : Seq.t;
    sc_irs : Seq.t;
    sc_peer_mss : int option;
    mutable sc_created : int;
        (** virtual time of the latest SYN, for lazy expiry — refreshed on
            each retransmitted SYN so a live handshake never expires *)
  }

  (* Demultiplexing keys on Figure 5's host identity, [Aux.hash] and
     [Aux.equal], so TCP never formats an address to find a connection.
     [Conns] is keyed on (host, local port, remote port). *)
  module Hosts = Hashtbl.Make (struct include Aux type t = host end)
  module Conns = Hashtbl.Make (struct
    type t = Aux.host * int * int
    let equal (h, l, r) (h', l', r') = l = l' && r = r' && Aux.equal h h'
    let hash (h, l, r) = (((Aux.hash h * 31) + l) * 31) + r
  end)

  type connection = {
    tcp : t;
    host : Aux.host;
    local_port : int;
    remote_port : int;
    lower : Lower.connection;
    lower_send : Packet.t -> unit;
    tcb : Tcb.tcp_tcb;
    mutable state : Tcb.tcp_state;
    mutable data : data_handler;
    mutable status : status_handler;
    mutable draining : bool;
    timers : Fox_sched.Timer.t option array;
        (** one timer per {!Tcb.timer_index}, created on first use and
            re-armed in place after that *)
    open_mb : (unit, string) result Fox_sched.Cond.t;
    close_mb : unit Fox_sched.Cond.t;
    send_space : unit Fox_sched.Cond.t;
    mutable open_done : bool;
    mutable close_reason : Status.t option;
    mutable dead : bool;
    mutable in_time_wait : bool;  (** registered in the TIME-WAIT table *)
    mutable half_open_of : listener option;
        (** the listener whose backlog this (legacy-mode) half-open
            connection occupies, until established or deleted *)
  }

  and listener = {
    l_tcp : t;
    l_port : int;
    l_handler : handler;
    mutable l_active : bool;
    mutable l_half_open : int;  (** legacy mode: SYN-RECEIVED TCBs held *)
    mutable l_syn_cache : syn_cache_entry list;
        (** oldest first; never longer than [listen_backlog] *)
  }

  and handler = connection -> data_handler * status_handler

  and t = {
    lower_instance : Lower.t;
    conns : connection Conns.t;
    listeners : (int, listener) Hashtbl.t;
    lower_conns : Lower.connection Hosts.t;
    mutable iss_salt : int;
    isn_k0 : int;  (** RFC 6528 boot secret (per engine) *)
    isn_k1 : int;
    chall_cap : Tcb.challenge_cap;
        (** engine-wide challenge-ACK cap, shared into every TCB *)
    mutable next_ephemeral : int;
    mutable init_count : int;
    mutable segs_in : int;
    mutable segs_out : int;
    mutable bad_segments : int;
    mutable rsts_sent : int;
    mutable unknown_dropped : int;
    mutable accepts : int;
    mutable wire_send_failures : int;
    mutable syn_dropped : int;
    mutable backlog_refused : int;
    mutable time_wait_recycled : int;
    mutable to_do_shed : int;
    (* challenge counters of deleted connections, folded in at teardown so
       [stats] keeps seeing an attack that killed (or outlived) its TCBs *)
    mutable chall_sent_dead : int;
    mutable chall_limited_dead : int;
    mutable chall_rst_dead : int;
    mutable chall_syn_dead : int;
    mutable chall_ack_dead : int;
    (* blackhole counters of deleted connections, same fold *)
    mutable blackhole_shrinks_dead : int;
    (* abort counters by kind (the connection is gone by definition) *)
    mutable persist_aborts : int;
    mutable user_timeout_aborts : int;
    mutable rtx_limit_aborts : int;
    (* TIME-WAIT bound: connections in arrival order (entries may be
       stale — already deleted by their own 2·MSL — and are skipped) *)
    time_wait_q : connection Queue.t;
    mutable time_wait_count : int;
  }

  let endpoints conn = (conn.host, conn.local_port, conn.remote_port)

  let state_of conn = Tcb.state_name conn.state

  let now_opt () =
    try Fox_sched.Scheduler.now () with Effect.Unhandled _ -> 0

  let snapshot conn =
    Stats.of_tcb ~conn_id:conn.tcb.Tcb.obs_id
      ~state:(Tcb.state_name conn.state) ~now:(now_opt ()) conn.tcb

  let snapshots t =
    Conns.fold (fun _ c acc -> snapshot c :: acc) t.conns []
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

  let pseudo_for conn len =
    if runtime_params.compute_checksums then
      Some (Aux.pseudo conn.lower ~proto:proto_number ~len)
    else None

  let allocate_internal conn len =
    Packet.create
      ~headroom:(tcp_headroom + Lower.headroom conn.lower)
      ~tailroom:(Lower.tailroom conn.lower)
      len

  (* ---------------- externalisation ---------------- *)

  let send_rst_on ~lconn ~lower_send ~src_port ~dst_port ~seq ~ack_opt =
    let hdr =
      { (Tcp_header.basic ~src_port ~dst_port) with
        Tcp_header.seq;
        rst = true;
        ack_flag = ack_opt <> None;
        ack = (match ack_opt with Some a -> a | None -> Seq.zero);
      }
    in
    let pseudo_for len =
      if runtime_params.compute_checksums then
        Some (Aux.pseudo lconn ~proto:proto_number ~len)
      else None
    in
    Action.externalize ~alg:runtime_params.checksum_alg
      ~defer:true ~pseudo_for ~hdr ~data:None
      ~allocate:(fun len ->
        Packet.create
          ~headroom:(tcp_headroom + Lower.headroom lconn)
          ~tailroom:(Lower.tailroom lconn) len)
      ~send:lower_send ()

  (* ---------------- SYN-flood defense primitives ---------------- *)

  (* Cache entries expire lazily once the peer has been silent for longer
     than any retransmission gap its engine would use (the largest is
     [rto_max_us], at full backoff) — so a handshake still being retried
     keeps its entry, while a flooder that went quiet loses it. *)
  let syn_cache_ttl_us = 2 * runtime_params.rto_max_us

  (* SYN cookies: the SYN-ACK's sequence number is a keyed hash of the
     endpoints and the client's ISN, with the low two bits encoding the
     peer's MSS class.  The handshake ACK echoes it back (ack = iss + 1),
     proving the peer saw our SYN-ACK — no state held in between. *)
  let mss_classes = [| 536; 1220; 1460; 4096 |]

  let mss_class_of mss =
    let idx = ref 0 in
    Array.iteri (fun i c -> if c <= mss then idx := i) mss_classes;
    !idx

  let cookie_hash host ~local_port ~remote_port ~irs =
    let h = ref 0x5ca1ab1e in
    let mix v = h := ((!h lxor v) * 0x01000193) land 0x3FFFFFFF in
    String.iter (fun c -> mix (Char.code c)) (Aux.to_string host);
    mix local_port;
    mix remote_port;
    mix (Seq.to_int irs);
    (!h lxor (!h lsr 13)) land 0xFFFFFFFC

  let cookie_iss host ~local_port ~remote_port ~irs ~peer_mss =
    Seq.of_int
      (cookie_hash host ~local_port ~remote_port ~irs
      lor mss_class_of peer_mss)

  (* [cookie_check] recovers the peer's MSS class iff [ack - 1] is the
     cookie we would have minted for this handshake. *)
  let cookie_check host ~local_port ~remote_port ~irs ~ack =
    let c = Seq.to_int (Seq.add ack (-1)) in
    if c land 0xFFFFFFFC = cookie_hash host ~local_port ~remote_port ~irs
    then Some mss_classes.(c land 3)
    else None

  (* A stateless SYN-ACK, crafted like [send_rst_on] — no TCB behind it,
     so no retransmission either: the client's SYN retransmit re-elicits
     it. *)
  let send_synack_on t ~lconn ~lower_send ~src_port ~dst_port ~iss ~irs
      ~adv_mss =
    t.segs_out <- t.segs_out + 1;
    let hdr =
      { (Tcp_header.basic ~src_port ~dst_port) with
        Tcp_header.seq = iss;
        syn = true;
        ack_flag = true;
        ack = Seq.add irs 1;
        window = runtime_params.initial_window;
        mss = Some adv_mss;
      }
    in
    let pseudo_for len =
      if runtime_params.compute_checksums then
        Some (Aux.pseudo lconn ~proto:proto_number ~len)
      else None
    in
    try
      Action.externalize ~alg:runtime_params.checksum_alg
        ~defer:true ~pseudo_for ~hdr ~data:None
        ~allocate:(fun len ->
          Packet.create
            ~headroom:(tcp_headroom + Lower.headroom lconn)
            ~tailroom:(Lower.tailroom lconn) len)
        ~send:lower_send ()
    with Send_failed _ -> t.wire_send_failures <- t.wire_send_failures + 1

  (* Refuse a connection attempt per policy: an RST gives the client a
     fast failure; a silent drop makes its SYN retransmission the retry
     that may find room once the flood clears. *)
  let refuse_syn t lconn (hdr : Tcp_header.t) ~reason =
    t.backlog_refused <- t.backlog_refused + 1;
    if !Bus.live then
      Bus.emit ~layer:"tcp" (Bus.Note ("syn refused: " ^ reason));
    if runtime_params.refuse_with_rst then begin
      t.rsts_sent <- t.rsts_sent + 1;
      let lower_send = Lower.prepare_send lconn in
      try
        send_rst_on ~lconn ~lower_send ~src_port:hdr.Tcp_header.dst_port
          ~dst_port:hdr.Tcp_header.src_port ~seq:Seq.zero
          ~ack_opt:(Some (Seq.add hdr.Tcp_header.seq 1))
      with Send_failed _ ->
        t.wire_send_failures <- t.wire_send_failures + 1
    end
    else t.syn_dropped <- t.syn_dropped + 1

  let externalize conn (ss : Tcb.send_segment) =
    let tcb = conn.tcb in
    let hdr =
      {
        Tcp_header.src_port = conn.local_port;
        dst_port = conn.remote_port;
        seq = ss.Tcb.out_seq;
        ack = (if ss.Tcb.out_ack then tcb.Tcb.rcv_nxt else Seq.zero);
        urg = false;
        ack_flag = ss.Tcb.out_ack;
        psh = ss.Tcb.out_psh;
        rst = ss.Tcb.out_rst;
        syn = ss.Tcb.out_syn;
        fin = ss.Tcb.out_fin;
        window = tcb.Tcb.rcv_wnd;
        urgent = 0;
        mss = ss.Tcb.out_mss;
      }
    in
    if ss.Tcb.out_ack then tcb.Tcb.ack_pending <- false;
    tcb.Tcb.segs_out <- tcb.Tcb.segs_out + 1;
    conn.tcp.segs_out <- conn.tcp.segs_out + 1;
    if ss.Tcb.out_rst then conn.tcp.rsts_sent <- conn.tcp.rsts_sent + 1;
    Action.externalize ~alg:runtime_params.checksum_alg
      ~defer:true ~pseudo_for:(pseudo_for conn) ~hdr
      ~data:ss.Tcb.out_data ~allocate:(allocate_internal conn)
      ~send:conn.lower_send ()

  let send_pure_ack conn =
    let tcb = conn.tcb in
    tcb.Tcb.ack_pending <- false;
    tcb.Tcb.segs_out <- tcb.Tcb.segs_out + 1;
    conn.tcp.segs_out <- conn.tcp.segs_out + 1;
    let hdr =
      { (Tcp_header.basic ~src_port:conn.local_port ~dst_port:conn.remote_port) with
        Tcp_header.seq = tcb.Tcb.snd_nxt;
        ack = tcb.Tcb.rcv_nxt;
        ack_flag = true;
        window = tcb.Tcb.rcv_wnd;
      }
    in
    Action.externalize ~alg:runtime_params.checksum_alg
      ~defer:true ~pseudo_for:(pseudo_for conn) ~hdr
      ~data:None ~allocate:(allocate_internal conn) ~send:conn.lower_send ()

  (* ---------------- flight recorder ---------------- *)

  let flags_of (ss : Tcb.send_segment) =
    let b = Buffer.create 4 in
    if ss.Tcb.out_syn then Buffer.add_char b 'S';
    if ss.Tcb.out_fin then Buffer.add_char b 'F';
    if ss.Tcb.out_rst then Buffer.add_char b 'R';
    if ss.Tcb.out_psh then Buffer.add_char b 'P';
    if ss.Tcb.out_ack then Buffer.add_char b 'A';
    Buffer.contents b

  (* Report one executed action to the bus.  Runs from the drain loop
     right after [execute] — the same seam as {!Check_hook} — so the
     event order {e is} the deterministic to_do execution order. *)
  let observe conn before action =
    let tcb = conn.tcb in
    let emit kind = Bus.emit ~layer:"tcp" ~conn:tcb.Tcb.obs_id kind in
    (match action with
    | Tcb.Send_segment ss ->
      let len =
        match ss.Tcb.out_data with Some p -> Packet.length p | None -> 0
      in
      if ss.Tcb.out_is_rtx then
        emit
          (Bus.Retransmit
             { seq = Seq.to_int ss.Tcb.out_seq; len;
               backoff = tcb.Tcb.backoff })
      else emit (Bus.Send { bytes = len; flags = flags_of ss })
    | Tcb.Send_ack -> emit (Bus.Send { bytes = 0; flags = "A" })
    | Tcb.User_data packet ->
      emit (Bus.Deliver { bytes = Packet.length packet })
    | Tcb.Set_timer (kind, us) ->
      emit (Bus.Timer { timer = Tcb.timer_kind_name kind; what = Bus.Set us })
    | Tcb.Clear_timer kind ->
      emit (Bus.Timer { timer = Tcb.timer_kind_name kind; what = Bus.Cleared })
    | Tcb.Timer_expired kind ->
      emit (Bus.Timer { timer = Tcb.timer_kind_name kind; what = Bus.Expired })
    | Tcb.Peer_reset -> emit (Bus.Note "peer reset")
    | Tcb.User_error msg -> emit (Bus.Note ("error: " ^ msg))
    | Tcb.Process_data _ | Tcb.Complete_open | Tcb.Complete_close
    | Tcb.Peer_close | Tcb.Delete_tcb ->
      ());
    let before_name = Tcb.state_name before in
    let after_name = Tcb.state_name conn.state in
    if before_name <> after_name then
      emit (Bus.State { from_ = before_name; to_ = after_name })

  (* ---------------- timers (Figure 11 timers per kind) ---------------- *)

  let clear_timer conn kind =
    match conn.timers.(Tcb.timer_index kind) with
    | Some timer -> Fox_sched.Timer.clear timer
    | None -> ()

  let armed_timers conn =
    List.filter
      (fun kind ->
        match conn.timers.(Tcb.timer_index kind) with
        | Some timer -> Fox_sched.Timer.armed timer
        | None -> false)
      Tcb.timer_kinds

  let rec set_timer conn kind us =
    let i = Tcb.timer_index kind in
    let timer =
      match conn.timers.(i) with
      | Some timer -> timer
      | None ->
        let expired = Tcb.Timer_expired kind in
        let timer =
          Fox_sched.Timer.create (fun () ->
              if not conn.dead then begin
                Tcb.add_to_do conn.tcb expired;
                drain conn
              end)
        in
        conn.timers.(i) <- Some timer;
        timer
    in
    Fox_sched.Timer.set timer us

  (* ---------------- teardown ---------------- *)

  and delete_tcb conn =
    if not conn.dead then begin
      conn.dead <- true;
      leave_half_open conn;
      if conn.in_time_wait then begin
        conn.in_time_wait <- false;
        conn.tcp.time_wait_count <- conn.tcp.time_wait_count - 1
      end;
      Array.iter (Option.iter Fox_sched.Timer.clear) conn.timers;
      Conns.remove conn.tcp.conns (endpoints conn);
      Bus.unregister_stats ~id:conn.tcb.Tcb.obs_id;
      let t = conn.tcp and tcb = conn.tcb in
      t.chall_sent_dead <- t.chall_sent_dead + tcb.Tcb.challenge_acks_sent;
      t.chall_limited_dead <-
        t.chall_limited_dead + tcb.Tcb.challenge_acks_limited;
      t.chall_rst_dead <- t.chall_rst_dead + tcb.Tcb.rst_challenges;
      t.chall_syn_dead <- t.chall_syn_dead + tcb.Tcb.syn_challenges;
      t.chall_ack_dead <- t.chall_ack_dead + tcb.Tcb.ack_challenges;
      t.blackhole_shrinks_dead <-
        t.blackhole_shrinks_dead + tcb.Tcb.blackhole_shrinks;
      (* drop the TCB's own buffer references so the leak census balances
         (actions still pending on to_do hold their own references), and
         empty the queues so nothing can reach a recycled buffer *)
      Tcb.iter_packets Packet.release tcb;
      Ring.clear tcb.Tcb.queued;
      tcb.Tcb.queued_bytes <- 0;
      Ring.clear tcb.Tcb.rtx_q;
      tcb.Tcb.out_of_order <- [];
      tcb.Tcb.ooo_bytes <- 0;
      let reason = Option.value conn.close_reason ~default:Status.Closed in
      if !Bus.live then
        Bus.emit ~layer:"tcp" ~conn:conn.tcb.Tcb.obs_id
          (Bus.Note ("deleted: " ^ Status.to_string reason));
      if not conn.open_done then
        Fox_sched.Cond.signal conn.open_mb
          (Error (Status.to_string reason));
      Fox_sched.Cond.broadcast conn.close_mb ();
      Fox_sched.Cond.broadcast conn.send_space ();
      conn.status reason
    end

  (* A (legacy-mode) half-open connection stops occupying its listener's
     backlog slot: it established, or it died. *)
  and leave_half_open conn =
    match conn.half_open_of with
    | Some l ->
      conn.half_open_of <- None;
      l.l_half_open <- l.l_half_open - 1
    | None -> ()

  (* The connection just reached TIME-WAIT (detected at the post-execute
     seam of [drain]): register it, and when the table is over its bound
     recycle the oldest parked TCB — its 2·MSL is cut short, which is the
     documented trade for surviving port churn under load. *)
  and enter_time_wait conn =
    let t = conn.tcp in
    conn.in_time_wait <- true;
    Queue.push conn t.time_wait_q;
    t.time_wait_count <- t.time_wait_count + 1;
    if runtime_params.max_time_wait > 0 then
      while t.time_wait_count > runtime_params.max_time_wait do
        match Queue.pop t.time_wait_q with
        | exception Queue.Empty ->
          (* unreachable: count > 0 implies a live entry is queued *)
          t.time_wait_count <- 0
        | victim ->
          (* stale entries (already down via their own 2·MSL) are skipped;
             a live one is recycled *)
          if (not victim.dead) && victim.in_time_wait then begin
            t.time_wait_recycled <- t.time_wait_recycled + 1;
            if !Bus.live then
              Bus.emit ~layer:"tcp" ~conn:victim.tcb.Tcb.obs_id
                (Bus.Note "time-wait recycled");
            delete_tcb victim
          end
      done

  (* ---------------- the quasi-synchronous executor ---------------- *)

  and execute conn action =
    let tcb = conn.tcb in
    let now = Fox_sched.Scheduler.now () in
    match action with
    | Tcb.Process_data seg ->
      (* any segment from the peer is evidence of life *)
      tcb.Tcb.last_activity <- now;
      tcb.Tcb.probes_sent <- 0;
      let handled =
        runtime_params.header_prediction
        &&
        match conn.state with
        | Tcb.Estab _ -> Receive.fast_path runtime_params tcb seg ~now
        | _ -> false
      in
      if not handled then
        conn.state <- Receive.process runtime_params conn.state seg ~now;
      (* a segment with no text and no FIN is never stored anywhere (only
         data and FINs can sit on the out-of-order queue), so its receive
         buffer is released now *)
      if
        Packet.length seg.Tcb.data = 0
        && not seg.Tcb.hdr.Tcp_header.fin
      then Packet.release seg.Tcb.data
    | Tcb.User_data packet -> conn.data packet
    (* A lower layer may refuse the send ([Send_failed], e.g. an injected
       fault or a torn-down session).  The segment is already on the
       retransmit queue, so treat the refusal like a lost packet rather
       than letting it unwind the drain loop. *)
    | Tcb.Send_segment ss -> (
      try externalize conn ss
      with Send_failed _ ->
        conn.tcp.wire_send_failures <- conn.tcp.wire_send_failures + 1)
    | Tcb.Send_ack -> (
      try send_pure_ack conn
      with Send_failed _ ->
        conn.tcp.wire_send_failures <- conn.tcp.wire_send_failures + 1)
    | Tcb.Set_timer (kind, us) -> set_timer conn kind us
    | Tcb.Clear_timer kind -> clear_timer conn kind
    | Tcb.Timer_expired kind ->
      conn.state <- State.timer_expired runtime_params conn.state kind ~now
    | Tcb.Complete_open ->
      leave_half_open conn;
      if not conn.open_done then begin
        conn.open_done <- true;
        if runtime_params.keepalive_us > 0 then begin
          tcb.Tcb.last_activity <- now;
          set_timer conn Tcb.Keepalive runtime_params.keepalive_us
        end;
        Fox_sched.Cond.signal conn.open_mb (Ok ());
        conn.status Status.Connected
      end
    | Tcb.Complete_close -> Fox_sched.Cond.broadcast conn.close_mb ()
    | Tcb.Peer_close -> conn.status Status.Remote_close
    | Tcb.Peer_reset -> conn.close_reason <- Some Status.Reset
    | Tcb.User_error msg ->
      if conn.close_reason = None then conn.close_reason <- Some Status.Timed_out;
      (* per-kind abort accounting, keyed on the [State.give_up] reason *)
      (match msg with
      | "persist timeout" -> conn.tcp.persist_aborts <- conn.tcp.persist_aborts + 1
      | "user timeout" ->
        conn.tcp.user_timeout_aborts <- conn.tcp.user_timeout_aborts + 1
      | "retransmission limit exceeded" ->
        conn.tcp.rtx_limit_aborts <- conn.tcp.rtx_limit_aborts + 1
      | _ -> ())
    | Tcb.Delete_tcb -> delete_tcb conn

  and drain conn =
    if not conn.draining then begin
      conn.draining <- true;
      match run_to_do conn with
      | () -> conn.draining <- false
      | exception e ->
        conn.draining <- false;
        raise e
    end

  and run_to_do conn =
    match Tcb.next_to_do conn.tcb with
    | None -> ()
    | Some action ->
      (* Both observers share the capture-execute-report seam; the
         common case (no hook, bus off) pays two ref reads. *)
      let hook = !Check_hook.hook in
      let observing = !Bus.live in
      (match (hook, observing) with
      | None, false -> execute conn action
      | _ ->
        let before = conn.state in
        execute conn action;
        if observing then observe conn before action;
        (match hook with
        | None -> ()
        | Some check ->
          check
            {
              Check_hook.tcb = conn.tcb;
              before;
              after = conn.state;
              action;
              pending = Tcb.pending_actions conn.tcb;
              armed = armed_timers conn;
              now = Fox_sched.Scheduler.now ();
              dead = conn.dead;
            }));
      (* TIME-WAIT entry is detected here, at the same seam, so the
         bounded table sees every arrival exactly once *)
      (match conn.state with
      | Tcb.Time_wait _ when not (conn.in_time_wait || conn.dead) ->
        enter_time_wait conn
      | _ -> ());
      (* wake senders blocked on the buffer bound *)
      if
        conn.tcb.Tcb.queued_bytes < send_buffer_bytes
        && Fox_sched.Cond.waiters conn.send_space > 0
      then Fox_sched.Cond.broadcast conn.send_space ();
      run_to_do conn

  (* ---------------- connection creation ---------------- *)

  let install_connection t ~host ~local_port ~remote_port ~lower ~state
      (handler : handler) =
    let tcb =
      match Tcb.tcb_of state with
      | Some tcb -> tcb
      | None -> invalid_arg "install_connection: state without tcb"
    in
    let conn =
      {
        tcp = t;
        host;
        local_port;
        remote_port;
        lower;
        lower_send = Lower.prepare_send lower;
        tcb;
        state;
        data = ignore;
        status = ignore;
        draining = false;
        timers = Array.make (List.length Tcb.timer_kinds) None;
        open_mb = Fox_sched.Cond.create ();
        close_mb = Fox_sched.Cond.create ();
        send_space = Fox_sched.Cond.create ();
        open_done = false;
        close_reason = None;
        dead = false;
        in_time_wait = false;
        half_open_of = None;
      }
    in
    tcb.Tcb.obs_id <-
      Printf.sprintf "%s:%d>%d" (Aux.to_string host) local_port remote_port;
    (* every connection of this engine draws on the same engine-wide
       challenge-ACK cap (its private budget is already in the TCB) *)
    tcb.Tcb.chall_cap <- t.chall_cap;
    Conns.replace t.conns (host, local_port, remote_port) conn;
    Bus.register_stats ~id:tcb.Tcb.obs_id (fun () ->
        Stats.to_string (snapshot conn));
    if !Bus.live then
      Bus.emit ~layer:"tcp" ~conn:tcb.Tcb.obs_id
        (Bus.State { from_ = "CLOSED"; to_ = Tcb.state_name state });
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    conn

  (* ---------------- demultiplexing ---------------- *)

  let handle_unknown t lconn (hdr : Tcp_header.t) seg_text_len =
    if runtime_params.abort_unknown_connections && not hdr.Tcp_header.rst then begin
      t.rsts_sent <- t.rsts_sent + 1;
      let lower_send = Lower.prepare_send lconn in
      try
        if hdr.Tcp_header.ack_flag then
        send_rst_on ~lconn ~lower_send ~src_port:hdr.Tcp_header.dst_port
          ~dst_port:hdr.Tcp_header.src_port ~seq:hdr.Tcp_header.ack
          ~ack_opt:None
        else
          send_rst_on ~lconn ~lower_send ~src_port:hdr.Tcp_header.dst_port
            ~dst_port:hdr.Tcp_header.src_port ~seq:Seq.zero
            ~ack_opt:
              (Some
                 (Seq.add hdr.Tcp_header.seq
                    (seg_text_len
                    + (if hdr.Tcp_header.syn then 1 else 0)
                    + if hdr.Tcp_header.fin then 1 else 0)))
      with Send_failed _ ->
        (* an unanswerable RST is no worse than no RST *)
        t.wire_send_failures <- t.wire_send_failures + 1
    end
    else t.unknown_dropped <- t.unknown_dropped + 1

  (* Global admission check: the engine refuses new connections (not new
     segments) once [max_connections] TCBs are live. *)
  let under_conn_cap t =
    runtime_params.max_connections = 0
    || Conns.length t.conns < runtime_params.max_connections

  (* Drop SYN-cache entries older than the TTL.  Lazy: runs whenever the
     cache is consulted, so an idle listener keeps stale entries but they
     cost only a few words each. *)
  let purge_syn_cache l ~now =
    if l.l_syn_cache <> [] then
      l.l_syn_cache <-
        List.filter
          (fun e -> now - e.sc_created <= syn_cache_ttl_us)
          l.l_syn_cache

  let syn_cache_find l ~host ~local_port ~remote_port =
    List.find_opt
      (fun e ->
        e.sc_local_port = local_port
        && e.sc_remote_port = remote_port
        && Aux.equal e.sc_host host)
      l.l_syn_cache

  (* Complete a passive open whose half-open phase lived outside any TCB:
     build the TCB directly in ESTABLISHED, then feed the promoting ACK
     through the normal receive DAG so any text or FIN riding on it is
     processed (and the segment buffer ownership follows the usual
     path). *)
  let promote t lconn (seg : Tcb.segment) listener ~iss ~irs ~peer_mss =
    let host = Aux.source lconn in
    let hdr = seg.Tcb.hdr in
    if not (under_conn_cap t) then begin
      refuse_syn t lconn hdr ~reason:"connection cap (promotion)";
      Packet.release seg.Tcb.data
    end
    else begin
      let mss = max 64 (Aux.mtu lconn - tcp_fixed_header) in
      let state =
        State.promote_passive runtime_params ~iss ~irs ~mss ~peer_mss
          ~wnd:hdr.Tcp_header.window
      in
      t.accepts <- t.accepts + 1;
      let conn =
        install_connection t ~host ~local_port:hdr.Tcp_header.dst_port
          ~remote_port:hdr.Tcp_header.src_port ~lower:lconn ~state
          listener.l_handler
      in
      conn.tcb.Tcb.segs_in <- conn.tcb.Tcb.segs_in + 1;
      Tcb.add_to_do conn.tcb (Tcb.Process_data seg);
      drain conn
    end

  (* A bare ACK for a port we listen on but no connection we know: in
     SYN-cache/cookie mode this may be the third step of a handshake whose
     half-open state is compact (cache entry) or absent (cookie). *)
  let handshake_ack t lconn (seg : Tcb.segment) listener =
    let host = Aux.source lconn in
    let hdr = seg.Tcb.hdr in
    let local_port = hdr.Tcp_header.dst_port
    and remote_port = hdr.Tcp_header.src_port in
    purge_syn_cache listener ~now:(Fox_sched.Scheduler.now ());
    match syn_cache_find listener ~host ~local_port ~remote_port with
    | Some e ->
      if
        Seq.equal hdr.Tcp_header.ack (Seq.add e.sc_iss 1)
        && Seq.equal hdr.Tcp_header.seq (Seq.add e.sc_irs 1)
      then begin
        listener.l_syn_cache <-
          List.filter (fun e' -> e' != e) listener.l_syn_cache;
        promote t lconn seg listener ~iss:e.sc_iss ~irs:e.sc_irs
          ~peer_mss:e.sc_peer_mss
      end
      else begin
        (* wrong sequence numbers: not our handshake *)
        handle_unknown t lconn hdr (Packet.length seg.Tcb.data);
        Packet.release seg.Tcb.data
      end
    | None ->
      if runtime_params.syn_cookies then begin
        let irs = Seq.add hdr.Tcp_header.seq (-1) in
        match
          cookie_check host ~local_port ~remote_port ~irs
            ~ack:hdr.Tcp_header.ack
        with
        | Some peer_mss ->
          promote t lconn seg listener
            ~iss:(Seq.add hdr.Tcp_header.ack (-1))
            ~irs ~peer_mss:(Some peer_mss)
        | None ->
          (* a forged or stale cookie earns the standard RST *)
          handle_unknown t lconn hdr (Packet.length seg.Tcb.data);
          Packet.release seg.Tcb.data
      end
      else begin
        handle_unknown t lconn hdr (Packet.length seg.Tcb.data);
        Packet.release seg.Tcb.data
      end

  (* An incoming SYN on a listening port.  Three regimes:
     - legacy ([syn_cache = false]): a full TCB is built per SYN, but the
       number of half-open TCBs per listener is bounded by the backlog;
     - SYN cache: half-open state is a compact record, promoted to a TCB
       only by the handshake ACK;
     - SYN cookies: when even the cache is full, the handshake state is
       encoded in the SYN-ACK's sequence number and held by the client. *)
  let accept t lconn (seg : Tcb.segment) listener =
    let host = Aux.source lconn in
    let hdr = seg.Tcb.hdr in
    let local_port = hdr.Tcp_header.dst_port
    and remote_port = hdr.Tcp_header.src_port in
    let now = Fox_sched.Scheduler.now () in
    if runtime_params.syn_cache then begin
      purge_syn_cache listener ~now;
      let lower_send = Lower.prepare_send lconn in
      match syn_cache_find listener ~host ~local_port ~remote_port with
      | Some e ->
        (* retransmitted SYN: our SYN-ACK was lost; resend it statelessly
           and keep the entry alive *)
        e.sc_created <- now;
        send_synack_on t ~lconn ~lower_send ~src_port:local_port
          ~dst_port:remote_port ~iss:e.sc_iss ~irs:e.sc_irs
          ~adv_mss:(max 64 (Aux.mtu lconn - tcp_fixed_header));
        Packet.release seg.Tcb.data
      | None ->
        let adv_mss = max 64 (Aux.mtu lconn - tcp_fixed_header) in
        if
          (runtime_params.listen_backlog = 0
          || List.length listener.l_syn_cache < runtime_params.listen_backlog)
          && under_conn_cap t
        then begin
          let iss = fresh_iss t ~host ~local_port ~remote_port in
          listener.l_syn_cache <-
            listener.l_syn_cache
            @ [
                {
                  sc_host = host;
                  sc_local_port = local_port;
                  sc_remote_port = remote_port;
                  sc_iss = iss;
                  sc_irs = hdr.Tcp_header.seq;
                  sc_peer_mss = hdr.Tcp_header.mss;
                  sc_created = now;
                };
              ];
          send_synack_on t ~lconn ~lower_send ~src_port:local_port
            ~dst_port:remote_port ~iss ~irs:hdr.Tcp_header.seq ~adv_mss;
          Packet.release seg.Tcb.data
        end
        else if runtime_params.syn_cookies && under_conn_cap t then begin
          let peer_mss =
            match hdr.Tcp_header.mss with Some m -> m | None -> adv_mss
          in
          let iss =
            cookie_iss host ~local_port ~remote_port ~irs:hdr.Tcp_header.seq
              ~peer_mss
          in
          send_synack_on t ~lconn ~lower_send ~src_port:local_port
            ~dst_port:remote_port ~iss ~irs:hdr.Tcp_header.seq ~adv_mss;
          Packet.release seg.Tcb.data
        end
        else begin
          refuse_syn t lconn hdr ~reason:"backlog full";
          Packet.release seg.Tcb.data
        end
    end
    else if
      (runtime_params.listen_backlog > 0
      && listener.l_half_open >= runtime_params.listen_backlog)
      || not (under_conn_cap t)
    then begin
      refuse_syn t lconn hdr ~reason:"backlog full";
      Packet.release seg.Tcb.data
    end
    else begin
      let mss = max 64 (Aux.mtu lconn - tcp_fixed_header) in
      let state =
        State.passive_open runtime_params
          ~iss:(fresh_iss t ~host ~local_port ~remote_port)
          ~mss ~syn:seg ~now
      in
      t.accepts <- t.accepts + 1;
      let conn =
        install_connection t ~host ~local_port ~remote_port ~lower:lconn
          ~state listener.l_handler
      in
      conn.half_open_of <- Some listener;
      listener.l_half_open <- listener.l_half_open + 1;
      (* the SYN's buffer is not kept (any text on a SYN is ignored) *)
      Packet.release seg.Tcb.data;
      drain conn
    end

  let receive t lconn packet =
    let now = Fox_sched.Scheduler.now () in
    let pseudo =
      if runtime_params.compute_checksums then
        Some (Aux.pseudo lconn ~proto:proto_number ~len:(Packet.length packet))
      else None
    in
    match Action.internalize ~alg:runtime_params.checksum_alg ~pseudo packet ~now with
    | Error _ ->
      t.bad_segments <- t.bad_segments + 1;
      Packet.release packet
    | Ok seg -> (
      t.segs_in <- t.segs_in + 1;
      let hdr = seg.Tcb.hdr in
      let host = Aux.source lconn in
      match
        Conns.find_opt t.conns
          (host, hdr.Tcp_header.dst_port, hdr.Tcp_header.src_port)
      with
      | Some conn when not conn.dead ->
        if
          runtime_params.max_to_do > 0
          && conn.tcb.Tcb.to_do_len >= runtime_params.max_to_do
        then begin
          (* load shedding: the connection's work queue is saturated, so
             this segment is treated as lost on the wire — the peer's
             retransmission is the retry *)
          conn.tcb.Tcb.to_do_shed <- conn.tcb.Tcb.to_do_shed + 1;
          t.to_do_shed <- t.to_do_shed + 1;
          if !Bus.live then
            Bus.emit ~layer:"tcp" ~conn:conn.tcb.Tcb.obs_id
              (Bus.Note "segment shed: to_do full");
          Packet.release seg.Tcb.data
        end
        else begin
          conn.tcb.Tcb.segs_in <- conn.tcb.Tcb.segs_in + 1;
          Tcb.add_to_do conn.tcb (Tcb.Process_data seg);
          drain conn
        end
      | _ -> (
        match Hashtbl.find_opt t.listeners hdr.Tcp_header.dst_port with
        | Some l
          when l.l_active && hdr.Tcp_header.syn
               && (not hdr.Tcp_header.ack_flag)
               && not hdr.Tcp_header.rst ->
          accept t lconn seg l
        | Some l
          when l.l_active && runtime_params.syn_cache && hdr.Tcp_header.ack_flag
               && (not hdr.Tcp_header.syn)
               && not hdr.Tcp_header.rst ->
          handshake_ack t lconn seg l
        | Some l when l.l_active && runtime_params.syn_cache && hdr.Tcp_header.rst ->
          (* peer aborted a half-open handshake: forget its cache entry *)
          (match
             syn_cache_find l ~host ~local_port:hdr.Tcp_header.dst_port
               ~remote_port:hdr.Tcp_header.src_port
           with
          | Some e ->
            l.l_syn_cache <- List.filter (fun e' -> e' != e) l.l_syn_cache
          | None -> ());
          t.unknown_dropped <- t.unknown_dropped + 1;
          Packet.release seg.Tcb.data
        | _ ->
          handle_unknown t lconn hdr (Packet.length seg.Tcb.data);
          Packet.release seg.Tcb.data))

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
      if
        Conns.mem t.conns (host, port, remote_port)
        || Hashtbl.mem t.listeners port
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
    if Conns.mem t.conns (peer, local_port, remote_port) then
      raise
        (Connection_failed
           (Printf.sprintf "tcp: %s:%d from port %d already open"
              (Aux.to_string peer) remote_port local_port));
    let lconn = lower_conn_for t peer in
    let mss = max 64 (Aux.mtu lconn - tcp_fixed_header) in
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
    drain conn;
    match Fox_sched.Cond.wait conn.open_mb with
    | Ok () -> conn
    | Error msg ->
      raise (Connection_failed ("tcp open failed: " ^ msg))

  let start_passive t ({ local_port } : pattern) handler =
    if Hashtbl.mem t.listeners local_port then
      raise
        (Connection_failed
           (Printf.sprintf "tcp port %d already has a listener" local_port));
    let l =
      {
        l_tcp = t;
        l_port = local_port;
        l_handler = handler;
        l_active = true;
        l_half_open = 0;
        l_syn_cache = [];
      }
    in
    Hashtbl.replace t.listeners local_port l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hashtbl.remove l.l_tcp.listeners l.l_port

  let send conn packet =
    if conn.dead then raise (Send_failed "tcp connection closed");
    (* flow-control the caller against the send buffer bound *)
    while
      (not conn.dead)
      && conn.tcb.Tcb.queued_bytes >= send_buffer_bytes
    do
      Fox_sched.Cond.wait conn.send_space
    done;
    if conn.dead then raise (Send_failed "tcp connection closed");
    Send.enqueue runtime_params conn.tcb packet
      ~now:(Fox_sched.Scheduler.now ());
    drain conn

  let prepare_send conn = send conn

  let close conn =
    if not conn.dead then begin
      conn.state <-
        State.close runtime_params conn.state ~now:(Fox_sched.Scheduler.now ());
      drain conn
    end

  let close_sync conn =
    close conn;
    if not conn.dead then Fox_sched.Cond.wait conn.close_mb

  let abort conn =
    if not conn.dead then begin
      conn.close_reason <- Some Status.Aborted;
      conn.state <- State.abort runtime_params conn.state;
      drain conn
    end

  let initialize t =
    if t.init_count = 0 then ignore (Lower.initialize t.lower_instance);
    t.init_count <- t.init_count + 1;
    t.init_count

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      Hashtbl.iter (fun _ l -> l.l_active <- false) t.listeners;
      Hashtbl.reset t.listeners;
      let conns = Conns.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter abort conns;
      ignore (Lower.finalize t.lower_instance)
    end;
    t.init_count

  let max_packet_size conn = conn.tcb.Tcb.snd_mss

  let headroom conn = tcp_headroom + Lower.headroom conn.lower

  let tailroom conn = Lower.tailroom conn.lower

  let allocate_send conn len =
    Packet.create ~headroom:(headroom conn) ~tailroom:(tailroom conn) len

  let conn_stats conn =
    let tcb = conn.tcb in
    {
      state = Tcb.state_name conn.state;
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

  let stats t =
    let live f = Conns.fold (fun _ c a -> a + f c.tcb) t.conns 0 in
    {
      segs_in = t.segs_in;
      segs_out = t.segs_out;
      bad_segments = t.bad_segments;
      rsts_sent = t.rsts_sent;
      unknown_dropped = t.unknown_dropped;
      accepts = t.accepts;
      active_conns = Conns.length t.conns;
      wire_send_failures = t.wire_send_failures;
      syn_dropped = t.syn_dropped;
      backlog_refused = t.backlog_refused;
      time_wait_recycled = t.time_wait_recycled;
      to_do_shed = t.to_do_shed;
      challenge_acks_sent =
        t.chall_sent_dead + live (fun tcb -> tcb.Tcb.challenge_acks_sent);
      challenge_acks_limited =
        t.chall_limited_dead + live (fun tcb -> tcb.Tcb.challenge_acks_limited);
      rst_challenges =
        t.chall_rst_dead + live (fun tcb -> tcb.Tcb.rst_challenges);
      syn_challenges =
        t.chall_syn_dead + live (fun tcb -> tcb.Tcb.syn_challenges);
      ack_challenges =
        t.chall_ack_dead + live (fun tcb -> tcb.Tcb.ack_challenges);
      blackhole_shrinks =
        t.blackhole_shrinks_dead + live (fun tcb -> tcb.Tcb.blackhole_shrinks);
      persist_aborts = t.persist_aborts;
      user_timeout_aborts = t.user_timeout_aborts;
      rtx_limit_aborts = t.rtx_limit_aborts;
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
     deterministic builds that pin [isn_secret] never touch the OS. *)
  let entropy_secret () =
    match
      let ic = open_in_bin "/dev/urandom" in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic 16)
    with
    | bytes ->
      let word i =
        let w = ref 0 in
        for j = 7 downto 0 do
          w := (!w lsl 8) lor Char.code bytes.[i + j]
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
    let t =
      {
        lower_instance = lower;
        conns = Conns.create 64;
        listeners = Hashtbl.create 8;
        lower_conns = Hosts.create 8;
        iss_salt = 0;
        isn_k0;
        isn_k1;
        chall_cap = Tcb.fresh_challenge_cap ();
        next_ephemeral = 0;
        init_count = 0;
        segs_in = 0;
        segs_out = 0;
        bad_segments = 0;
        rsts_sent = 0;
        unknown_dropped = 0;
        accepts = 0;
        wire_send_failures = 0;
        syn_dropped = 0;
        backlog_refused = 0;
        time_wait_recycled = 0;
        to_do_shed = 0;
        chall_sent_dead = 0;
        chall_limited_dead = 0;
        chall_rst_dead = 0;
        chall_syn_dead = 0;
        chall_ack_dead = 0;
        blackhole_shrinks_dead = 0;
        persist_aborts = 0;
        user_timeout_aborts = 0;
        rtx_limit_aborts = 0;
        time_wait_q = Queue.create ();
        time_wait_count = 0;
      }
    in
    ignore
      (Lower.start_passive lower
         (Aux.default_pattern ~proto:proto_number)
         (fun lconn -> ((fun packet -> receive t lconn packet), ignore)));
    (* engine-level counters on the bus, alongside the per-connection
       snapshots: this is where the overload policy's refusals show up
       even when the refused connection never existed *)
    Bus.register_stats
      ~id:
        (Printf.sprintf "tcp-engine-%d" (1 + Atomic.fetch_and_add engine_seq 1))
      (fun () ->
        let s = stats t in
        Printf.sprintf
          "engine conns=%d accepts=%d refused=%d syn_dropped=%d \
           tw_recycled=%d shed=%d rsts=%d segs=%d/%d unknown=%d \
           chall=%d/%d(r%d,s%d,a%d)"
          s.active_conns s.accepts s.backlog_refused s.syn_dropped
          s.time_wait_recycled s.to_do_shed s.rsts_sent s.segs_in s.segs_out
          s.unknown_dropped s.challenge_acks_sent s.challenge_acks_limited
          s.rst_challenges s.syn_challenges s.ack_challenges);
    t
end
