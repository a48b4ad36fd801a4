(** The TCP protocol: the functor of Figure 4 and the [Main] module.

    [Make (Lower) (Aux) (Cc) (Params)] assembles the pure state-machine
    modules ({!Tcb}, {!State}, {!Receive}, {!Send}, {!Resend}, {!Action},
    and {!Listen} and {!Tomb} for passive opens and TIME-WAIT) into a
    protocol satisfying the generic signature:

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

  (* Demultiplexing keys on Figure 5's host identity, [Aux.hash] and
     [Aux.equal], so TCP never formats an address to find a connection.
     [Conns] is keyed on (host, local port, remote port), and so are the
     tombstone table and each listener's SYN cache.  A segment is looked
     up through the engine's own [probe] key, refilled per segment, so
     the lookup allocates nothing. *)
  module Host = struct include Aux type t = host end
  module Hosts = Hashtbl.Make (Host)
  module Tombs = Tomb.Make (Host)
  module Passive = Listen.Make (Host)

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
    wake : unit Fox_sched.Cond.t;
        (** the one wait point of [connect], [send] and [close_sync]:
            broadcast when the open completes, the close completes, the
            connection goes down, or send-buffer space frees up; each
            waiter re-checks its own condition *)
    mutable open_done : bool;
    mutable close_reason : Status.t option;
    mutable dead : bool;
        (** the engine holds the connection no more: deleted, or parked
            as [tomb] *)
    mutable tomb : tombstone option;
        (** the tombstone that replaced the connection in TIME-WAIT *)
    mutable half_open_of : Passive.t option;
        (** the listener whose backlog this (legacy-mode) half-open
            connection occupies, until established or deleted *)
  }

  and listener = {
    l_tcp : t;
    l_port : int;
    l_handler : handler;
    mutable l_active : bool;
    l_passive : Passive.t;  (** its half-open handshakes *)
  }

  and handler = connection -> data_handler * status_handler

  (* A connection parked in TIME-WAIT: the 4-tuple, what its segments
     still need, the 2·MSL timer and the final status upcall. *)
  and tombstone = Tombs.tomb

  and t = {
    lower_instance : Lower.t;
    conns : connection Conns.t;
    mutable probe : Key.t option;
        (** the lookup key, made from the first connection's *)
    listeners : listener Hash.Ints.t;
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
    (* challenge counters of deleted and parked connections, folded in at
       teardown, and the tombstones' own: [stats] keeps seeing an attack
       that killed (or outlived) its TCBs *)
    dead_challenges : Tcb.challenge_tally;
    (* blackhole counters of deleted connections, same fold *)
    mutable blackhole_shrinks_dead : int;
    (* abort counters by kind (the connection is gone by definition) *)
    mutable persist_aborts : int;
    mutable user_timeout_aborts : int;
    mutable rtx_limit_aborts : int;
    mutable keepalive_aborts : int;
    tombs : Tombs.t;
  }

  let endpoints conn = (conn.host, conn.local_port, conn.remote_port)

  let key_of conn =
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

  let known t host local_port remote_port =
    match find t host local_port remote_port with
    | _ -> true
    | exception Not_found -> false

  (* the flight recorder's connection id *)
  let conn_id host local_port remote_port =
    Printf.sprintf "%s:%d>%d" (Aux.to_string host) local_port remote_port

  (* ---------------- connection and engine state ---------------- *)

  (* A handle the application kept reads TIME-WAIT while its tombstone is
     parked, and CLOSED once it is gone. *)
  let state_of conn =
    match conn.tomb with
    | Some tw when not (Tombs.parked conn.tcp.tombs tw) -> "CLOSED"
    | _ -> Tcb.state_name conn.state

  let snapshot conn =
    Stats.of_tcb ~conn_id:conn.tcb.Tcb.obs_id ~state:(state_of conn)
      ~now:(Bus.now ()) conn.tcb

  let snapshots t =
    let now = Bus.now () in
    let tomb_rows =
      List.map
        (fun (tw : tombstone) ->
          Stats.of_time_wait
            ~conn_id:(conn_id tw.host tw.local_port tw.remote_port)
            ~now ~rcv_wnd:runtime_params.initial_window
            ~cc_name tw)
        (Tombs.to_list t.tombs)
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

  (* ---------------- externalisation ---------------- *)

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

  (* The MSS we offer on [lconn]'s path. *)
  let path_mss lconn = Int.max 64 (Aux.mtu lconn - tcp_fixed_header)

  (* Put one segment on [lconn] through [send].  The lower layer may
     refuse it ([Send_failed]: an injected fault, a torn-down session):
     the refusal is counted and is otherwise a loss on the wire — a TCB's
     segment is on its retransmission queue, and an unsent reply from no
     TCB is no worse than a lost one. *)
  let put t lconn ~send hdr data =
    try
      Action.externalize ~defer:true ~pseudo_for:(pseudo lconn) ~hdr ~data
        ~allocate:(allocate lconn) ~send ()
    with Send_failed _ -> t.wire_send_failures <- t.wire_send_failures + 1

  (* A segment without text, sent on [lconn] from outside any
     connection: an RST, a stateless SYN-ACK, a tombstone's reply.  One
     segment is not worth a stage of its own: the unstaged [send] reuses
     the one the lower connection keeps. *)
  let send_bare t lconn hdr = put t lconn ~send:(Lower.send lconn) hdr None

  (* An RST answering [hdr], which came from no connection; it counts in
     [segs_out] as every segment the engine sends does. *)
  let reset_for t lconn (hdr : Tcp_header.t) ~seq ~ack_opt =
    t.segs_out <- t.segs_out + 1;
    t.rsts_sent <- t.rsts_sent + 1;
    send_bare t lconn
      { (Tcp_header.basic ~src_port:hdr.dst_port ~dst_port:hdr.src_port) with
        Tcp_header.seq;
        rst = true;
        ack_flag = ack_opt <> None;
        ack = (match ack_opt with Some a -> a | None -> Seq.zero);
      }

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
    put conn.tcp conn.lower ~send:conn.lower_send hdr ss.Tcb.out_data

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
    put conn.tcp conn.lower ~send:conn.lower_send hdr None

  (* ---------------- flight recorder ---------------- *)

  let flags_of (ss : Tcb.send_segment) =
    let b = Buffer.create 4 in
    if ss.Tcb.out_syn then Buffer.add_char b 'S';
    if ss.Tcb.out_fin then Buffer.add_char b 'F';
    if ss.Tcb.out_rst then Buffer.add_char b 'R';
    if ss.Tcb.out_psh then Buffer.add_char b 'P';
    if ss.Tcb.out_ack then Buffer.add_char b 'A';
    Buffer.contents b

  (* Report one executed action to the bus with [emit]; [backoff] is the
     connection's, for a retransmission. *)
  let report emit ~backoff action =
    match action with
    | Tcb.Send_segment ss ->
      let len =
        match ss.Tcb.out_data with Some p -> Packet.length p | None -> 0
      in
      if ss.Tcb.out_is_rtx then
        emit (Bus.Retransmit { seq = Seq.to_int ss.Tcb.out_seq; len; backoff })
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
      ()

  (* Report one executed action of a connection.  Runs from the drain
     loop right after [execute] — the same seam as {!Check_hook} — so the
     event order {e is} the deterministic to_do execution order. *)
  let observe conn before action =
    let tcb = conn.tcb in
    let emit kind = Bus.emit ~layer:"tcp" ~conn:tcb.Tcb.obs_id kind in
    report emit ~backoff:tcb.Tcb.backoff action;
    let before_name = Tcb.state_name before in
    let after_name = Tcb.state_name conn.state in
    if before_name <> after_name then
      emit (Bus.State { from_ = before_name; to_ = after_name })

  (* ---------------- tombstones ---------------- *)

  (* a tombstone's timer until its own, whose handler needs the
     tombstone, exists; never armed *)
  let no_timer = Fox_sched.Timer.create ignore

  let tomb_emit (tw : tombstone) kind =
    Bus.emit ~layer:"tcp" ~conn:(conn_id tw.host tw.local_port tw.remote_port)
      kind

  (* The tombstone goes: out of the table, its timer cleared, and the
     final status upcall delivered — the events a TCB's [Delete_tcb]
     produced. *)
  let bury t (tw : tombstone) reason =
    if Tombs.parked t.tombs tw then begin
      Tombs.remove t.tombs tw;
      Fox_sched.Timer.clear tw.timer;
      if !Bus.live then
        tomb_emit tw (Bus.Note ("deleted: " ^ Status.to_string reason));
      tw.upcall reason
    end

  (* 2·MSL is over: the events the TCB's expiry produced, then the
     upcall. *)
  let expire t tw =
    if !Bus.live then begin
      tomb_emit tw
        (Bus.Timer
           { timer = Tcb.timer_kind_name Tcb.Time_wait; what = Bus.Expired });
      tomb_emit tw (Bus.State { from_ = "TIME-WAIT"; to_ = "CLOSED" })
    end;
    bury t tw Status.Closed

  (* Over the [max_time_wait] bound, the oldest tombstone is recycled:
     its 2·MSL is cut short, the documented trade for surviving port
     churn under load. *)
  let rec recycle t =
    if
      runtime_params.max_time_wait > 0
      && Tombs.count t.tombs > runtime_params.max_time_wait
    then
      match Tombs.oldest t.tombs with
      | Some oldest ->
        t.time_wait_recycled <- t.time_wait_recycled + 1;
        if !Bus.live then tomb_emit oldest (Bus.Note "time-wait recycled");
        bury t oldest Status.Closed;
        recycle t
      | None -> ()

  (* A tombstone's reply, built as [send_pure_ack] and [externalize]
     build a TCB's: an ACK, or an RST without one, at [snd_nxt]. *)
  let tomb_send t (tw : tombstone) lconn ~rst =
    t.segs_out <- t.segs_out + 1;
    if rst then t.rsts_sent <- t.rsts_sent + 1;
    send_bare t lconn
      { (Tcp_header.basic ~src_port:tw.local_port ~dst_port:tw.remote_port) with
        Tcp_header.seq = tw.tw_snd_nxt;
        ack = (if rst then Seq.zero else tw.tw_rcv_nxt);
        ack_flag = not rst;
        rst;
        window = runtime_params.initial_window;
      }

  (* A segment for a parked 4-tuple: the actions {!Receive.time_wait}
     returns, run and reported as the executor runs a TCB's. *)
  let tomb_receive t (tw : tombstone) lconn seg =
    let actions =
      Receive.time_wait runtime_params ~cap:t.chall_cap ~tally:t.dead_challenges
        tw seg ~now:(Fox_sched.Scheduler.now ())
    in
    if
      !Bus.live
      && List.exists (function Tcb.Delete_tcb -> true | _ -> false) actions
    then
      tomb_emit tw (Bus.State { from_ = "TIME-WAIT"; to_ = "CLOSED" });
    List.iter
      (fun action ->
        (match action with
        | Tcb.Send_ack -> tomb_send t tw lconn ~rst:false
        | Tcb.Send_segment _ -> tomb_send t tw lconn ~rst:true
        | Tcb.Set_timer (_, us) -> Fox_sched.Timer.set tw.timer us
        | Tcb.Delete_tcb -> bury t tw Status.Reset
        | _ -> ());
        if !Bus.live then report (tomb_emit tw) ~backoff:0 action)
      actions

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

  let rec set_timer conn kind ~now us =
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
    Fox_sched.Timer.set_at timer ~now us

  (* ---------------- teardown ---------------- *)

  (* The engine lets go of the connection: out of the table, its timers
     cleared, its challenge counters folded into the engine's, and its
     buffers released.  The application's handle keeps the rest. *)
  and retire conn =
    let t = conn.tcp and tcb = conn.tcb in
    conn.dead <- true;
    leave_half_open conn;
    Array.iter (Option.iter Fox_sched.Timer.clear) conn.timers;
    Conns.remove t.conns (key_of conn);
    let d = t.dead_challenges in
    d.tally_sent <- d.tally_sent + tcb.Tcb.challenge_acks_sent;
    d.tally_limited <- d.tally_limited + tcb.Tcb.challenge_acks_limited;
    d.tally_rst <- d.tally_rst + tcb.Tcb.rst_challenges;
    d.tally_syn <- d.tally_syn + tcb.Tcb.syn_challenges;
    d.tally_ack <- d.tally_ack + tcb.Tcb.ack_challenges;
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
    tcb.Tcb.ooo_bytes <- 0

  and delete_tcb conn =
    if not conn.dead then begin
      retire conn;
      let reason = Option.value conn.close_reason ~default:Status.Closed in
      if !Bus.live then
        Bus.emit ~layer:"tcp" ~conn:conn.tcb.Tcb.obs_id
          (Bus.Note ("deleted: " ^ Status.to_string reason));
      finish conn reason
    end

  (* The connection is down: wake whoever waits on it, then the final
     status upcall. *)
  and finish conn reason =
    Fox_sched.Cond.broadcast conn.wake ();
    conn.status reason

  (* A (legacy-mode) half-open connection stops occupying its listener's
     backlog slot: it established, or it died. *)
  and leave_half_open conn =
    match conn.half_open_of with
    | Some l ->
      conn.half_open_of <- None;
      Passive.leave l
    | None -> ()

  (* The connection just reached TIME-WAIT (detected at the post-execute
     seam of [drain]): a tombstone takes its place in the engine, and the
     engine retires the connection.  What is left on [to_do] still runs
     (the ACK of the peer's FIN; the 2·MSL [Set_timer], which arms the
     tombstone's timer).  The tombstone's upcall is the application's
     status handler alone: a thread waiting on the connection is woken at
     this seam (the send buffer is now empty), and only [close_sync] waits
     on past it, pointing the upcall at [finish]. *)
  and park conn =
    let t = conn.tcp in
    let tw =
      Tcb.time_wait_of conn.tcb ~host:conn.host ~local_port:conn.local_port
        ~remote_port:conn.remote_port ~arrival:(Tombs.arrive t.tombs)
        ~timer:no_timer
        ~upcall:conn.status
    in
    tw.timer <- Fox_sched.Timer.create (fun () -> expire t tw);
    conn.tomb <- Some tw;
    retire conn;
    Tombs.add t.tombs tw;
    recycle t

  (* ---------------- the quasi-synchronous executor ---------------- *)

  (* The clock is read once per action, by the arms that need it: an
     action that sends may sleep in a metered host's [Cpu.charge], so the
     next action reads it again. *)
  and execute conn action =
    let tcb = conn.tcb in
    match action with
    | Tcb.Process_data seg when conn.dead -> (
      (* queued behind the segment that ended in TIME-WAIT: the
         tombstone's, if it is still parked *)
      match conn.tomb with
      | Some tw when Tombs.parked conn.tcp.tombs tw ->
        tomb_receive conn.tcp tw conn.lower seg
      | _ -> Packet.release seg.Tcb.data)
    | Tcb.Process_data seg ->
      let now = Fox_sched.Scheduler.now () in
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
    | Tcb.Send_segment ss -> externalize conn ss
    | Tcb.Send_ack -> send_pure_ack conn
    | Tcb.Set_timer (kind, us) -> (
      match conn.tomb with
      | None -> set_timer conn kind ~now:(Fox_sched.Scheduler.now ()) us
      | Some tw ->
        (* the 2·MSL that entering TIME-WAIT asks for is the tombstone's *)
        if kind = Tcb.Time_wait && Tombs.parked conn.tcp.tombs tw then
          Fox_sched.Timer.set tw.timer us)
    | Tcb.Clear_timer kind -> clear_timer conn kind
    | Tcb.Timer_expired _ when conn.dead -> ()
    | Tcb.Timer_expired kind ->
      conn.state <-
        State.timer_expired runtime_params conn.state kind
          ~now:(Fox_sched.Scheduler.now ())
    | Tcb.Complete_open ->
      leave_half_open conn;
      if not conn.open_done then begin
        conn.open_done <- true;
        if runtime_params.keepalive_us > 0 then begin
          let now = Fox_sched.Scheduler.now () in
          tcb.Tcb.last_activity <- now;
          set_timer conn Tcb.Keepalive ~now runtime_params.keepalive_us
        end;
        Fox_sched.Cond.broadcast conn.wake ();
        conn.status Status.Connected
      end
    | Tcb.Complete_close -> Fox_sched.Cond.broadcast conn.wake ()
    | Tcb.Peer_close -> conn.status Status.Remote_close
    | Tcb.Peer_reset -> conn.close_reason <- Some Status.Reset
    | Tcb.User_error msg ->
      if conn.close_reason = None then conn.close_reason <- Some Status.Timed_out;
      (* per-kind abort accounting, keyed on the [State.give_up] reason *)
      let t = conn.tcp in
      if msg = State.persist_reason then
        t.persist_aborts <- t.persist_aborts + 1
      else if msg = State.user_timeout_reason then
        t.user_timeout_aborts <- t.user_timeout_aborts + 1
      else if msg = State.rtx_limit_reason then
        t.rtx_limit_aborts <- t.rtx_limit_aborts + 1
      else if msg = State.keepalive_reason then
        t.keepalive_aborts <- t.keepalive_aborts + 1
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
    if Tcb.has_to_do conn.tcb then begin
      let action = Tcb.next_to_do conn.tcb in
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
         tombstone table sees every arrival exactly once *)
      (match conn.state with
      | Tcb.Time_wait _ when not conn.dead -> park conn
      | _ -> ());
      (* wake senders blocked on the buffer bound *)
      if
        conn.tcb.Tcb.queued_bytes < send_buffer_bytes
        && Fox_sched.Cond.waiters conn.wake > 0
      then Fox_sched.Cond.broadcast conn.wake ();
      run_to_do conn
    end

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
        wake = Fox_sched.Cond.create ();
        open_done = false;
        close_reason = None;
        dead = false;
        tomb = None;
        half_open_of = None;
      }
    in
    tcb.Tcb.obs_id <- conn_id host local_port remote_port;
    (* every connection of this engine draws on the same engine-wide
       challenge-ACK cap (its private budget is already in the TCB) *)
    tcb.Tcb.chall_cap <- t.chall_cap;
    if Option.is_none t.probe then t.probe <- Some (key_of conn);
    Conns.replace t.conns (key_of conn) conn;
    if !Bus.live then
      Bus.emit ~layer:"tcp" ~conn:tcb.Tcb.obs_id
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
         reset_for t lconn hdr ~seq:hdr.Tcp_header.ack ~ack_opt:None
       else
         reset_for t lconn hdr ~seq:Seq.zero
           ~ack_opt:
             (Some
                (Seq.add hdr.Tcp_header.seq
                   (Packet.length seg.Tcb.data
                   + (if hdr.Tcp_header.syn then 1 else 0)
                   + if hdr.Tcp_header.fin then 1 else 0)))
     end
     else t.unknown_dropped <- t.unknown_dropped + 1);
    Packet.release seg.Tcb.data

  (* Global admission check: the engine refuses new connections (not new
     segments) once [max_connections] TCBs are live. *)
  let under_conn_cap t =
    runtime_params.max_connections = 0
    || Conns.length t.conns + Tombs.count t.tombs
       < runtime_params.max_connections

  (* A passive open becomes a connection with the listener's handler. *)
  let accept t lconn ~host (hdr : Tcp_header.t) listener state =
    t.accepts <- t.accepts + 1;
    install_connection t ~host
      ~local_port:hdr.Tcp_header.dst_port ~remote_port:hdr.Tcp_header.src_port
      ~lower:lconn ~state listener.l_handler

  (* A segment for a port we listen on and no connection we know: the
     decision {!Listen} takes, carried out.  Its buffer is released unless
     it goes on to a new TCB. *)
  let passive t lconn ~host (seg : Tcb.segment) listener ~now =
    let hdr = seg.Tcb.hdr in
    match
      Passive.segment listener.l_passive host hdr ~now
        ~room:(under_conn_cap t) ~mss:path_mss lconn
    with
    | Listen.Syn_ack { iss; irs } ->
      (* no TCB behind it, so no retransmission either: the client's SYN
         retransmit re-elicits it *)
      t.segs_out <- t.segs_out + 1;
      send_bare t lconn
        { (Tcp_header.basic ~src_port:hdr.Tcp_header.dst_port
             ~dst_port:hdr.Tcp_header.src_port)
          with
          Tcp_header.seq = iss;
          syn = true;
          ack_flag = true;
          ack = Seq.add irs 1;
          window = runtime_params.initial_window;
          mss = Some (path_mss lconn);
        };
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
      drain conn
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
      drain conn
    | Listen.Refuse reason ->
      (* an RST gives the client a fast failure; a silent drop makes its
         SYN retransmission the retry that may find room once the flood
         clears *)
      t.backlog_refused <- t.backlog_refused + 1;
      if !Bus.live then
        Bus.emit ~layer:"tcp" (Bus.Note ("syn refused: " ^ reason));
      if runtime_params.refuse_with_rst then
        reset_for t lconn hdr ~seq:Seq.zero
          ~ack_opt:(Some (Seq.add hdr.Tcp_header.seq 1))
      else t.syn_dropped <- t.syn_dropped + 1;
      Packet.release seg.Tcb.data
    | Listen.Unknown -> unknown t lconn seg
    | Listen.Drop ->
      t.unknown_dropped <- t.unknown_dropped + 1;
      Packet.release seg.Tcb.data

  let receive t lconn packet =
    let now = Fox_sched.Scheduler.now () in
    let pseudo = pseudo lconn (Packet.length packet) in
    match Action.internalize ~pseudo packet ~now with
    | Error _ ->
      t.bad_segments <- t.bad_segments + 1;
      Packet.release packet
    | Ok seg -> (
      t.segs_in <- t.segs_in + 1;
      let hdr = seg.Tcb.hdr in
      let host = Aux.source lconn in
      match find t host hdr.Tcp_header.dst_port hdr.Tcp_header.src_port with
      | conn when not conn.dead ->
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
      | _ | (exception Not_found) -> (
        let local_port = hdr.Tcp_header.dst_port in
        match Tombs.find t.tombs host local_port hdr.Tcp_header.src_port with
        | Some tw -> tomb_receive t tw lconn seg
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
      if
        known t host port remote_port
        || Option.is_some (Tombs.find t.tombs host port remote_port)
        || Hash.Ints.mem t.listeners port
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
    if
      known t peer local_port remote_port
      || Option.is_some (Tombs.find t.tombs peer local_port remote_port)
    then
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
    drain conn;
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
          Passive.create runtime_params ~secret:(t.isn_k0, t.isn_k1)
            ~iss:(fresh_iss t);
      }
    in
    Hash.Ints.replace t.listeners local_port l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hash.Ints.remove l.l_tcp.listeners l.l_port

  let send conn packet =
    if conn.dead then raise (Send_failed "tcp connection closed");
    (* flow-control the caller against the send buffer bound *)
    while
      (not conn.dead)
      && conn.tcb.Tcb.queued_bytes >= send_buffer_bytes
    do
      Fox_sched.Cond.wait conn.wake
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

  (* Returns once the connection is deleted, or once its tombstone is no
     longer parked: a connection that enters TIME-WAIT while we wait is
     dead but not yet closed. *)
  let close_sync conn =
    close conn;
    let rec await () =
      match conn.tomb with
      | Some tw when Tombs.parked conn.tcp.tombs tw ->
        (* the tombstone's upcall must wake us at 2·MSL *)
        tw.upcall <- finish conn;
        Fox_sched.Cond.wait conn.wake;
        await ()
      | _ ->
        if not conn.dead then begin
          Fox_sched.Cond.wait conn.wake;
          await ()
        end
    in
    await ()

  let abort conn =
    match conn.tomb with
    | Some tw -> bury conn.tcp tw Status.Aborted
    | None ->
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
      Hash.Ints.iter (fun _ l -> l.l_active <- false) t.listeners;
      Hash.Ints.reset t.listeners;
      let conns = Conns.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter abort conns;
      List.iter (fun tw -> bury t tw Status.Aborted) (Tombs.to_list t.tombs);
      ignore (Lower.finalize t.lower_instance)
    end;
    t.init_count

  let max_packet_size conn = conn.tcb.Tcb.snd_mss

  let headroom conn = tcp_headroom + Lower.headroom conn.lower

  let tailroom conn = Lower.tailroom conn.lower

  let allocate_send conn len = allocate conn.lower len

  let conn_stats conn =
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

  let stats t =
    let live f = Conns.fold (fun _ c a -> a + f c.tcb) t.conns 0 in
    let d = t.dead_challenges in
    {
      segs_in = t.segs_in;
      segs_out = t.segs_out;
      bad_segments = t.bad_segments;
      rsts_sent = t.rsts_sent;
      unknown_dropped = t.unknown_dropped;
      accepts = t.accepts;
      active_conns = Conns.length t.conns + Tombs.count t.tombs;
      wire_send_failures = t.wire_send_failures;
      syn_dropped = t.syn_dropped;
      backlog_refused = t.backlog_refused;
      time_wait_recycled = t.time_wait_recycled;
      to_do_shed = t.to_do_shed;
      challenge_acks_sent =
        d.tally_sent + live (fun tcb -> tcb.Tcb.challenge_acks_sent);
      challenge_acks_limited =
        d.tally_limited + live (fun tcb -> tcb.Tcb.challenge_acks_limited);
      rst_challenges = d.tally_rst + live (fun tcb -> tcb.Tcb.rst_challenges);
      syn_challenges = d.tally_syn + live (fun tcb -> tcb.Tcb.syn_challenges);
      ack_challenges = d.tally_ack + live (fun tcb -> tcb.Tcb.ack_challenges);
      blackhole_shrinks =
        t.blackhole_shrinks_dead + live (fun tcb -> tcb.Tcb.blackhole_shrinks);
      persist_aborts = t.persist_aborts;
      user_timeout_aborts = t.user_timeout_aborts;
      rtx_limit_aborts = t.rtx_limit_aborts;
      keepalive_aborts = t.keepalive_aborts;
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
    let t =
      {
        lower_instance = lower;
        conns = Conns.create 64;
        probe = None;
        listeners = Hash.Ints.create 8;
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
        dead_challenges = Tcb.fresh_challenge_tally ();
        blackhole_shrinks_dead = 0;
        persist_aborts = 0;
        user_timeout_aborts = 0;
        rtx_limit_aborts = 0;
        keepalive_aborts = 0;
        tombs = Tombs.create ();
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
