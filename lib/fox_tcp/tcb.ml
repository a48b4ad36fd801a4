(** Transmission Control Blocks and TCP actions.

    This is the paper's [Tcb] module (Figure 6): it defines the types with
    which connection state is represented and basic operations on them, and
    it is deliberately {e all data} — the state machine lives in {!State},
    {!Receive}, {!Send} and {!Resend}, which makes each of them a function
    from TCB to TCB that can be tested in isolation against the standard.

    The central design decision (Section 4) is the [to_do] queue: timer
    expirations and message receptions are asynchronous, but when they
    occur they are {e synchronised} by placing a corresponding
    {!tcp_action} on the connection's queue.  Once actions are on the
    queue, behaviour is completely deterministic — the control structure is
    "quasi-synchronous". *)

open Fox_basis

(** The timers a connection may run (executed by the engine through
    {!Fox_sched.Timer}, exactly the Figure 11 mechanism). *)
type timer_kind =
  | Retransmit
  | Delayed_ack
  | Time_wait  (** the 2·MSL quiet period *)
  | User_timeout  (** the paper's [user_timeout] functor parameter *)
  | Window_probe  (** zero-window probing *)
  | Keepalive  (** RFC 1122 §4.2.3.6 idle-connection probing *)
  | Pacing  (** inter-segment gap requested by the congestion module *)

(** Every timer kind, in {!timer_index} order. *)
let timer_kinds =
  [ Retransmit; Delayed_ack; Time_wait; User_timeout; Window_probe; Keepalive;
    Pacing ]

(** [timer_index k] is [k]'s position in {!timer_kinds}: an engine keeps
    one timer per kind in an array indexed by it. *)
let timer_index = function
  | Retransmit -> 0
  | Delayed_ack -> 1
  | Time_wait -> 2
  | User_timeout -> 3
  | Window_probe -> 4
  | Keepalive -> 5
  | Pacing -> 6

let timer_kind_name = function
  | Retransmit -> "retransmit"
  | Delayed_ack -> "delayed-ack"
  | Time_wait -> "time-wait"
  | User_timeout -> "user-timeout"
  | Window_probe -> "window-probe"
  | Keepalive -> "keepalive"
  | Pacing -> "pacing"

(** An internalised incoming segment: decoded header plus text. *)
type segment = {
  hdr : Tcp_header.t;
  data : Packet.t;
  arrived_at : int;  (** virtual time of internalisation *)
}

(** [seg_len s] is the sequence space the segment occupies (SYN and FIN
    each count for one). *)
let seg_len s =
  Packet.length s.data
  + (if s.hdr.Tcp_header.syn then 1 else 0)
  + if s.hdr.Tcp_header.fin then 1 else 0

(** An outgoing segment, produced by the state machine and externalised by
    the engine (which fills in the current ACK and window at send time). *)
type send_segment = {
  out_seq : Seq.t;
  out_syn : bool;
  out_fin : bool;
  out_rst : bool;
  out_psh : bool;
  out_ack : bool;  (** carry an ACK (everything after the first SYN does) *)
  out_data : Packet.t option;
  out_mss : int option;  (** announce our MSS (SYN segments) *)
  out_is_rtx : bool;
}

(** The actions that may appear on a connection's [to_do] queue
    (Figure 8). *)
type tcp_action =
  | Process_data of segment  (** run the receive DAG on a segment *)
  | User_data of Packet.t  (** deliver text to the user's handler *)
  | Send_segment of send_segment  (** externalise and transmit *)
  | Send_ack  (** transmit a pure ACK at the current [rcv_nxt] *)
  | Set_timer of timer_kind * int  (** arm (µs) *)
  | Clear_timer of timer_kind
  | Timer_expired of timer_kind  (** queued by the engine's timer threads *)
  | Complete_open  (** unblock the opener; report Connected *)
  | Complete_close  (** the close handshake finished *)
  | Peer_close  (** the peer's FIN was consumed (EOF) *)
  | Peer_reset  (** the peer reset the connection *)
  | User_error of string
  | Delete_tcb  (** remove the connection; free everything *)

let action_name = function
  | Process_data _ -> "process-data"
  | User_data _ -> "user-data"
  | Send_segment _ -> "send-segment"
  | Send_ack -> "send-ack"
  | Set_timer (k, _) -> "set-timer:" ^ timer_kind_name k
  | Clear_timer k -> "clear-timer:" ^ timer_kind_name k
  | Timer_expired k -> "timer-expired:" ^ timer_kind_name k
  | Complete_open -> "complete-open"
  | Complete_close -> "complete-close"
  | Peer_close -> "peer-close"
  | Peer_reset -> "peer-reset"
  | User_error _ -> "user-error"
  | Delete_tcb -> "delete-tcb"

(** One entry on the retransmission queue. *)
type rtx_entry = {
  rtx_seq : Seq.t;
  rtx_len : int;  (** sequence space, SYN/FIN included *)
  rtx_syn : bool;
  rtx_fin : bool;
  rtx_ack : bool;  (** carries an ACK (everything but the first SYN) *)
  rtx_data : Packet.t option;
  rtx_mss : int option;
  mutable first_sent_at : int;
  mutable sent_count : int;
}

(** Fills the empty cells of a retransmission ring; never queued. *)
let rtx_placeholder =
  {
    rtx_seq = Seq.zero;
    rtx_len = 0;
    rtx_syn = false;
    rtx_fin = false;
    rtx_ack = false;
    rtx_data = None;
    rtx_mss = None;
    first_sent_at = 0;
    sent_count = 0;
  }

(** TCP's settings: the functor parameters of [Tcp] in the paper
    (Figure 4).  This record is the one declaration and the one default of
    every setting — {!Tcp.Make} takes it as its [PARAMS] argument, each
    configuration being its own functor application, and keeping it a
    plain record lets the pure state-machine modules be exercised
    directly in unit tests.  DESIGN §4 lists which harness or test sets
    each field away from its default. *)
type params = {
  initial_window : int;  (** receive window we advertise *)
  compute_checksums : bool;
      (** compute and verify the TCP checksum (Figure 3's
          [do_checksums]) *)
  abort_unknown_connections : bool;
      (** answer segments for unknown connections with RST.  The paper
          sets this false to coexist with a host OS's own TCP; the
          simulator sets it true *)
  nagle : bool;  (** coalesce small segments while data is in flight *)
  delayed_ack_us : int;  (** 0 = acknowledge immediately *)
  rto_initial_us : int;
  rto_min_us : int;
  rto_max_us : int;
  time_wait_us : int;  (** 2·MSL *)
  user_timeout_us : int;
      (** the paper's [user_timeout]: µs before hung operations fail;
          0 = no user timeout *)
  prioritize_latency : bool;
      (** the paper's suggested extension: "by replacing the current FIFO
          with a priority queue, we could specify that particular actions,
          e.g., actions which affect the packet latency, be executed with
          higher priority" — when set, transmissions jump the queue *)
  keepalive_us : int;
      (** probe a connection idle this long (RFC 1122 §4.2.3.6); 0 = off *)
  keepalive_probes : int;  (** unanswered probes before giving up *)
  header_prediction : bool;
      (** Van Jacobson header prediction: a guarded fast path for in-order,
          no-flags segments in ESTABLISHED that bypasses the general
          receive DAG (falls back to it on any mismatch).  Off, every
          segment takes the full DAG — the ablation baseline *)
  (* --- overload policy: what the engine does when offered more
     connection attempts, reassembly data or work than it can hold.  Every
     refusal is counted (and reported on the observability bus) --- *)
  listen_backlog : int;
      (** maximum half-open (SYN-RECEIVED) connections per listener;
          0 = unbounded *)
  syn_cache : bool;
      (** hold half-open connections as compact cache records instead of
          full TCBs; the TCB is only built when the handshake ACK arrives,
          so a SYN flood pins a few dozen bytes per forged source *)
  syn_cookies : bool;
      (** when the SYN cache is full, fall back to stateless SYN cookies:
          the SYN-ACK's sequence number encodes a keyed hash of the
          endpoints (and the peer's MSS class), so a legitimate handshake
          ACK is promoted with no state held during the flood.  Requires
          [syn_cache] *)
  refuse_with_rst : bool;
      (** refuse surplus SYNs with an RST (fast client failure) instead of
          dropping them silently (the client retries while the flood
          clears) *)
  max_ooo_bytes : int;
      (** cap on buffered out-of-order text per connection; when an
          insertion would exceed it, the entries furthest from [rcv_nxt]
          are trimmed (and re-earned by retransmission).  0 = unbounded *)
  max_to_do : int;
      (** per-connection cap on the [to_do] queue: segments arriving when
          this many actions are already queued are shed at the door.
          0 = off *)
  max_connections : int;
      (** global cap on simultaneously live TCBs accepted passively;
          active opens are the user's own choice and are not gated.
          0 = unbounded *)
  max_time_wait : int;
      (** bound on the connections parked in TIME-WAIT (as tombstones);
          beyond it the oldest is recycled early (its 2·MSL cut short),
          RFC 793 purity traded for survival.  0 = unbounded *)
  (* --- hostile-wire policy --- *)
  rfc5961 : bool;
      (** blind-attack defenses on synchronized connections (RFC 5961):
          tear down only on an exact-[rcv_nxt] RST, answer merely-in-window
          RSTs and SYNs with a rate-limited challenge ACK, and drop ACKs
          outside [snd_una - max_snd_wnd, snd_nxt].  Off restores the
          RFC 793 rules the paper implemented. *)
  challenge_ack_conn_limit : int;
      (** per-connection challenge-ACK budget per virtual second.  The
          budget is checked per connection {e first} so that one hostile
          flow cannot drain a shared counter and silence the challenges
          of every other connection — the CVE-2016-5696 lesson: a shared
          exhaustible counter is itself an off-path side channel.
          0 = unlimited *)
  secure_isn : bool;
      (** RFC 6528 initial sequence numbers: ISN = M + F(4-tuple, secret)
          where M is the RFC 793 4 µs clock and F a keyed PRF, so observing
          one connection's ISN predicts nothing about another's.  Off
          restores the legacy clock+salt scheme (predictable from a single
          observed ISN) for harnesses with digests pinned against it *)
  isn_secret : (int * int) option;
      (** the PRF key for [secure_isn].  [None] draws a boot secret from
          the OS entropy pool per engine; deterministic harnesses pin a
          constant so runs reproduce bit-for-bit *)
  (* --- hostile-path policy: graceful degradation when the path itself
     misbehaves.  All off by default — the historical engine
     behaviour --- *)
  blackhole_detect : bool;
      (** RFC 4821-style packetization-layer blackhole detection: after
          3 consecutive RTOs of a full-MSS segment, halve the effective
          send MSS (never below 536) and re-segment the retransmission
          queue — recovering from paths that silently eat large frames
          (PMTUD failure); see {!Resend} *)
  persist_max_probes : int;
      (** bound on the zero-window persist lifetime: abort the
          connection after this many unanswered window probes.
          0 = unbounded (the historical behaviour, where only the
          probe's own retransmission limit applies) *)
  user_timeout_stalled : bool;
      (** RFC 5482-shaped user timeout: instead of aborting whenever
          data is merely outstanding at expiry, abort only when
          retransmission has made no forward progress for a full
          [user_timeout_us] window.  Off restores the stricter
          historical semantics. *)
  cc : (module Congestion.S);
      (** the congestion-control algorithm; every cwnd/ssthresh decision
          is delegated to it (see {!Congestion} and DESIGN §12).
          {!Tcp.Make} overrides it with its [Cc] argument *)
}

let default_params =
  {
    initial_window = 4096;
    compute_checksums = true;
    abort_unknown_connections = true;
    nagle = true;
    delayed_ack_us = 200_000;
    rto_initial_us = 1_000_000;
    rto_min_us = 200_000;
    rto_max_us = 64_000_000;
    time_wait_us = 60_000_000;
    user_timeout_us = 0;
    prioritize_latency = false;
    keepalive_us = 0;
    keepalive_probes = 5;
    header_prediction = true;
    listen_backlog = 128;
    syn_cache = false;
    syn_cookies = false;
    refuse_with_rst = false;
    max_ooo_bytes = 65536;
    max_to_do = 1024;
    max_connections = 0;
    max_time_wait = 0;
    rfc5961 = true;
    challenge_ack_conn_limit = 10;
    secure_isn = true;
    isn_secret = None;
    blackhole_detect = false;
    persist_max_probes = 0;
    user_timeout_stalled = false;
    cc = (module Congestion.Reno);
  }

(** The engine-level challenge-ACK cap: one record per engine, shared by
    every connection the engine owns (stored into each TCB when the
    connection is installed).  Standalone TCBs built by {!create_tcb} get
    a private one, so the pure state machine stays usable without an
    engine.  The record is mutated without synchronisation — an engine,
    and therefore every TCB it owns, lives on a single domain. *)
type challenge_cap = { mutable cap_window_start : int; mutable cap_sent : int }

let fresh_challenge_cap () = { cap_window_start = 0; cap_sent = 0 }

(** An engine's counters, the one record its executor and demultiplexer
    count in.  The [tally_*] challenge counts and [blackhole_shrinks_dead]
    are those of the connections the engine has deleted or parked in
    TIME-WAIT, tombstones' own challenges included: the statistics add
    the live TCBs', so an attack that killed its TCBs still shows. *)
type counters = {
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
  mutable tally_sent : int;
  mutable tally_limited : int;
  mutable tally_rst : int;
  mutable tally_syn : int;
  mutable tally_ack : int;
  mutable blackhole_shrinks_dead : int;
  mutable persist_aborts : int;
  mutable user_timeout_aborts : int;
  mutable rtx_limit_aborts : int;
  mutable keepalive_aborts : int;
}

let fresh_counters () =
  { segs_in = 0; segs_out = 0; bad_segments = 0; rsts_sent = 0;
    unknown_dropped = 0; accepts = 0; wire_send_failures = 0;
    syn_dropped = 0; backlog_refused = 0; time_wait_recycled = 0;
    to_do_shed = 0; tally_sent = 0; tally_limited = 0; tally_rst = 0;
    tally_syn = 0; tally_ack = 0; blackhole_shrinks_dead = 0;
    persist_aborts = 0; user_timeout_aborts = 0; rtx_limit_aborts = 0;
    keepalive_aborts = 0 }

(** The TCB proper (Figure 6's [tcp_tcb]). *)
type tcp_tcb = {
  iss : Seq.t;
  mutable snd_una : Seq.t;
  mutable snd_nxt : Seq.t;
  mutable snd_wnd : int;
  mutable max_snd_wnd : int;
      (** largest window the peer ever advertised — the RFC 5961 §5
          tolerance for how far behind [snd_una] a legitimate ACK can be *)
  mutable snd_wl1 : Seq.t;
  mutable snd_wl2 : Seq.t;
  mutable irs : Seq.t;
  mutable rcv_nxt : Seq.t;
  mutable rcv_wnd : int;
  mutable snd_mss : int;  (** segment ceiling (peer's MSS ∧ path) *)
  adv_mss : int;  (** the MSS we announce on SYNs *)
  (* --- send buffering: user data not yet segmentised.  This and
     [rtx_q] are mutable rings, so a copy of the TCB must copy them --- *)
  queued : Packet.t Ring.t;
  mutable queued_bytes : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable fin_acked : bool;
  (* --- retransmission --- *)
  rtx_q : rtx_entry Ring.t;
  mutable rtx_timer_on : bool;
  (* --- out-of-order queue (Figure 6's [out_of_order]) --- *)
  mutable out_of_order : segment list;  (** sorted by sequence number *)
  mutable ooo_bytes : int;  (** text bytes held on [out_of_order] *)
  mutable ooo_trimmed : int;
      (** segments evicted by the [max_ooo_bytes] cap *)
  (* --- the to_do queue (two bands when latency-prioritised); mutable
     queues, so a copy of the TCB must copy them too --- *)
  to_do : tcp_action Queue.t;
  to_do_urgent : tcp_action Queue.t;
  mutable to_do_len : int;  (** actions queued across both bands *)
  mutable to_do_shed : int;
      (** segments refused at the queue door by the engine's [max_to_do] *)
  prioritized : bool;
  (* --- RTT estimation (Karn & Jacobson, via [Resend]) --- *)
  mutable srtt_us : int;  (** -1 until the first sample *)
  mutable rttvar_us : int;
  mutable rto_us : int;
  mutable backoff : int;
  mutable timed_end : Seq.t;
      (** the sequence number whose ACK completes the RTT sample *)
  mutable timed_at : int;
      (** when the segment under RTT timing was sent; [-1] while none is
          (the virtual clock is never negative) *)
  mutable karn_until : Seq.t;
      (** no new RTT timing may start while [snd_una] is below this: any
          retransmission taints the whole flight up to the then-current
          [snd_nxt], because a cumulative ACK delayed by the recovery
          episode would be timed against a segment that sat queued
          behind the hole (the DESIGN §12 srtt-poisoning case) *)
  (* --- graceful degradation (chaos survival) --- *)
  mutable stalled_since : int;
      (** virtual time the current retransmission stall began (last
          forward progress while data was outstanding); -1 = no data
          outstanding.  Drives the RFC 5482-shaped user timeout. *)
  mutable persist_probes : int;
      (** unanswered zero-window probes since the window last opened *)
  mutable full_rto_streak : int;
      (** consecutive RTOs whose front segment was full-MSS — the
          blackhole-detection trigger *)
  mutable blackhole_shrinks : int;
  (* --- congestion control --- *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  mutable cc : Congestion.instance;
      (** the algorithm's private per-connection state *)
  mutable pacing_until : int;
      (** no data segment may be emitted before this virtual time *)
  mutable pacing_timer_on : bool;
  mutable last_emit_at : int;
      (** when the last data segment was emitted (idle-restart detection) *)
  (* --- delayed-ACK state --- *)
  mutable ack_pending : bool;
  mutable ack_timer_on : bool;
  (* --- keepalive state --- *)
  mutable last_activity : int;
  mutable probes_sent : int;
  (* --- statistics --- *)
  mutable segs_out : int;
  mutable segs_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable retransmissions : int;
  mutable fast_path_hits : int;
  mutable dup_segments : int;
  mutable ooo_segments : int;
  (* --- RFC 5961 challenge accounting --- *)
  mutable challenge_acks_sent : int;
  mutable challenge_acks_limited : int;
      (** challenges suppressed by either budget *)
  mutable rst_challenges : int;  (** in-window (not exact) RSTs deflected *)
  mutable syn_challenges : int;  (** in-window SYNs deflected *)
  mutable ack_challenges : int;  (** ACKs outside the 5961 window *)
  (* --- challenge-ACK budget state (window = one virtual second) --- *)
  mutable chall_window_start : int;  (** this connection's window start *)
  mutable chall_sent : int;  (** sent in this connection's window *)
  mutable chall_cap : challenge_cap;  (** the owning engine's shared cap *)
  (* --- observability --- *)
  mutable obs_id : string;
      (** flight-recorder connection id (["-"] until installed) *)
}

(** A connection parked in TIME-WAIT, without its TCB: the tombstone the
    engine keeps for the 2·MSL quiet period (Linux's
    [inet_timewait_sock]).  Everything it sent, FIN included, is
    acknowledged and it will deliver nothing more, so answering a segment
    needs only the two sequence numbers, the largest window the peer
    advertised with the segment that last updated it (for the RFC 5961
    ACK test) and a challenge-ACK budget;
    {!Receive.time_wait} does that.  The engine adds the 4-tuple, the
    2·MSL timer and the one piece of application state it keeps, the
    final status upcall.  The receive window is not kept: a TCB's never
    moves from [params.initial_window]. *)
type 'host time_wait = {
  host : 'host;
  local_port : int;
  remote_port : int;
  tw_snd_nxt : Seq.t;  (** also [snd_una]: nothing is unacknowledged *)
  tw_rcv_nxt : Seq.t;  (** one past the peer's FIN *)
  mutable tw_max_snd_wnd : int;
  mutable tw_snd_wl1 : Seq.t;
  mutable tw_snd_wl2 : Seq.t;
  mutable tw_chall_window_start : int;
  mutable tw_chall_sent : int;
  arrival : int;  (** the engine's count of arrivals: oldest is lowest *)
  mutable timer : Fox_sched.Timer.t;  (** 2·MSL *)
  mutable upcall : Fox_proto.Status.t -> unit;
      (** the final status upcall, delivered when the tombstone goes *)
  mutable chain : 'host time_wait;
      (** the next tombstone in the engine's table slot; itself at the
          end of the chain *)
}

(** Connection states (Figure 6's [tcp_state]).  Each synchronised (and
    half-synchronised) state carries its TCB; [Closed] and [Listen] have
    none.  [Syn_active] is SYN-RECEIVED reached from an active open
    (simultaneous open); [Syn_passive] is the ordinary passive one. *)
type tcp_state =
  | Closed
  | Listen
  | Syn_sent of tcp_tcb
  | Syn_active of tcp_tcb
  | Syn_passive of tcp_tcb
  | Estab of tcp_tcb
  | Fin_wait_1 of tcp_tcb
  | Fin_wait_2 of tcp_tcb
  | Close_wait of tcp_tcb
  | Closing of tcp_tcb
  | Last_ack of tcp_tcb
  | Time_wait of tcp_tcb

let state_name = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent _ -> "SYN-SENT"
  | Syn_active _ -> "SYN-RECEIVED(active)"
  | Syn_passive _ -> "SYN-RECEIVED(passive)"
  | Estab _ -> "ESTABLISHED"
  | Fin_wait_1 _ -> "FIN-WAIT-1"
  | Fin_wait_2 _ -> "FIN-WAIT-2"
  | Close_wait _ -> "CLOSE-WAIT"
  | Closing _ -> "CLOSING"
  | Last_ack _ -> "LAST-ACK"
  | Time_wait _ -> "TIME-WAIT"

let tcb_of = function
  | Closed | Listen -> None
  | Syn_sent tcb
  | Syn_active tcb
  | Syn_passive tcb
  | Estab tcb
  | Fin_wait_1 tcb
  | Fin_wait_2 tcb
  | Close_wait tcb
  | Closing tcb
  | Last_ack tcb
  | Time_wait tcb ->
    Some tcb

(** [synchronized s] per RFC 793: both sides have seen each other's SYN. *)
let synchronized = function
  | Closed | Listen | Syn_sent _ | Syn_active _ | Syn_passive _ -> false
  | Estab _ | Fin_wait_1 _ | Fin_wait_2 _ | Close_wait _ | Closing _
  | Last_ack _ | Time_wait _ ->
    true

(** [create_tcb_with_mss params ~iss ~mss] is a fresh TCB with empty
    queues and the estimator in its initial state, whose MSS fields (the
    segment ceiling and the MSS we announce) are [mss] — connection setup
    knows the path MTU from the auxiliary structure. *)
let create_tcb_with_mss (params : params) ~iss ~mss =
  {
    iss;
    snd_una = iss;
    snd_nxt = iss;
    snd_wnd = 0;
    max_snd_wnd = 0;
    snd_wl1 = Seq.zero;
    snd_wl2 = Seq.zero;
    irs = Seq.zero;
    rcv_nxt = Seq.zero;
    rcv_wnd = params.initial_window;
    snd_mss = mss;
    adv_mss = mss;
    queued = Ring.create ~dummy:Packet.placeholder;
    queued_bytes = 0;
    fin_pending = false;
    fin_sent = false;
    fin_acked = false;
    rtx_q = Ring.create ~dummy:rtx_placeholder;
    rtx_timer_on = false;
    out_of_order = [];
    ooo_bytes = 0;
    ooo_trimmed = 0;
    to_do = Queue.create ();
    to_do_urgent = Queue.create ();
    to_do_len = 0;
    to_do_shed = 0;
    prioritized = params.prioritize_latency;
    srtt_us = -1;
    rttvar_us = 0;
    rto_us = params.rto_initial_us;
    backoff = 0;
    timed_end = Seq.zero;
    timed_at = -1;
    karn_until = iss;
    stalled_since = -1;
    persist_probes = 0;
    full_rto_streak = 0;
    blackhole_shrinks = 0;
    cwnd = Congestion.initial_cwnd params.cc ~mss;
    ssthresh = 65535;
    dup_acks = 0;
    cc = Congestion.make params.cc;
    pacing_until = 0;
    pacing_timer_on = false;
    last_emit_at = 0;
    ack_pending = false;
    ack_timer_on = false;
    last_activity = 0;
    probes_sent = 0;
    segs_out = 0;
    segs_in = 0;
    bytes_out = 0;
    bytes_in = 0;
    retransmissions = 0;
    fast_path_hits = 0;
    dup_segments = 0;
    ooo_segments = 0;
    challenge_acks_sent = 0;
    challenge_acks_limited = 0;
    rst_challenges = 0;
    syn_challenges = 0;
    ack_challenges = 0;
    chall_window_start = 0;
    chall_sent = 0;
    chall_cap = fresh_challenge_cap ();
    obs_id = "-";
  }

(** [create_tcb params ~iss] is {!create_tcb_with_mss} at the RFC 1122
    default MSS of 536. *)
let create_tcb params ~iss = create_tcb_with_mss params ~iss ~mss:536

(** [time_wait_of tcb ~host ~local_port ~remote_port ~arrival ~timer
    ~upcall] is the tombstone of [tcb], which has just entered
    TIME-WAIT. *)
let time_wait_of tcb ~host ~local_port ~remote_port ~arrival ~timer ~upcall =
  let rec tw =
    {
    host;
    local_port;
    remote_port;
    tw_snd_nxt = tcb.snd_nxt;
    tw_rcv_nxt = tcb.rcv_nxt;
    tw_max_snd_wnd = tcb.max_snd_wnd;
    tw_snd_wl1 = tcb.snd_wl1;
    tw_snd_wl2 = tcb.snd_wl2;
    tw_chall_window_start = tcb.chall_window_start;
    tw_chall_sent = tcb.chall_sent;
    arrival;
    timer;
    upcall;
    chain = tw;
  }
  in
  tw

(** [iter_packets f tcb] applies [f] to every packet the TCB itself holds
    a reference to: queued send text, retransmission-queue text and
    out-of-order segments (not the [to_do] actions, which own theirs). *)
let iter_packets f tcb =
  Ring.iter f tcb.queued;
  Ring.iter
    (fun e -> match e.rtx_data with Some d -> f d | None -> ())
    tcb.rtx_q;
  List.iter (fun s -> f s.data) tcb.out_of_order

(** Actions that put a packet on the wire — the ones that "affect the
    packet latency" and jump the queue under [prioritize_latency]. *)
let latency_critical = function
  | Send_segment _ | Send_ack -> true
  | Process_data _ | User_data _ | Set_timer _ | Clear_timer _
  | Timer_expired _ | Complete_open | Complete_close | Peer_close
  | Peer_reset | User_error _ | Delete_tcb ->
    false

(** [add_to_do tcb action] appends an action to the connection's queue —
    the only way anything ever happens to a connection.  With
    [prioritize_latency] set, wire-bound actions go to the urgent band
    (FIFO within each band, so segment order is preserved). *)
let add_to_do tcb action =
  tcb.to_do_len <- tcb.to_do_len + 1;
  if tcb.prioritized && latency_critical action then
    Queue.add action tcb.to_do_urgent
  else Queue.add action tcb.to_do

(** [has_to_do tcb] is true while an action is queued. *)
let has_to_do tcb =
  not (Queue.is_empty tcb.to_do_urgent && Queue.is_empty tcb.to_do)

(** [next_to_do tcb] pops the front action, urgent band first; the queue
    must not be empty (raises [Queue.Empty]). *)
let next_to_do tcb =
  let band =
    if Queue.is_empty tcb.to_do_urgent then tcb.to_do else tcb.to_do_urgent
  in
  let action = Queue.take band in
  tcb.to_do_len <- tcb.to_do_len - 1;
  action

(** [pending_actions tcb] lists the queue (urgent band first, as it would
    drain), without draining it — for the per-module tests, which compare
    produced actions against the standard's requirements. *)
let pending_actions tcb =
  List.of_seq (Queue.to_seq tcb.to_do_urgent)
  @ List.of_seq (Queue.to_seq tcb.to_do)

(** [flight_size tcb] is the sequence space sent and not yet
    acknowledged. *)
let flight_size tcb = Seq.diff tcb.snd_nxt tcb.snd_una

(** [cancel_delayed_ack tcb] disarms any pending delayed acknowledgement —
    required whenever the connection leaves ESTABLISHED/CLOSE-WAIT for a
    state that must not emit data ACKs (or for deletion), so no stale
    timer fires on a reused or freed TCB. *)
let cancel_delayed_ack tcb =
  tcb.ack_pending <- false;
  if tcb.ack_timer_on then begin
    tcb.ack_timer_on <- false;
    add_to_do tcb (Clear_timer Delayed_ack)
  end

(** Convenience for the tests: a compact rendering of a TCB's send-side
    state. *)
let pp fmt tcb =
  Format.fprintf fmt
    "una=%a nxt=%a wnd=%d cwnd=%d rcv_nxt=%a rcv_wnd=%d queued=%dB rtx=%d"
    Seq.pp tcb.snd_una Seq.pp tcb.snd_nxt tcb.snd_wnd tcb.cwnd Seq.pp
    tcb.rcv_nxt tcb.rcv_wnd tcb.queued_bytes (Ring.length tcb.rtx_q)
