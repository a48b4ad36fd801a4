(** Per-connection statistics snapshots.

    A [Stats.t] is a plain, immutable photograph of one connection's TCB
    taken between two actions of the [to_do] executor — the same seam
    {!Check_hook} uses — so every snapshot is internally consistent: no
    field can change while the record is being built, because nothing
    happens to a connection except through the queue.

    Snapshots feed [foxnet stat] (through [Tcp.snapshots], which
    photographs every connection of an engine on demand); they are also
    handy in tests as a one-line summary of where a connection ended
    up. *)

type t = {
  conn_id : string;  (** ["host:lport>rport"], as in the engine's trace *)
  state : string;  (** RFC 793 state name *)
  snapshot_at : int;  (** virtual time of the snapshot *)
  (* send sequence space *)
  snd_una : int;
  snd_nxt : int;
  snd_wnd : int;
  rcv_nxt : int;
  rcv_wnd : int;
  (* congestion control *)
  cwnd : int;
  ssthresh : int;
  dup_acks : int;
  cc_name : string;  (** active congestion-control algorithm *)
  cc_state : (string * string) list;
      (** the algorithm's private state, from {!Congestion.S.debug} *)
  in_recovery : bool;  (** inside the algorithm's loss recovery *)
  (* RTT estimation *)
  srtt_us : int;  (** -1 until the first sample *)
  rttvar_us : int;
  rto_us : int;
  backoff : int;
  (* traffic *)
  segs_out : int;
  segs_in : int;
  bytes_out : int;
  bytes_in : int;
  retransmissions : int;
  fast_path_hits : int;
  dup_segments : int;
  ooo_segments : int;
  (* queues *)
  queued_bytes : int;  (** user data not yet segmentised *)
  rtx_queue_len : int;
  flight : int;  (** sequence space sent and unacknowledged *)
  (* overload policy *)
  ooo_bytes : int;  (** bytes parked in the out-of-order list *)
  ooo_trimmed : int;  (** out-of-order segments dropped by the byte cap *)
  to_do_shed : int;  (** segments shed because the to_do queue was full *)
  (* RFC 5961 challenge accounting *)
  challenge_acks_sent : int;  (** challenge ACKs actually emitted *)
  challenge_acks_limited : int;  (** challenges suppressed by the budget *)
  rst_challenges : int;  (** in-window (not exact) RSTs challenged *)
  syn_challenges : int;  (** SYNs on a synchronized connection challenged *)
  ack_challenges : int;  (** ACKs outside the acceptable range challenged *)
}

(** [of_tcb ~conn_id ~state ~now tcb] photographs [tcb]. *)
let of_tcb ~conn_id ~state ~now (tcb : Tcb.tcp_tcb) =
  {
    conn_id;
    state;
    snapshot_at = now;
    snd_una = Seq.to_int tcb.Tcb.snd_una;
    snd_nxt = Seq.to_int tcb.Tcb.snd_nxt;
    snd_wnd = tcb.Tcb.snd_wnd;
    rcv_nxt = Seq.to_int tcb.Tcb.rcv_nxt;
    rcv_wnd = tcb.Tcb.rcv_wnd;
    cwnd = tcb.Tcb.cwnd;
    ssthresh = tcb.Tcb.ssthresh;
    dup_acks = tcb.Tcb.dup_acks;
    cc_name = Congestion.name tcb.Tcb.cc;
    cc_state = Congestion.debug tcb.Tcb.cc;
    in_recovery = Congestion.in_recovery tcb.Tcb.cc;
    srtt_us = tcb.Tcb.srtt_us;
    rttvar_us = tcb.Tcb.rttvar_us;
    rto_us = tcb.Tcb.rto_us;
    backoff = tcb.Tcb.backoff;
    segs_out = tcb.Tcb.segs_out;
    segs_in = tcb.Tcb.segs_in;
    bytes_out = tcb.Tcb.bytes_out;
    bytes_in = tcb.Tcb.bytes_in;
    retransmissions = tcb.Tcb.retransmissions;
    fast_path_hits = tcb.Tcb.fast_path_hits;
    dup_segments = tcb.Tcb.dup_segments;
    ooo_segments = tcb.Tcb.ooo_segments;
    queued_bytes = tcb.Tcb.queued_bytes;
    rtx_queue_len = Fox_basis.Ring.length tcb.Tcb.rtx_q;
    flight = Tcb.flight_size tcb;
    ooo_bytes = tcb.Tcb.ooo_bytes;
    ooo_trimmed = tcb.Tcb.ooo_trimmed;
    to_do_shed = tcb.Tcb.to_do_shed;
    challenge_acks_sent = tcb.Tcb.challenge_acks_sent;
    challenge_acks_limited = tcb.Tcb.challenge_acks_limited;
    rst_challenges = tcb.Tcb.rst_challenges;
    syn_challenges = tcb.Tcb.syn_challenges;
    ack_challenges = tcb.Tcb.ack_challenges;
  }

(** [of_time_wait ~conn_id ~now ~rcv_wnd ~cc_name tombstone] is the
    TIME-WAIT row of a connection parked as [tombstone]: its sequence
    numbers and our receive window, with the send window and every
    counter and estimator at zero, since a tombstone keeps none. *)
let of_time_wait ~conn_id ~now ~rcv_wnd ~cc_name (tw : _ Tcb.time_wait) =
  let seq = Seq.to_int in
  {
    conn_id;
    state = "TIME-WAIT";
    snapshot_at = now;
    snd_una = seq tw.Tcb.tw_snd_nxt;
    snd_nxt = seq tw.Tcb.tw_snd_nxt;
    snd_wnd = 0;
    rcv_nxt = seq tw.Tcb.tw_rcv_nxt;
    rcv_wnd;
    cwnd = 0;
    ssthresh = 0;
    dup_acks = 0;
    cc_name;
    cc_state = [];
    in_recovery = false;
    srtt_us = 0;
    rttvar_us = 0;
    rto_us = 0;
    backoff = 0;
    segs_out = 0;
    segs_in = 0;
    bytes_out = 0;
    bytes_in = 0;
    retransmissions = 0;
    fast_path_hits = 0;
    dup_segments = 0;
    ooo_segments = 0;
    queued_bytes = 0;
    rtx_queue_len = 0;
    flight = 0;
    ooo_bytes = 0;
    ooo_trimmed = 0;
    to_do_shed = 0;
    challenge_acks_sent = 0;
    challenge_acks_limited = 0;
    rst_challenges = 0;
    syn_challenges = 0;
    ack_challenges = 0;
  }

(** One-line rendering (the [foxnet stat] format). *)
let to_string s =
  let cc =
    match s.cc_state with
    | [] -> s.cc_name
    | kvs ->
      s.cc_name ^ "["
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
      ^ "]"
  in
  Printf.sprintf
    "%s %s una=%d nxt=%d flight=%d snd_wnd=%d rcv_wnd=%d cc=%s cwnd=%d \
     ssthresh=%d%s srtt=%dus rto=%dus backoff=%d segs=%d/%d bytes=%d/%d \
     rtx=%d dup_acks=%d dups=%d ooo=%d fast=%d queued=%dB rtxq=%d trimmed=%d \
     shed=%d chall=%d/%d(r%d,s%d,a%d)"
    s.conn_id s.state s.snd_una s.snd_nxt s.flight s.snd_wnd s.rcv_wnd cc
    s.cwnd s.ssthresh
    (if s.in_recovery then " RECOVERY" else "")
    s.srtt_us s.rto_us s.backoff s.segs_out s.segs_in s.bytes_out s.bytes_in
    s.retransmissions s.dup_acks s.dup_segments s.ooo_segments s.fast_path_hits
    s.queued_bytes s.rtx_queue_len s.ooo_trimmed s.to_do_shed
    s.challenge_acks_sent s.challenge_acks_limited s.rst_challenges
    s.syn_challenges s.ack_challenges
