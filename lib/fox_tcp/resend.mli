(** Retransmission and round-trip-time estimation.

    This is the paper's [Resend] module: it implements "the round-trip time
    computations developed by Karn and Jacobson" and removes acknowledged
    segments from the retransmit queue.  It also carries the congestion
    machinery (slow start, congestion avoidance and fast retransmit),
    whose window arithmetic lives behind {!Congestion.S} hooks — this
    module owns {e when} the hooks fire and applies their decisions.

    All functions operate on a {!Tcb.tcp_tcb} and communicate with the rest
    of TCP exclusively by queuing {!Tcb.tcp_action}s — nothing here sends a
    packet or touches a real timer. *)

(** [cc_ctx params tcb ~now] is the read-only snapshot handed to every
    congestion hook. *)
val cc_ctx : Tcb.params -> Tcb.tcp_tcb -> now:int -> Congestion.ctx

(** [apply_reaction tcb reaction] applies a hook's decision, clamping to
    cwnd ≥ 1 MSS and ssthresh ≥ 2 MSS, and performs the requested
    partial-ACK retransmission of the front queue entry. *)
val apply_reaction : Tcb.tcp_tcb -> Congestion.reaction -> unit

(** [track params tcb entry ~now] appends a freshly sent segment to the
    retransmission queue, starts RTT timing for it when no segment is being
    timed (Karn's rule times at most one, and never a retransmission), and
    queues [Set_timer Retransmit] if the timer is not running.  The timeout
    always goes through {!rto} so the configured RTO min/max bounds apply
    even under heavy backoff. *)
val track : Tcb.params -> Tcb.tcp_tcb -> Tcb.rtx_entry -> now:int -> unit

(** [process_ack params tcb ~ack ~now] handles an acceptable ACK: drops
    covered entries from the queue, takes an RTT sample if the timed
    segment is covered (updating SRTT/RTTVAR and the RTO per Jacobson),
    resets the backoff, opens the congestion window, advances [snd_una],
    detects that our FIN was acknowledged ([tcb.fin_acked]), and manages
    the retransmit timer ([Set_timer]/[Clear_timer] actions).

    Returns [true] when the ACK acknowledged new data. *)
val process_ack : Tcb.params -> Tcb.tcp_tcb -> ack:Seq.t -> now:int -> bool

(** [duplicate_ack params tcb ~now] counts a duplicate ACK and lets the
    congestion algorithm react; on the third, retransmits the first queue
    entry (fast retransmit). *)
val duplicate_ack : Tcb.params -> Tcb.tcp_tcb -> now:int -> unit

(** [retransmit params tcb ~now] handles a retransmission timeout: resends
    the first queue entry, doubles the backoff, collapses the congestion
    window, and re-arms the timer.  Returns [false] when the retry budget
    ([params.max_retransmits]) is exhausted — the caller then gives up on
    the connection. *)
val retransmit : Tcb.params -> Tcb.tcp_tcb -> now:int -> bool

(** [rto params tcb] is the current retransmission timeout with backoff
    applied, clamped to the configured bounds. *)
val rto : Tcb.params -> Tcb.tcp_tcb -> int

(** [sample params tcb ~sample_us] feeds one RTT measurement to the
    Jacobson estimator (exposed for unit tests). *)
val sample : Tcb.params -> Tcb.tcp_tcb -> sample_us:int -> unit
