(** Processing of incoming segments.

    This is the paper's [Receive] module.  The standard describes segment
    arrival as "a procedure with branch points and merge points, but no
    loops (a directed acyclic graph)"; [process] implements exactly the
    branches of RFC 793 pp. 64–76, with functions as labels for the merge
    points, so the code can be read side by side with the standard.

    A header-prediction fast path ([fast_path], tried first by the engine
    in the established state) handles the common case — the next expected
    in-order data segment or a plain ACK with no state changes — and
    "defers to the full code for the less common cases", as Section 4
    describes.

    Everything communicates by queuing {!Tcb.tcp_action}s; given the order
    in which segments are presented, the result is fully deterministic. *)

(** The engine-wide cap on RFC 5961 challenge ACKs per virtual second
    (100), on top of each connection's [challenge_ack_conn_limit]:
    challenges beyond it are counted but not sent. *)
val challenge_ack_limit : int

(** [process params state segment ~now] runs the receive DAG and returns
    the successor state.  [state] must carry a TCB (the engine handles
    CLOSED and LISTEN itself, since they have none) and must not be
    TIME-WAIT, whose segments {!time_wait} takes on the tombstone. *)
val process : Tcb.params -> Tcb.tcp_state -> Tcb.segment -> now:int -> Tcb.tcp_state

(** [time_wait params ~cap ~tally tombstone segment ~now] is segment
    arrival in TIME-WAIT, on the connection's tombstone: the actions the
    engine runs for it, in the order the receive DAG would queue them —
    an ACK for anything unacceptable, plus a 2·MSL restart when it was a
    retransmitted FIN; the RFC 5961 challenge for an in-window RST, a
    SYN or an out-of-range ACK, within the tombstone's and the engine's
    ([cap]) budgets; [Peer_reset; Delete_tcb] for an exact RST.  It
    counts its challenges in [tally] and releases the segment's text. *)
val time_wait :
  Tcb.params ->
  cap:Tcb.challenge_cap ->
  tally:Tcb.counters ->
  'host Tcb.time_wait ->
  Tcb.segment ->
  now:int ->
  Tcb.tcp_action list

(** [fast_path params tcb segment ~now] attempts header prediction on an
    established connection; [true] means the segment was fully handled. *)
val fast_path : Tcb.params -> Tcb.tcp_tcb -> Tcb.segment -> now:int -> bool

(** {1 Differential checking}

    With [differential] set, every fast-path hit also replays the segment
    through the general [process] DAG on a clone of the pre-state TCB
    (holding private copies of the packets it can reach, so the replay's
    releases never touch a buffer the connection owns) and compares the
    resulting TCBs field by field, along with the queued action lists.
    Divergences are reported through [on_mismatch] (default:
    [failwith]).  Used by the fuzz harness and the unit tests to prove
    the fast path behaviourally invisible. *)

val differential : bool ref

val on_mismatch : (string -> unit) ref
