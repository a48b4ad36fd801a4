(** Connection-level state manipulation.

    This is the paper's [State] module: "the main state manipulations
    required on connection open, close, or abort, and also when a timer
    expires".  Like its siblings it is pure with respect to the outside
    world — every externally visible consequence is a {!Tcb.tcp_action} on
    the TCB's [to_do] queue, so each transition can be unit-tested by
    inspecting the queue against what RFC 793 prescribes. *)

(** [active_open params ~cc ~iss ~mss ~now] builds the SYN-SENT state of
    a fresh active open under the congestion control [cc]: TCB created,
    SYN queued for transmission and retransmission, user timer armed when
    configured. *)
val active_open :
  Tcb.params -> cc:(module Congestion.S) -> iss:Seq.t -> mss:int -> now:int ->
  Tcb.tcp_state

(** [passive_open params ~cc ~iss ~mss ~syn ~now] accepts an incoming SYN
    on a listener: TCB initialised from the segment, SYN-ACK queued.  The
    result is SYN-RECEIVED (passive flavour). *)
val passive_open :
  Tcb.params -> cc:(module Congestion.S) -> iss:Seq.t -> mss:int ->
  syn:Tcb.segment -> now:int -> Tcb.tcp_state

(** [promote_passive params ~cc ~iss ~irs ~mss ~peer_mss ~wnd] completes a
    passive open whose half-open phase was held outside any TCB — in the
    engine's compact SYN cache, or statelessly in a SYN cookie.  [iss] and
    [irs] are the sequence numbers the handshake used, [mss] the path MSS,
    [peer_mss] the peer's announced (or cookie-recovered) MSS, [wnd] the
    peer's current window.  The TCB is created directly in ESTABLISHED
    with [Complete_open] queued. *)
val promote_passive :
  Tcb.params -> cc:(module Congestion.S) -> iss:Seq.t -> irs:Seq.t ->
  mss:int -> peer_mss:int option -> wnd:int -> Tcb.tcp_state

(** [close params state ~now] performs the user's graceful close: a FIN is
    scheduled after any queued data, and the state advances per RFC 793
    p. 60. *)
val close : Tcb.params -> Tcb.tcp_state -> now:int -> Tcb.tcp_state

(** [abort params state] resets the connection: an RST is queued when the
    peer could have state, and the TCB is deleted.  A TIME-WAIT
    connection has no TCB left to abort: the engine drops its
    tombstone. *)
val abort : Tcb.params -> Tcb.tcp_state -> Tcb.tcp_state

(** The [User_error] reasons of the four aborts the engine counts by
    kind ([Tcp.stats]' [rtx_limit_aborts], [persist_aborts],
    [user_timeout_aborts] and [keepalive_aborts]). *)

val rtx_limit_reason : string

val persist_reason : string

val user_timeout_reason : string

val keepalive_reason : string

(** [timer_expired params state kind ~now] reacts to a timer: retransmit
    with backoff (giving up after the configured budget), flush a delayed
    ACK, probe a zero window, or enforce the user timeout.  The 2·MSL
    timer is not a TCB's: the engine runs it on the tombstone. *)
val timer_expired :
  Tcb.params -> Tcb.tcp_state -> Tcb.timer_kind -> now:int -> Tcb.tcp_state
