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
val of_tcb : conn_id:string -> state:string -> now:int -> Tcb.tcp_tcb -> t

(** [of_time_wait ~conn_id ~now ~rcv_wnd ~cc_name tombstone] is the
    TIME-WAIT row of a connection parked as [tombstone]: its sequence
    numbers and our receive window, with the send window and every
    counter and estimator at zero, since a tombstone keeps none. *)
val of_time_wait :
  conn_id:string -> now:int -> rcv_wnd:int -> cc_name:string ->
  _ Tcb.time_wait -> t

(** One-line rendering (the [foxnet stat] format). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
