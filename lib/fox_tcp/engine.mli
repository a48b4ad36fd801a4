(** The paper's [Main] (Figure 9): the quasi-synchronous executor.

    Deliveries, timer expirations and user calls only queue an action on
    a connection's [to_do] and call {!drain}; the thread that queued it
    runs actions one at a time until the queue is empty (Figure 7).  A
    nested call, such as a data upcall that sends, queues and returns,
    and the outer drain picks the work up.  Carrying out an action is
    this module's: externalisation, the per-kind timers, the flight
    recorder, teardown, and the TIME-WAIT tombstones.  {!Tcp.Make} keeps
    the demultiplexing, the user calls and the statistics.

    The module is polymorphic in the host (['h]) and the lower-layer
    session (['l]), whose operations come as a record of closures built
    once per engine, so a test can drive it with a fake lower layer. *)

open Fox_basis

(** The lower layer's operations on a session ['l]: a connection's
    staged send (made once per connection), an unstaged send for
    segments from no connection (one segment is not worth a stage of
    its own), the pseudo-header of a segment of [len]
    bytes ({!Checksum.none} with checksums off), and a packet with room
    for every header from TCP's down. *)
type 'l lower = {
  prepare : 'l -> Packet.t -> unit;
  send : 'l -> Packet.t -> unit;
  pseudo : 'l -> int -> Checksum.acc;
  allocate : 'l -> int -> Packet.t;
}

(** One engine: its settings, lower layer, tombstones and counters.
    [unlink] takes a retired connection out of the demultiplexer. *)
type ('h, 'l) t = {
  params : Tcb.params;
  ops : 'l lower;
  name : 'h -> string;
  unlink : ('h, 'l) conn -> unit;
  tombs : 'h Tomb.t;
  chall_cap : Tcb.challenge_cap;
  counters : Tcb.counters;
}

(** One connection.  [timers] holds one timer per {!Tcb.timer_index},
    made on first use.  [wake] is the one wait point of the blocking
    user calls, each of which re-checks its own condition.  A [dead]
    connection is held by the engine no more: deleted, or parked as
    [tomb].  [half_open_of] is the listener whose (legacy-mode) backlog
    it occupies until established or deleted. *)
and ('h, 'l) conn = {
  engine : ('h, 'l) t;
  host : 'h;
  local_port : int;
  remote_port : int;
  lower : 'l;
  lower_send : Packet.t -> unit;
  tcb : Tcb.tcp_tcb;
  mutable state : Tcb.tcp_state;
  mutable data : Packet.t -> unit;
  mutable status : Fox_proto.Status.t -> unit;
  mutable draining : bool;
  timers : Fox_sched.Timer.t option array;
  wake : unit Fox_sched.Cond.t;
  mutable open_done : bool;
  mutable close_reason : Fox_proto.Status.t option;
  mutable dead : bool;
  mutable tomb : 'h Tomb.tomb option;
  mutable half_open_of : 'h Listen.t option;
}

(** A user's send blocks while this many bytes are queued. *)
val send_buffer_bytes : int

(** [create params ops ~name ~equal ~hash ~unlink] is an engine with no
    tombstones and fresh counters; [equal] and [hash] key the
    tombstone table, [name] renders a host in a connection id. *)
val create :
  Tcb.params ->
  'l lower ->
  name:('h -> string) ->
  equal:('h -> 'h -> bool) ->
  hash:('h -> int) ->
  unlink:(('h, 'l) conn -> unit) ->
  ('h, 'l) t

(** [connection e ~host ~local_port ~remote_port lower state] is a new
    connection in [state], which must carry a TCB, with [ignore] for
    upcalls. *)
val connection :
  ('h, 'l) t -> host:'h -> local_port:int -> remote_port:int -> 'l ->
  Tcb.tcp_state -> ('h, 'l) conn

(** [conn_id e host local_port remote_port] names a connection on the
    flight recorder. *)
val conn_id : ('h, _) t -> 'h -> int -> int -> string

(** [note id kind] is the engine's one seam to the flight recorder, for
    connection [id] (["-"] for none).  Callers test [!Bus.live] first,
    so a quiet bus renders no id and builds no event. *)
val note : string -> Fox_obs.Bus.kind -> unit

(** [send_bare e lconn ~send ?syn ?mss ~src_port ~dst_port ~seq ~ack
    ~rst window] puts a segment without text on [lconn]: a pure ACK, an
    RST, a tombstone's reply or a stateless SYN-ACK.  It has the ACK
    flag when [ack] is given, and counts in [segs_out], and an RST in
    [rsts_sent], as every segment the engine sends does. *)
val send_bare :
  ('h, 'l) t -> 'l -> send:(Packet.t -> unit) -> ?syn:bool -> ?mss:int ->
  src_port:int -> dst_port:int -> seq:Seq.t -> ack:Seq.t option ->
  rst:bool -> int -> unit

(** [drain conn] runs [conn]'s [to_do] until it is empty, unless a drain
    of [conn] is already running further up the stack.  An exception
    from an upcall propagates out, and the next drain starts afresh. *)
val drain : ('h, 'l) conn -> unit

(** [finish conn reason] wakes whoever waits on [conn], then delivers
    the final status upcall. *)
val finish : ('h, 'l) conn -> Fox_proto.Status.t -> unit

(** [tomb_receive e tw lconn seg] carries out {!Receive.time_wait} for a
    segment on the 4-tuple parked as [tw]. *)
val tomb_receive : ('h, 'l) t -> 'h Tomb.tomb -> 'l -> Tcb.segment -> unit

(** [bury e tw reason] takes [tw] out of the table, if still parked,
    clears its timer and delivers its final upcall. *)
val bury : ('h, 'l) t -> 'h Tomb.tomb -> Fox_proto.Status.t -> unit
