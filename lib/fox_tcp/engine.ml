(* The paper's [Main]: the quasi-synchronous executor; see the
   interface. *)

open Fox_basis
module Status = Fox_proto.Status
module Bus = Fox_obs.Bus
module Timer = Fox_sched.Timer

type 'l lower = {
  prepare : 'l -> Packet.t -> unit;
  send : 'l -> Packet.t -> unit;
  pseudo : 'l -> int -> Checksum.acc;
  allocate : 'l -> int -> Packet.t;
}

type ('h, 'l) t = {
  params : Tcb.params;
  ops : 'l lower;
  name : 'h -> string;
  unlink : ('h, 'l) conn -> unit;
  tombs : 'h Tomb.t;
  chall_cap : Tcb.challenge_cap;
  counters : Tcb.counters;
}

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
  mutable status : Status.t -> unit;
  mutable draining : bool;
  timers : Timer.t option array;
  wake : unit Fox_sched.Cond.t;
  mutable open_done : bool;
  mutable close_reason : Status.t option;
  mutable dead : bool;
  mutable tomb : 'h Tomb.tomb option;
  mutable half_open_of : 'h Listen.t option;
}

let send_buffer_bytes = 65536

let create params ops ~name ~equal ~hash ~unlink =
  {
    params; ops; name; unlink;
    tombs = Tomb.create ~equal ~hash ();
    chall_cap = Tcb.fresh_challenge_cap ();
    counters = Tcb.fresh_counters ();
  }

let conn_id e host local_port remote_port =
  Printf.sprintf "%s:%d>%d" (e.name host) local_port remote_port

let tomb_id e (tw : _ Tomb.tomb) =
  conn_id e tw.host tw.local_port tw.remote_port

let connection e ~host ~local_port ~remote_port lower state =
  let tcb =
    match Tcb.tcb_of state with
    | Some tcb -> tcb
    | None -> invalid_arg "Engine.connection: state without tcb"
  in
  tcb.Tcb.obs_id <- conn_id e host local_port remote_port;
  (* every connection of an engine draws on the same engine-wide
     challenge-ACK cap (its private budget is already in the TCB) *)
  tcb.Tcb.chall_cap <- e.chall_cap;
  {
    engine = e;
    host;
    local_port;
    remote_port;
    lower;
    lower_send = e.ops.prepare lower;
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

(* ---------------- the flight recorder ---------------- *)

let note id kind = Bus.emit ~layer:"tcp" ~conn:id kind

let timer_note id kind what =
  note id (Bus.Timer { timer = Tcb.timer_kind_name kind; what })

let transition id from_ to_ =
  if from_ <> to_ then note id (Bus.State { from_; to_ })

let deleted id reason =
  note id (Bus.Note ("deleted: " ^ Status.to_string reason))

let flags_of (ss : Tcb.send_segment) =
  let b = Buffer.create 4 in
  if ss.Tcb.out_syn then Buffer.add_char b 'S';
  if ss.Tcb.out_fin then Buffer.add_char b 'F';
  if ss.Tcb.out_rst then Buffer.add_char b 'R';
  if ss.Tcb.out_psh then Buffer.add_char b 'P';
  if ss.Tcb.out_ack then Buffer.add_char b 'A';
  Buffer.contents b

(* One executed action, as the bus sees it; [backoff] is the
   connection's, for a retransmission. *)
let report id ~backoff action =
  match action with
  | Tcb.Send_segment ss ->
    let len =
      match ss.Tcb.out_data with Some p -> Packet.length p | None -> 0
    in
    if ss.Tcb.out_is_rtx then
      note id (Bus.Retransmit { seq = Seq.to_int ss.Tcb.out_seq; len; backoff })
    else note id (Bus.Send { bytes = len; flags = flags_of ss })
  | Tcb.Send_ack -> note id (Bus.Send { bytes = 0; flags = "A" })
  | Tcb.User_data p -> note id (Bus.Deliver { bytes = Packet.length p })
  | Tcb.Set_timer (kind, us) -> timer_note id kind (Bus.Set us)
  | Tcb.Clear_timer kind -> timer_note id kind Bus.Cleared
  | Tcb.Timer_expired kind -> timer_note id kind Bus.Expired
  | Tcb.Peer_reset -> note id (Bus.Note "peer reset")
  | Tcb.User_error msg -> note id (Bus.Note ("error: " ^ msg))
  | Tcb.Process_data _ | Tcb.Complete_open | Tcb.Complete_close
  | Tcb.Peer_close | Tcb.Delete_tcb ->
    ()

(* A connection's executed action and the state change it made.  Runs
   from the drain loop right after [execute], the same seam as
   {!Check_hook}, so the event order {e is} the to_do execution order. *)
let observe conn before action =
  let id = conn.tcb.Tcb.obs_id in
  report id ~backoff:conn.tcb.Tcb.backoff action;
  transition id (Tcb.state_name before) (Tcb.state_name conn.state)

(* ---------------- externalisation ---------------- *)

(* Put one segment on [lconn] through [send].  The lower layer may
   refuse it ([Send_failed]: an injected fault, a torn-down session):
   the refusal is counted and is otherwise a loss on the wire — a TCB's
   segment is on its retransmission queue, and an unsent reply from no
   TCB is no worse than a lost one. *)
let put e lconn ~send hdr data =
  try
    Action.externalize ~defer:true ~pseudo_for:(e.ops.pseudo lconn) ~hdr ~data
      ~allocate:(e.ops.allocate lconn) ~send ()
  with Fox_proto.Common.Send_failed _ ->
    let c = e.counters in
    c.wire_send_failures <- c.wire_send_failures + 1

let send_bare e lconn ~send ?(syn = false) ?mss ~src_port ~dst_port ~seq ~ack
    ~rst window =
  let c = e.counters in
  c.segs_out <- c.segs_out + 1;
  if rst then c.rsts_sent <- c.rsts_sent + 1;
  put e lconn ~send
    {
      Tcp_header.src_port;
      dst_port;
      seq;
      ack = (match ack with Some a -> a | None -> Seq.zero);
      urg = false;
      ack_flag = Option.is_some ack;
      psh = false;
      rst;
      syn;
      fin = false;
      window;
      urgent = 0;
      mss;
    }
    None

let externalize conn (ss : Tcb.send_segment) =
  let e = conn.engine and tcb = conn.tcb in
  let c = e.counters in
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
  c.segs_out <- c.segs_out + 1;
  if ss.Tcb.out_rst then c.rsts_sent <- c.rsts_sent + 1;
  put e conn.lower ~send:conn.lower_send hdr ss.Tcb.out_data

let send_pure_ack conn =
  let tcb = conn.tcb in
  tcb.Tcb.ack_pending <- false;
  tcb.Tcb.segs_out <- tcb.Tcb.segs_out + 1;
  send_bare conn.engine conn.lower ~send:conn.lower_send
    ~src_port:conn.local_port ~dst_port:conn.remote_port ~seq:tcb.Tcb.snd_nxt
    ~ack:(Some tcb.Tcb.rcv_nxt) ~rst:false tcb.Tcb.rcv_wnd

(* ---------------- tombstones ---------------- *)

(* a tombstone's timer until its own, whose handler needs the
   tombstone, exists; never armed *)
let no_timer = Timer.create ignore

let bury e (tw : _ Tomb.tomb) reason =
  if Tomb.parked e.tombs tw then begin
    Tomb.remove e.tombs tw;
    Timer.clear tw.timer;
    if !Bus.live then deleted (tomb_id e tw) reason;
    tw.upcall reason
  end

(* 2·MSL is over: the events the TCB's expiry produced, then the
   upcall. *)
let expire e tw =
  if !Bus.live then begin
    let id = tomb_id e tw in
    timer_note id Tcb.Time_wait Bus.Expired;
    transition id "TIME-WAIT" "CLOSED"
  end;
  bury e tw Status.Closed

(* Over the [max_time_wait] bound, the oldest tombstone is recycled:
   its 2·MSL is cut short, the documented trade for surviving port
   churn under load. *)
let rec recycle e =
  if
    e.params.max_time_wait > 0 && Tomb.count e.tombs > e.params.max_time_wait
  then
    match Tomb.oldest e.tombs with
    | Some oldest ->
      e.counters.time_wait_recycled <- e.counters.time_wait_recycled + 1;
      if !Bus.live then note (tomb_id e oldest) (Bus.Note "time-wait recycled");
      bury e oldest Status.Closed;
      recycle e
    | None -> ()

(* A tombstone's reply, as a TCB's: an ACK, or an RST without one, at
   [snd_nxt]. *)
let tomb_send e (tw : _ Tomb.tomb) lconn ~rst =
  send_bare e lconn ~send:(e.ops.send lconn) ~src_port:tw.local_port
    ~dst_port:tw.remote_port ~seq:tw.tw_snd_nxt
    ~ack:(if rst then None else Some tw.tw_rcv_nxt)
    ~rst e.params.initial_window

let tomb_receive e (tw : _ Tomb.tomb) lconn seg =
  let actions =
    Receive.time_wait e.params ~cap:e.chall_cap ~tally:e.counters tw seg
      ~now:(Fox_sched.Scheduler.now ())
  in
  if
    !Bus.live
    && List.exists (function Tcb.Delete_tcb -> true | _ -> false) actions
  then transition (tomb_id e tw) "TIME-WAIT" "CLOSED";
  List.iter
    (fun action ->
      (match action with
      | Tcb.Send_ack -> tomb_send e tw lconn ~rst:false
      | Tcb.Send_segment _ -> tomb_send e tw lconn ~rst:true
      | Tcb.Set_timer (_, us) -> Timer.set tw.timer us
      | Tcb.Delete_tcb -> bury e tw Status.Reset
      | _ -> ());
      if !Bus.live then report (tomb_id e tw) ~backoff:0 action)
    actions

(* ---------------- timers (Figure 11 timers per kind) ---------------- *)

let clear_timer conn kind =
  match conn.timers.(Tcb.timer_index kind) with
  | Some timer -> Timer.clear timer
  | None -> ()

let armed_timers conn =
  List.filter
    (fun kind ->
      match conn.timers.(Tcb.timer_index kind) with
      | Some timer -> Timer.armed timer
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
        Timer.create (fun () ->
            if not conn.dead then begin
              Tcb.add_to_do conn.tcb expired;
              drain conn
            end)
      in
      conn.timers.(i) <- Some timer;
      timer
  in
  Timer.set_at timer ~now us

(* ---------------- teardown ---------------- *)

(* The engine lets go of the connection: out of the table, its timers
   cleared, its challenge counters folded into the engine's, and its
   buffers released.  The application's handle keeps the rest. *)
and retire conn =
  let e = conn.engine and tcb = conn.tcb in
  conn.dead <- true;
  leave_half_open conn;
  Array.iter (Option.iter Timer.clear) conn.timers;
  e.unlink conn;
  let d = e.counters in
  d.tally_sent <- d.tally_sent + tcb.Tcb.challenge_acks_sent;
  d.tally_limited <- d.tally_limited + tcb.Tcb.challenge_acks_limited;
  d.tally_rst <- d.tally_rst + tcb.Tcb.rst_challenges;
  d.tally_syn <- d.tally_syn + tcb.Tcb.syn_challenges;
  d.tally_ack <- d.tally_ack + tcb.Tcb.ack_challenges;
  d.blackhole_shrinks_dead <-
    d.blackhole_shrinks_dead + tcb.Tcb.blackhole_shrinks;
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
    if !Bus.live then deleted conn.tcb.Tcb.obs_id reason;
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
    Listen.leave l
  | None -> ()

(* The connection just reached TIME-WAIT (detected at the post-execute
   seam of [drain]): a tombstone takes its place in the engine, and the
   engine retires the connection.  What is left on [to_do] still runs
   (the ACK of the peer's FIN; the 2·MSL [Set_timer], which arms the
   tombstone's timer).  The tombstone's upcall is the application's
   status handler alone: a thread waiting on the connection is woken at
   this seam (the send buffer is now empty), and only a caller that
   waits on past it (Tcp's [close_sync]) points the upcall at
   [finish]. *)
and park conn =
  let e = conn.engine in
  let tw =
    Tcb.time_wait_of conn.tcb ~host:conn.host ~local_port:conn.local_port
      ~remote_port:conn.remote_port ~arrival:(Tomb.arrive e.tombs)
      ~timer:no_timer ~upcall:conn.status
  in
  tw.timer <- Timer.create (fun () -> expire e tw);
  conn.tomb <- Some tw;
  retire conn;
  Tomb.add e.tombs tw;
  recycle e

(* ---------------- the quasi-synchronous executor ---------------- *)

(* The clock is read once per action, by the arms that need it: an
   action that sends may sleep in a metered host's [Cpu.charge], so the
   next action reads it again. *)
and execute conn action =
  let e = conn.engine and tcb = conn.tcb in
  let params = e.params in
  match action with
  | Tcb.Process_data seg when conn.dead -> (
    (* queued behind the segment that ended in TIME-WAIT: the
       tombstone's, if it is still parked *)
    match conn.tomb with
    | Some tw when Tomb.parked e.tombs tw -> tomb_receive e tw conn.lower seg
    | _ -> Packet.release seg.Tcb.data)
  | Tcb.Process_data seg ->
    let now = Fox_sched.Scheduler.now () in
    (* any segment from the peer is evidence of life *)
    tcb.Tcb.last_activity <- now;
    tcb.Tcb.probes_sent <- 0;
    let handled =
      params.header_prediction
      &&
      match conn.state with
      | Tcb.Estab _ -> Receive.fast_path params tcb seg ~now
      | _ -> false
    in
    if not handled then
      conn.state <- Receive.process params conn.state seg ~now;
    (* a segment with no text and no FIN is never stored anywhere (only
       data and FINs can sit on the out-of-order queue), so its receive
       buffer is released now *)
    if Packet.length seg.Tcb.data = 0 && not seg.Tcb.hdr.Tcp_header.fin then
      Packet.release seg.Tcb.data
  | Tcb.User_data packet -> conn.data packet
  | Tcb.Send_segment ss -> externalize conn ss
  | Tcb.Send_ack -> send_pure_ack conn
  | Tcb.Set_timer (kind, us) -> (
    match conn.tomb with
    | None -> set_timer conn kind ~now:(Fox_sched.Scheduler.now ()) us
    | Some tw ->
      (* the 2·MSL that entering TIME-WAIT asks for is the tombstone's *)
      if kind = Tcb.Time_wait && Tomb.parked e.tombs tw then
        Timer.set tw.timer us)
  | Tcb.Clear_timer kind -> clear_timer conn kind
  | Tcb.Timer_expired _ when conn.dead -> ()
  | Tcb.Timer_expired kind ->
    conn.state <-
      State.timer_expired params conn.state kind
        ~now:(Fox_sched.Scheduler.now ())
  | Tcb.Complete_open ->
    leave_half_open conn;
    if not conn.open_done then begin
      conn.open_done <- true;
      if params.keepalive_us > 0 then begin
        let now = Fox_sched.Scheduler.now () in
        tcb.Tcb.last_activity <- now;
        set_timer conn Tcb.Keepalive ~now params.keepalive_us
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
    let c = e.counters in
    if msg = State.persist_reason then c.persist_aborts <- c.persist_aborts + 1
    else if msg = State.user_timeout_reason then
      c.user_timeout_aborts <- c.user_timeout_aborts + 1
    else if msg = State.rtx_limit_reason then
      c.rtx_limit_aborts <- c.rtx_limit_aborts + 1
    else if msg = State.keepalive_reason then
      c.keepalive_aborts <- c.keepalive_aborts + 1
  | Tcb.Delete_tcb -> delete_tcb conn

and drain conn =
  if not conn.draining then begin
    conn.draining <- true;
    match run_to_do conn with
    | () -> conn.draining <- false
    | exception exn ->
      conn.draining <- false;
      raise exn
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
