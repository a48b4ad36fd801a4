open Tcb
module Bus = Fox_obs.Bus

let queue_rst tcb ~seq ~with_ack =
  add_to_do tcb
    (Send_segment
       {
         out_seq = seq;
         out_syn = false;
         out_fin = false;
         out_rst = true;
         out_psh = false;
         out_ack = with_ack;
         out_data = None;
         out_mss = None;
         out_is_rtx = false;
       })

let arm_user_timer (params : params) tcb =
  if params.user_timeout_us > 0 then
    add_to_do tcb (Set_timer (User_timeout, params.user_timeout_us))

let queue_syn (params : params) tcb ~with_ack ~now =
  let entry =
    {
      rtx_seq = tcb.snd_nxt;
      rtx_len = 1;
      rtx_syn = true;
      rtx_fin = false;
      rtx_ack = with_ack;
      rtx_data = None;
      rtx_mss = Some tcb.adv_mss;
      first_sent_at = now;
      sent_count = 1;
    }
  in
  tcb.snd_nxt <- Seq.add tcb.snd_nxt 1;
  add_to_do tcb
    (Send_segment
       {
         out_seq = entry.rtx_seq;
         out_syn = true;
         out_fin = false;
         out_rst = false;
         out_psh = false;
         out_ack = with_ack;
         out_data = None;
         out_mss = Some tcb.adv_mss;
         out_is_rtx = false;
       });
  Resend.track params tcb entry ~now

let active_open (params : params) ~cc ~iss ~mss ~now =
  let tcb = create_tcb_with_mss params ~cc ~iss ~mss in
  queue_syn params tcb ~with_ack:false ~now;
  arm_user_timer params tcb;
  Syn_sent tcb

let passive_open (params : params) ~cc ~iss ~mss ~syn ~now =
  let h = syn.hdr in
  let tcb = create_tcb_with_mss params ~cc ~iss ~mss in
  tcb.irs <- h.Tcp_header.seq;
  tcb.rcv_nxt <- Seq.add h.Tcp_header.seq 1;
  tcb.snd_wnd <- h.Tcp_header.window;
  tcb.max_snd_wnd <- h.Tcp_header.window;
  tcb.snd_wl1 <- h.Tcp_header.seq;
  tcb.snd_wl2 <- Seq.zero;
  (match h.Tcp_header.mss with
  | Some peer_mss -> tcb.snd_mss <- Int.min tcb.snd_mss peer_mss
  | None -> ());
  queue_syn params tcb ~with_ack:true ~now;
  arm_user_timer params tcb;
  Syn_passive tcb

(* A passive open completing from compact half-open state (SYN-cache hit
   or a validated SYN cookie): the SYN/SYN-ACK exchange already happened
   without a TCB, so the fresh TCB is born directly in ESTABLISHED with
   its SYN consumed and acknowledged.  The engine feeds the promoting ACK
   itself through the receive DAG afterwards, so any text or FIN riding
   on it is processed normally. *)
let promote_passive (params : params) ~cc ~iss ~irs ~mss ~peer_mss ~wnd =
  let tcb = create_tcb_with_mss params ~cc ~iss ~mss in
  tcb.snd_una <- Seq.add iss 1;
  tcb.snd_nxt <- Seq.add iss 1;
  tcb.irs <- irs;
  tcb.rcv_nxt <- Seq.add irs 1;
  tcb.snd_wnd <- wnd;
  tcb.max_snd_wnd <- wnd;
  tcb.snd_wl1 <- Seq.add irs 1;
  tcb.snd_wl2 <- Seq.add iss 1;
  (match peer_mss with
  | Some m -> tcb.snd_mss <- Int.min tcb.snd_mss m
  | None -> ());
  tcb.cwnd <- Congestion.initial_cwnd cc ~mss:tcb.snd_mss;
  add_to_do tcb Complete_open;
  arm_user_timer params tcb;
  Estab tcb

let close (params : params) state ~now =
  match state with
  | Closed | Listen -> Closed
  | Syn_sent tcb ->
    (* nothing is established; delete quietly *)
    add_to_do tcb Complete_close;
    add_to_do tcb Delete_tcb;
    Closed
  | Syn_active tcb | Syn_passive tcb ->
    Send.enqueue_fin params tcb ~now;
    Fin_wait_1 tcb
  | Estab tcb ->
    Send.enqueue_fin params tcb ~now;
    Fin_wait_1 tcb
  | Close_wait tcb ->
    (* leaving CLOSE-WAIT: no data ACK may fire after our FIN *)
    cancel_delayed_ack tcb;
    Send.enqueue_fin params tcb ~now;
    Last_ack tcb
  | Fin_wait_1 _ | Fin_wait_2 _ | Closing _ | Last_ack _ | Time_wait _ ->
    (* already closing; the user call is redundant *)
    state

let abort (_params : params) state =
  match state with
  | Closed | Listen -> Closed
  | Time_wait _ ->
    invalid_arg "State.abort: a TIME-WAIT connection is the engine's tombstone"
  | Syn_sent tcb ->
    cancel_delayed_ack tcb;
    add_to_do tcb Delete_tcb;
    Closed
  | Syn_active tcb | Syn_passive tcb | Estab tcb | Fin_wait_1 tcb
  | Fin_wait_2 tcb | Close_wait tcb | Closing tcb | Last_ack tcb ->
    (* the TCB is about to be freed: a stale delayed-ACK timer must not
       fire an ACK on it (or on a later connection reusing the port) *)
    cancel_delayed_ack tcb;
    queue_rst tcb ~seq:tcb.snd_nxt ~with_ack:true;
    add_to_do tcb Delete_tcb;
    Closed

let rtx_limit_reason = "retransmission limit exceeded"

let persist_reason = "persist timeout"

let user_timeout_reason = "user timeout"

let keepalive_reason = "keepalive timeout"

let give_up tcb ~reason =
  if !Bus.live then
    Bus.emit ~layer:"tcp.state" ~conn:tcb.obs_id
      (Bus.Note ("give up: " ^ reason));
  cancel_delayed_ack tcb;
  add_to_do tcb (User_error reason);
  add_to_do tcb Delete_tcb;
  Closed

let timer_expired (params : params) state kind ~now =
  match tcb_of state with
  | None -> state
  | Some tcb -> (
    match kind with
    | Retransmit ->
      if Resend.retransmit params tcb ~now then state
      else give_up tcb ~reason:rtx_limit_reason
    | Delayed_ack ->
      tcb.ack_timer_on <- false;
      if tcb.ack_pending then begin
        tcb.ack_pending <- false;
        add_to_do tcb Send_ack
      end;
      state
    | Time_wait ->
      invalid_arg "State.timer_expired: 2·MSL runs on the engine's tombstone"
    | Window_probe ->
      if tcb.snd_wnd = 0 then begin
        tcb.persist_probes <- tcb.persist_probes + 1;
        if
          params.persist_max_probes > 0
          && tcb.persist_probes > params.persist_max_probes
        then
          (* bounded persist lifetime: the peer has advertised a zero
             window and ignored this many probes — stop holding memory
             for it *)
          give_up tcb ~reason:persist_reason
        else begin
          Send.probe params tcb ~now;
          state
        end
      end
      else begin
        Send.probe params tcb ~now;
        state
      end
    | Pacing ->
      (* the requested inter-segment gap elapsed: resume segmentation *)
      tcb.pacing_timer_on <- false;
      Send.segmentize params tcb ~now;
      state
    | Keepalive ->
      (* RFC 1122 keepalive: if the connection has been idle for the whole
         interval, probe with a sequence number the peer must re-ACK;
         after [keepalive_probes] unanswered probes, give up.  Any
         received segment resets [last_activity] and [probes_sent] (the
         engine does that on every Process_data). *)
      if not (synchronized state) then state
      else if now - tcb.last_activity < params.keepalive_us then begin
        (* traffic since the timer was set: just re-arm *)
        add_to_do tcb (Set_timer (Keepalive, params.keepalive_us));
        state
      end
      else if tcb.probes_sent >= params.keepalive_probes then
        give_up tcb ~reason:keepalive_reason
      else begin
        tcb.probes_sent <- tcb.probes_sent + 1;
        if !Bus.live then
          Bus.emit ~layer:"tcp.state" ~conn:tcb.obs_id
            (Bus.Note
               (Printf.sprintf "keepalive probe %d/%d" tcb.probes_sent
                  params.keepalive_probes));
        add_to_do tcb
          (Send_segment
             {
               out_seq = Seq.add tcb.snd_nxt (-1);
               out_syn = false;
               out_fin = false;
               out_rst = false;
               out_psh = false;
               out_ack = true;
               out_data = None;
               out_mss = None;
               out_is_rtx = false;
             });
        add_to_do tcb (Set_timer (Keepalive, params.keepalive_us));
        state
      end
    | User_timeout ->
      (* "the length of time before hung operations fail": if anything has
         been waiting for the peer for the whole period, give up;
         otherwise re-arm.  With [user_timeout_stalled] the test is the
         RFC 5482 shape instead: merely having data outstanding at the
         expiry instant is not failure — abort only when retransmission
         has made no forward progress ([tcb.stalled_since]) for a full
         period. *)
      if not (synchronized state) then give_up tcb ~reason:user_timeout_reason
      else if params.user_timeout_stalled then
        if
          tcb.stalled_since >= 0
          && now - tcb.stalled_since >= params.user_timeout_us
        then give_up tcb ~reason:user_timeout_reason
        else begin
          arm_user_timer params tcb;
          state
        end
      else if
        (not (Fox_basis.Ring.is_empty tcb.rtx_q)) || tcb.queued_bytes > 0
      then give_up tcb ~reason:user_timeout_reason
      else begin
        arm_user_timer params tcb;
        state
      end)
