open Fox_basis
open Tcb

(* How much new sequence space may be sent: min(peer window, congestion
   window) minus what is in flight, floored at 0. *)
let usable_window tcb =
  Int.max 0 (Int.min tcb.snd_wnd tcb.cwnd - flight_size tcb)

(* Take up to [budget] bytes off the front of the send queue.  When a
   whole user packet fits it is used as segment text directly (the
   single-copy discipline); only a packet straddling the segment boundary
   is split, which costs one copy of the head piece. *)
let take_bytes tcb budget =
  if Ring.is_empty tcb.queued then None
  else begin
    let packet = Ring.pop tcb.queued in
    let len = Packet.length packet in
    if len <= budget then begin
      tcb.queued_bytes <- tcb.queued_bytes - len;
      Some packet
    end
    else begin
      let head = Packet.sub ~headroom:64 packet 0 budget in
      let tail = Packet.sub ~headroom:64 packet budget (len - budget) in
      Packet.release packet;
      Ring.push_front tcb.queued tail;
      tcb.queued_bytes <- tcb.queued_bytes - budget;
      Some head
    end
  end

let emit_segment (params : params) tcb ~now ~data ~fin =
  let len = (match data with Some d -> Packet.length d | None -> 0)
            + if fin then 1 else 0 in
  (* the segment text is referenced twice from here: by the send action
     (consumed when externalised) and by the retransmission entry
     (released when fully acknowledged) *)
  (match data with Some d -> Packet.retain d | None -> ());
  let entry =
    {
      rtx_seq = tcb.snd_nxt;
      rtx_len = len;
      rtx_syn = false;
      rtx_fin = fin;
      rtx_ack = true;
      rtx_data = data;
      rtx_mss = None;
      first_sent_at = now;
      sent_count = 1;
    }
  in
  tcb.snd_nxt <- Seq.add tcb.snd_nxt len;
  add_to_do tcb
    (Send_segment
       {
         out_seq = entry.rtx_seq;
         out_syn = false;
         out_fin = fin;
         out_rst = false;
         out_psh = data <> None && Ring.is_empty tcb.queued;
         out_ack = true;
         out_data = data;
         out_mss = None;
         out_is_rtx = false;
       });
  Resend.track params tcb entry ~now;
  tcb.last_emit_at <- now;
  (* a pacing algorithm may space the next emission; window-only
     algorithms return None and this segment costs nothing extra *)
  if len > 0 then
    match
      Congestion.pacing_gap_us tcb.cc
        (Resend.cc_ctx params tcb ~now)
        ~seg_bytes:len
    with
    | Some gap when gap > 0 -> tcb.pacing_until <- now + gap
    | _ -> ()

(* When the congestion module asked for an inter-segment gap, hold
   segmentation and arm the [Pacing] timer for the residual wait. *)
let paced_out tcb ~now =
  tcb.pacing_until > now
  &&
  (if not tcb.pacing_timer_on then begin
     tcb.pacing_timer_on <- true;
     add_to_do tcb (Set_timer (Pacing, tcb.pacing_until - now))
   end;
   true)

let may_send_fin tcb =
  tcb.fin_pending && (not tcb.fin_sent) && tcb.queued_bytes = 0

let rec segmentize (params : params) tcb ~now =
  let usable = usable_window tcb in
  if tcb.queued_bytes > 0 then begin
    let size = Int.min (Int.min tcb.queued_bytes tcb.snd_mss) usable in
    if size = 0 then begin
      (* window closed (or full): if nothing is in flight to provoke more
         ACKs, arm the zero-window probe timer *)
      if tcb.snd_wnd = 0 && Ring.is_empty tcb.rtx_q then
        add_to_do tcb (Set_timer (Window_probe, Resend.rto params tcb))
    end
    else if
      (* Nagle: while data is in flight, hold sub-MSS segments back *)
      params.nagle && size < tcb.snd_mss && flight_size tcb > 0
    then ()
    else if paced_out tcb ~now then ()
    else begin
      match take_bytes tcb size with
      | None -> ()
      | Some data ->
        let fin = may_send_fin tcb && 1 <= usable - Packet.length data in
        if fin then tcb.fin_sent <- true;
        tcb.bytes_out <- tcb.bytes_out + Packet.length data;
        emit_segment params tcb ~now ~data:(Some data) ~fin;
        segmentize params tcb ~now
    end
  end
  else if may_send_fin tcb && usable >= 1 then begin
    tcb.fin_sent <- true;
    emit_segment params tcb ~now ~data:None ~fin:true
  end

let enqueue params tcb packet ~now =
  (* RFC 5681 §4.1: let the algorithm react to a send restarting after an
     idle period (nothing in flight, nothing queued).  Reno keeps the
     pre-refactor behaviour: no reaction. *)
  if
    tcb.queued_bytes = 0
    && Ring.is_empty tcb.rtx_q && tcb.last_emit_at > 0
    && now > tcb.last_emit_at
  then
    Resend.apply_reaction tcb
      (Congestion.on_idle_restart tcb.cc
         (Resend.cc_ctx params tcb ~now)
         ~idle_us:(now - tcb.last_emit_at));
  Ring.push tcb.queued packet;
  tcb.queued_bytes <- tcb.queued_bytes + Packet.length packet;
  segmentize params tcb ~now

let enqueue_fin params tcb ~now =
  if not tcb.fin_pending then begin
    tcb.fin_pending <- true;
    segmentize params tcb ~now
  end

let probe params tcb ~now =
  if tcb.snd_wnd = 0 && tcb.queued_bytes > 0 && Ring.is_empty tcb.rtx_q
  then begin
    (* send one byte beyond the window to provoke an ACK *)
    (match take_bytes tcb 1 with
    | Some data ->
      tcb.bytes_out <- tcb.bytes_out + 1;
      emit_segment params tcb ~now ~data:(Some data) ~fin:false
    | None -> ());
    add_to_do tcb (Set_timer (Window_probe, Resend.rto params tcb))
  end
  else if
    params.persist_max_probes > 0
    && tcb.snd_wnd = 0
    && not (Ring.is_empty tcb.rtx_q)
  then
    (* the probe byte itself is sitting on the retransmission queue (the
       peer ACKs it without accepting it): keep the persist clock ticking
       so the bounded lifetime in [State.timer_expired] can fire.  Without
       the bound (the historical default) the timer chain dies here and
       the probe's own retransmission budget is the only limit. *)
    add_to_do tcb (Set_timer (Window_probe, Resend.rto params tcb))
