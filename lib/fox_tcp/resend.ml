open Fox_basis
open Tcb
module Bus = Fox_obs.Bus

(* Flight-recorder note.  Every call site tests [!Bus.live] first, so a
   disabled bus costs one ref read and formats nothing. *)
let notef tcb fmt =
  Printf.ksprintf
    (fun msg -> Bus.emit ~layer:"tcp.resend" ~conn:tcb.obs_id (Bus.Note msg))
    fmt

(* Retransmissions of one segment before the connection gives up. *)
let max_retransmits = 12

(* on [int]: a polymorphic compare here would be a C call on the RTO
   path that inlining copies into every sender *)
let clamp (lo : int) hi v = if v < lo then lo else if v > hi then hi else v

let rto (params : params) tcb =
  clamp params.rto_min_us params.rto_max_us (tcb.rto_us lsl tcb.backoff)

(* Jacobson 1988, in microseconds with the standard 1/8 and 1/4 gains. *)
let sample (params : params) tcb ~sample_us =
  if tcb.srtt_us < 0 then begin
    tcb.srtt_us <- sample_us;
    tcb.rttvar_us <- sample_us / 2
  end
  else begin
    let err = sample_us - tcb.srtt_us in
    tcb.srtt_us <- tcb.srtt_us + (err / 8);
    let dev = abs err - tcb.rttvar_us in
    tcb.rttvar_us <- tcb.rttvar_us + (dev / 4)
  end;
  tcb.rto_us <-
    clamp params.rto_min_us params.rto_max_us
      (tcb.srtt_us + Int.max 1 (4 * tcb.rttvar_us));
  if !Bus.live then
    notef tcb "rtt sample=%dus srtt=%dus rttvar=%dus rto=%dus" sample_us
      tcb.srtt_us tcb.rttvar_us tcb.rto_us

let set_rtx_timer params tcb =
  if not tcb.rtx_timer_on then begin
    tcb.rtx_timer_on <- true;
    add_to_do tcb (Set_timer (Retransmit, rto params tcb))
  end

let clear_rtx_timer tcb =
  if tcb.rtx_timer_on then begin
    tcb.rtx_timer_on <- false;
    add_to_do tcb (Clear_timer Retransmit)
  end

let track (params : params) tcb entry ~now =
  entry.first_sent_at <- now;
  (* the stall clock starts when the queue goes from empty to non-empty:
     from here, only ACK progress (process_ack) refreshes it *)
  if Ring.is_empty tcb.rtx_q then tcb.stalled_since <- now;
  Ring.push tcb.rtx_q entry;
  (* Karn: time one segment at a time, never a retransmission, and never
     while a recovery episode is still in progress ([karn_until]): a
     fresh segment sent behind an unrepaired hole is only covered by the
     cumulative ACK that repairs the hole, so its "sample" would include
     the whole recovery episode and poison srtt (DESIGN §12). *)
  if
    tcb.timed_at < 0 && entry.sent_count = 1
    && Seq.ge tcb.snd_una tcb.karn_until
  then begin
    tcb.timed_end <- Seq.add entry.rtx_seq entry.rtx_len;
    tcb.timed_at <- now
  end;
  set_rtx_timer params tcb

(* The read-only snapshot every congestion hook receives. *)
let cc_ctx (params : params) tcb ~now =
  {
    Congestion.mss = tcb.snd_mss;
    flight = flight_size tcb;
    cwnd = tcb.cwnd;
    ssthresh = tcb.ssthresh;
    una = tcb.snd_una;
    nxt = tcb.snd_nxt;
    srtt_us = tcb.srtt_us;
    rto_us = rto params tcb;
    now;
  }

let resend_entry tcb entry =
  entry.sent_count <- entry.sent_count + 1;
  tcb.retransmissions <- tcb.retransmissions + 1;
  (* the queued send action takes its own reference to the text *)
  (match entry.rtx_data with Some d -> Packet.retain d | None -> ());
  (* Karn: no RTT sample may survive any retransmission during the timed
     flight.  Clearing only when the timed octet itself was resent (the
     earlier rule) let an RTO chain retransmit older holes while the timed
     segment waited in the queue; the eventual cumulative ACK covering it
     then yielded a multi-second "sample" that poisoned srtt.  The same
     poisoning applies to segments sent *after* this retransmission while
     the hole is still open, so the whole flight up to [snd_nxt] is
     barred from starting a new timing ([karn_until], checked in
     [track]). *)
  tcb.timed_at <- -1;
  if Seq.gt tcb.snd_nxt tcb.karn_until then tcb.karn_until <- tcb.snd_nxt;
  add_to_do tcb
    (Send_segment
       {
         out_seq = entry.rtx_seq;
         out_syn = entry.rtx_syn;
         out_fin = entry.rtx_fin;
         out_rst = false;
         out_psh = entry.rtx_data <> None;
         out_ack = entry.rtx_ack;
         out_data = entry.rtx_data;
         out_mss = entry.rtx_mss;
         out_is_rtx = true;
       })

(* Apply a congestion hook's decision, clamping to the global invariants
   (cwnd ≥ 1 MSS, ssthresh ≥ 2 MSS) the checkers assert for every
   algorithm.  [retransmit_front] is NewReno's partial-ACK retransmission:
   after [process_ack] trimmed the queue, the front entry is the next
   unacknowledged hole. *)
let apply_reaction tcb (r : Congestion.reaction) =
  tcb.cwnd <- Int.max tcb.snd_mss r.Congestion.next_cwnd;
  tcb.ssthresh <- Int.max (2 * tcb.snd_mss) r.Congestion.next_ssthresh;
  if r.Congestion.retransmit_front && not (Ring.is_empty tcb.rtx_q) then
    resend_entry tcb (Ring.peek tcb.rtx_q)

let process_ack (params : params) tcb ~ack ~now =
  if Seq.le ack tcb.snd_una then false
  else begin
    let acked = Seq.diff ack tcb.snd_una in
    tcb.snd_una <- ack;
    tcb.dup_acks <- 0;
    (* drop fully covered entries; the front entry may be partially
       covered (can only happen for data segments) *)
    let q = tcb.rtx_q in
    while
      (not (Ring.is_empty q))
      &&
      let e = Ring.peek q in
      Seq.le (Seq.add e.rtx_seq e.rtx_len) ack
    do
      let e = Ring.pop q in
      if e.rtx_fin then tcb.fin_acked <- true;
      (* fully acknowledged: the queue's reference to the text dies *)
      match e.rtx_data with Some d -> Packet.release d | None -> ()
    done;
    (* RTT sample if the timed octet is now acknowledged *)
    if tcb.timed_at >= 0 && Seq.le tcb.timed_end ack then begin
      let sent_at = tcb.timed_at in
      tcb.timed_at <- -1;
      sample params tcb ~sample_us:(now - sent_at)
    end;
    tcb.backoff <- 0;
    tcb.full_rto_streak <- 0;
    (* forward progress: either the stall is over (queue drained) or the
       stall clock restarts from this ACK *)
    tcb.stalled_since <- (if Ring.is_empty tcb.rtx_q then -1 else now);
    apply_reaction tcb
      (Congestion.on_ack tcb.cc (cc_ctx params tcb ~now) ~acked);
    if Ring.is_empty tcb.rtx_q then clear_rtx_timer tcb
    else begin
      (* restart the timer for the remaining data *)
      clear_rtx_timer tcb;
      set_rtx_timer params tcb
    end;
    true
  end

let duplicate_ack (params : params) tcb ~now =
  if not (Ring.is_empty tcb.rtx_q) then begin
    tcb.dup_acks <- tcb.dup_acks + 1;
    apply_reaction tcb
      (Congestion.on_dup_ack tcb.cc (cc_ctx params tcb ~now)
         ~count:tcb.dup_acks);
    if tcb.dup_acks = 3 then begin
      (* fast retransmit: resend the first unacknowledged segment —
         algorithm-independent loss repair (the window reaction above is
         the algorithm's business) *)
      if !Bus.live then
        notef tcb "fast retransmit cwnd=%d ssthresh=%d" tcb.cwnd tcb.ssthresh;
      resend_entry tcb (Ring.peek tcb.rtx_q)
    end
  end

(* Split every queue entry carrying more data than the (just-halved) MSS
   into MSS-sized chunks.  Send history ([first_sent_at]/[sent_count]) is
   preserved on every chunk so the retransmission budget still counts
   from the original loss, and the FIN moves to the last chunk.  SYN
   entries are never split (they carry no bulk data in this stack). *)
let resegment_rtx_q tcb =
  let mss = tcb.snd_mss in
  let split e =
    match e.rtx_data with
    | Some d when (not e.rtx_syn) && Packet.length d > mss ->
      let len = Packet.length d in
      let rec chunks off acc =
        if off >= len then List.rev acc
        else begin
          let n = Int.min mss (len - off) in
          let last = off + n >= len in
          let chunk =
            {
              rtx_seq = Seq.add e.rtx_seq off;
              rtx_len = n + (if last && e.rtx_fin then 1 else 0);
              rtx_syn = false;
              rtx_fin = last && e.rtx_fin;
              rtx_ack = e.rtx_ack;
              rtx_data = Some (Packet.sub ~headroom:64 d off n);
              rtx_mss = None;
              first_sent_at = e.first_sent_at;
              sent_count = e.sent_count;
            }
          in
          chunks (off + n) (chunk :: acc)
        end
      in
      let cs = chunks 0 [] in
      Packet.release d;
      cs
    | _ -> [ e ]
  in
  let entries = List.concat_map split (Ring.to_list tcb.rtx_q) in
  Ring.clear tcb.rtx_q;
  List.iter (Ring.push tcb.rtx_q) entries

(* RFC 4821-style blackhole detection: a path that silently eats large
   frames shows up as repeated RTOs of full-MSS segments with no ICMP and
   no duplicate ACKs.  After [blackhole_rtos] such RTOs in a row, assume
   the path MTU shrank under us: halve the effective send MSS (never below
   [blackhole_min_mss], the RFC 879 default MSS) and re-segment the queue
   so the retransmissions actually fit through. *)
let blackhole_rtos = 3

let blackhole_min_mss = 536

let check_blackhole tcb entry =
  let full_mss =
    match entry.rtx_data with
    | Some d -> Packet.length d >= tcb.snd_mss
    | None -> false
  in
  if not full_mss then tcb.full_rto_streak <- 0
  else begin
    tcb.full_rto_streak <- tcb.full_rto_streak + 1;
    if
      tcb.full_rto_streak >= blackhole_rtos
      && tcb.snd_mss > blackhole_min_mss
    then begin
      let prev = tcb.snd_mss in
      tcb.snd_mss <- Int.max blackhole_min_mss (tcb.snd_mss / 2);
      tcb.full_rto_streak <- 0;
      tcb.blackhole_shrinks <- tcb.blackhole_shrinks + 1;
      if !Bus.live then
        notef tcb "blackhole suspected: mss %d -> %d, re-segmenting %d entries"
          prev tcb.snd_mss (Ring.length tcb.rtx_q);
      resegment_rtx_q tcb
    end
  end

let retransmit (params : params) tcb ~now =
  tcb.rtx_timer_on <- false;
  if Ring.is_empty tcb.rtx_q then true (* spurious: nothing outstanding *)
  else begin
    let entry = Ring.peek tcb.rtx_q in
    if entry.sent_count > max_retransmits then false
    else begin
      if params.blackhole_detect then check_blackhole tcb entry;
      (* re-segmentation may have replaced the front entry *)
      let entry = Ring.peek tcb.rtx_q in
      apply_reaction tcb (Congestion.on_rto tcb.cc (cc_ctx params tcb ~now));
      tcb.backoff <- Int.min (tcb.backoff + 1) 16;
      if !Bus.live then
        notef tcb "rto expired backoff=%d cwnd=%d ssthresh=%d rto=%dus"
          tcb.backoff tcb.cwnd tcb.ssthresh (rto params tcb);
      resend_entry tcb entry;
      set_rtx_timer params tcb;
      true
    end
  end
