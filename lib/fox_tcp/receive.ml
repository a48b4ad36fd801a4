open Fox_basis
open Tcb

(* ------------------------------------------------------------------ *)
(* Acknowledgement policy                                             *)
(* ------------------------------------------------------------------ *)

(* Queue an immediate ACK. *)
let ack_now tcb =
  if tcb.ack_timer_on then begin
    tcb.ack_timer_on <- false;
    add_to_do tcb (Clear_timer Delayed_ack)
  end;
  tcb.ack_pending <- false;
  add_to_do tcb Send_ack

(* Data arrived in order: acknowledge every second segment immediately,
   otherwise start the delayed-ACK timer ("a Set_Timer for the ack timer if
   the ack is to be delayed", Section 4). *)
let ack_data (params : params) tcb =
  if params.delayed_ack_us <= 0 then ack_now tcb
  else if tcb.ack_pending then ack_now tcb
  else begin
    tcb.ack_pending <- true;
    if not tcb.ack_timer_on then begin
      tcb.ack_timer_on <- true;
      add_to_do tcb (Set_timer (Delayed_ack, params.delayed_ack_us))
    end
  end

(* ------------------------------------------------------------------ *)
(* RFC 5961 challenge ACKs                                            *)
(* ------------------------------------------------------------------ *)

(* The budget is layered (the CVE-2016-5696 lesson): first a
   per-connection allowance, then the engine's shared cap on top.  A
   single shared exhaustible counter — what this code used to keep, and
   what RFC 5961 §10 itself suggests — is an off-path side channel: an
   attacker sprays one connection it owns until the counter pegs, and
   the *absence* of challenges on a victim connection then leaks whether
   its guesses were in-window.  Per-connection budgets remove the shared
   signal; the engine cap merely bounds aggregate amplification and is
   sized so honest connections never feel it.  The window is one virtual
   second; the clock restarting below a window start (a fresh
   [Scheduler.run] in a test or harness) resets that window, so
   sequential deterministic runs do not see each other's spend. *)
let challenge_window_us = 1_000_000

(* The engine's cap per window: challenges beyond it are counted but not
   sent. *)
let challenge_ack_limit = 100

(* [new_window ~now start]: a budget window that began at [start] is
   over. *)
let new_window ~now start =
  now < start || now - start >= challenge_window_us

(* The engine's share of the budget, checked after the connection's. *)
let engine_budget_ok cap ~now =
  if new_window ~now cap.cap_window_start then begin
    cap.cap_window_start <- now;
    cap.cap_sent <- 0
  end;
  cap.cap_sent < challenge_ack_limit

let challenge_budget_ok (params : params) tcb ~now =
  let conn_ok =
    params.challenge_ack_conn_limit <= 0
    || begin
         if new_window ~now tcb.chall_window_start then begin
           tcb.chall_window_start <- now;
           tcb.chall_sent <- 0
         end;
         tcb.chall_sent < params.challenge_ack_conn_limit
       end
  in
  let ok = conn_ok && engine_budget_ok tcb.chall_cap ~now in
  if ok then begin
    tcb.chall_sent <- tcb.chall_sent + 1;
    tcb.chall_cap.cap_sent <- tcb.chall_cap.cap_sent + 1
  end;
  ok

(* A challenge ACK is an ordinary pure ACK at the current snd_nxt/rcv_nxt:
   a legitimate peer that really lost sync answers it with an exact-match
   RST, while a blind attacker learns nothing and burns its probe. *)
let challenge_ack (params : params) tcb ~now ~kind =
  (match kind with
  | `Rst -> tcb.rst_challenges <- tcb.rst_challenges + 1
  | `Syn -> tcb.syn_challenges <- tcb.syn_challenges + 1
  | `Ack -> tcb.ack_challenges <- tcb.ack_challenges + 1);
  if challenge_budget_ok params tcb ~now then begin
    tcb.challenge_acks_sent <- tcb.challenge_acks_sent + 1;
    ack_now tcb
  end
  else tcb.challenge_acks_limited <- tcb.challenge_acks_limited + 1

(* ------------------------------------------------------------------ *)
(* Segment acceptability (RFC 793 p. 69, the four-case table)          *)
(* ------------------------------------------------------------------ *)

let acceptable ~rcv_nxt ~rcv_wnd seg =
  let len = seg_len seg in
  let seq = seg.hdr.Tcp_header.seq in
  match (len, rcv_wnd) with
  | 0, 0 -> Seq.equal seq rcv_nxt
  | 0, _ -> Seq.in_window ~base:rcv_nxt ~size:rcv_wnd seq
  | _, 0 -> false
  | _, _ ->
    Seq.in_window ~base:rcv_nxt ~size:rcv_wnd seq
    || Seq.in_window ~base:rcv_nxt ~size:rcv_wnd (Seq.add seq (len - 1))

(* ------------------------------------------------------------------ *)
(* Out-of-order queue                                                 *)
(* ------------------------------------------------------------------ *)

let insert_out_of_order (params : params) tcb seg =
  tcb.ooo_segments <- tcb.ooo_segments + 1;
  let seq_of s = s.hdr.Tcp_header.seq in
  (* keep sorted; drop exact duplicates (same start) *)
  let rec ins = function
    | [] ->
      tcb.ooo_bytes <- tcb.ooo_bytes + Packet.length seg.data;
      [ seg ]
    | s :: rest as all ->
      if Seq.lt (seq_of seg) (seq_of s) then begin
        tcb.ooo_bytes <- tcb.ooo_bytes + Packet.length seg.data;
        seg :: all
      end
      else if Seq.equal (seq_of seg) (seq_of s) then begin
        tcb.dup_segments <- tcb.dup_segments + 1;
        Packet.release seg.data;
        all
      end
      else s :: ins rest
  in
  tcb.out_of_order <- ins tcb.out_of_order;
  (* Admission control on reassembly memory: while over the cap, evict
     the entry furthest from [rcv_nxt] — the peer retransmits it anyway,
     and dropping from the tail keeps the contiguity-restoring low end.
     Each pass removes one entry, so the loop terminates. *)
  if params.max_ooo_bytes > 0 then
    while
      tcb.ooo_bytes > params.max_ooo_bytes && tcb.out_of_order <> []
    do
      match List.rev tcb.out_of_order with
      | [] -> ()
      | last :: prefix_rev ->
        tcb.out_of_order <- List.rev prefix_rev;
        tcb.ooo_bytes <- tcb.ooo_bytes - Packet.length last.data;
        tcb.ooo_trimmed <- tcb.ooo_trimmed + 1;
        Packet.release last.data
    done

(* ------------------------------------------------------------------ *)
(* In-order text delivery                                             *)
(* ------------------------------------------------------------------ *)

(* Deliver the in-window part of an in-order segment, advance rcv_nxt, and
   absorb any out-of-order segments that became contiguous.  Returns true
   when the segment's FIN was consumed (its sequence number reached). *)
let deliver_text (params : params) tcb seg =
  let fin_seen = ref false in
  let consume s =
    let seq = s.hdr.Tcp_header.seq in
    let data_len = Packet.length s.data in
    let offset = Seq.diff tcb.rcv_nxt seq in
    (* [offset] bytes are old (already delivered); skip them *)
    if offset < data_len then begin
      let fresh =
        if offset = 0 then s.data
        else begin
          (* only the tail is fresh: it moves to a new packet and the
             original's reference is dropped here *)
          let f = Packet.sub s.data offset (data_len - offset) in
          Packet.release s.data;
          f
        end
      in
      tcb.bytes_in <- tcb.bytes_in + Packet.length fresh;
      add_to_do tcb (User_data fresh);
      tcb.rcv_nxt <- Seq.add seq data_len
    end
    else begin
      (* nothing fresh — entirely old data, or a pure FIN whose
         zero-length packet still owns a buffer: give it back *)
      if data_len > 0 && offset > data_len then
        tcb.dup_segments <- tcb.dup_segments + 1;
      Packet.release s.data
    end;
    (* consume the FIN if it is exactly next *)
    if s.hdr.Tcp_header.fin && Seq.equal tcb.rcv_nxt (Seq.add seq data_len)
    then begin
      tcb.rcv_nxt <- Seq.add tcb.rcv_nxt 1;
      fin_seen := true
    end
  in
  consume seg;
  (* absorb contiguous out-of-order segments *)
  let rec absorb () =
    match tcb.out_of_order with
    | s :: rest when Seq.le s.hdr.Tcp_header.seq tcb.rcv_nxt ->
      tcb.out_of_order <- rest;
      tcb.ooo_bytes <- tcb.ooo_bytes - Packet.length s.data;
      if Seq.ge (Seq.add s.hdr.Tcp_header.seq (seg_len s)) tcb.rcv_nxt then
        consume s
      else begin
        tcb.dup_segments <- tcb.dup_segments + 1;
        Packet.release s.data
      end;
      absorb ()
    | _ -> ()
  in
  absorb ();
  (* a pushed segment marks the end of an application write: acknowledge
     immediately rather than waiting out the delayed-ACK timer *)
  if seg.hdr.Tcp_header.psh then ack_now tcb else ack_data params tcb;
  !fin_seen

(* ------------------------------------------------------------------ *)
(* The full DAG                                                       *)
(* ------------------------------------------------------------------ *)

(* RFC 793 p. 72, fifth step: ACK processing common to the synchronised
   states.  Returns [`Drop] when the segment must not be processed
   further, [`Continue] otherwise. *)
let process_ack_common (params : params) tcb seg ~now =
  let h = seg.hdr in
  if not h.Tcp_header.ack_flag then `Drop
  else begin
    let ack = h.Tcp_header.ack in
    if Seq.gt ack tcb.snd_nxt then begin
      (* acking the future: ack and drop (rate-limited under 5961, since
         a blind attacker can force these at wire speed) *)
      if params.rfc5961 then begin
        Packet.release seg.data;
        challenge_ack params tcb ~now ~kind:`Ack
      end
      else ack_now tcb;
      `Drop
    end
    else if
      (* RFC 5961 §5: an ACK further behind snd_una than the largest
         window the peer ever advertised cannot be a delayed legitimate
         ACK; challenge and drop — this is what keeps blind data
         injection (which must guess an acceptable ACK too) out *)
      params.rfc5961
      && Seq.lt ack (Seq.add tcb.snd_una (-tcb.max_snd_wnd))
    then begin
      Packet.release seg.data;
      challenge_ack params tcb ~now ~kind:`Ack;
      `Drop
    end
    else begin
      if Seq.gt ack tcb.snd_una then
        ignore (Resend.process_ack params tcb ~ack ~now)
      else if
        (* RFC 5681-style duplicate: no data, window unchanged, data
           outstanding *)
        Seq.equal ack tcb.snd_una
        && Packet.length seg.data = 0
        && (not (Ring.is_empty tcb.rtx_q))
        && h.Tcp_header.window = tcb.snd_wnd
      then Resend.duplicate_ack params tcb ~now;
      (* window update (p. 72) *)
      if
        Seq.lt tcb.snd_wl1 h.Tcp_header.seq
        || (Seq.equal tcb.snd_wl1 h.Tcp_header.seq && Seq.le tcb.snd_wl2 ack)
      then begin
        let changed = h.Tcp_header.window <> tcb.snd_wnd in
        let opening = h.Tcp_header.window > tcb.snd_wnd in
        tcb.snd_wnd <- h.Tcp_header.window;
        tcb.max_snd_wnd <- Int.max tcb.max_snd_wnd h.Tcp_header.window;
        tcb.snd_wl1 <- h.Tcp_header.seq;
        tcb.snd_wl2 <- ack;
        (* A window update is not a duplicate ACK (RFC 5681): end the
           current dup-ACK episode so the next loss can reach three again. *)
        if changed then tcb.dup_acks <- 0;
        if opening then begin
          tcb.persist_probes <- 0;
          add_to_do tcb (Clear_timer Window_probe)
        end
      end;
      Send.segmentize params tcb ~now;
      `Continue
    end
  end

(* Eighth step: FIN processing shared by the states that accept one.
   Returns the successor state. *)
let process_fin (params : params) state tcb =
  add_to_do tcb Peer_close;
  ack_now tcb;
  ignore params;
  match state with
  | Estab _ -> Close_wait tcb
  | Fin_wait_1 _ ->
    if tcb.fin_acked then begin
      add_to_do tcb (Set_timer (Time_wait, params.time_wait_us));
      Time_wait tcb
    end
    else Closing tcb
  | Fin_wait_2 _ ->
    add_to_do tcb (Set_timer (Time_wait, params.time_wait_us));
    Time_wait tcb
  | Close_wait _ | Closing _ | Last_ack _ | Time_wait _ | Closed | Listen
  | Syn_sent _ | Syn_active _ | Syn_passive _ ->
    state

(* SYN-SENT (RFC 793 p. 66). *)
let process_syn_sent (params : params) tcb seg ~now =
  let h = seg.hdr in
  let ack_acceptable =
    h.Tcp_header.ack_flag
    && Seq.gt h.Tcp_header.ack tcb.iss
    && Seq.le h.Tcp_header.ack tcb.snd_nxt
  in
  if h.Tcp_header.ack_flag && not ack_acceptable then begin
    (* bad ACK: reset unless it is itself a reset *)
    if not h.Tcp_header.rst then
      add_to_do tcb
        (Send_segment
           {
             out_seq = h.Tcp_header.ack;
             out_syn = false;
             out_fin = false;
             out_rst = true;
             out_psh = false;
             out_ack = false;
             out_data = None;
             out_mss = None;
             out_is_rtx = false;
           });
    Syn_sent tcb
  end
  else if h.Tcp_header.rst then begin
    if ack_acceptable then begin
      add_to_do tcb Peer_reset;
      add_to_do tcb Delete_tcb;
      Closed
    end
    else Syn_sent tcb
  end
  else if h.Tcp_header.syn then begin
    tcb.irs <- h.Tcp_header.seq;
    tcb.rcv_nxt <- Seq.add h.Tcp_header.seq 1;
    (match h.Tcp_header.mss with
    | Some mss -> tcb.snd_mss <- Int.min tcb.snd_mss mss
    | None -> ());
    if ack_acceptable then begin
      (* our SYN is acknowledged: connection established *)
      ignore (Resend.process_ack params tcb ~ack:h.Tcp_header.ack ~now);
      tcb.snd_wnd <- h.Tcp_header.window;
      tcb.max_snd_wnd <- Int.max tcb.max_snd_wnd h.Tcp_header.window;
      tcb.snd_wl1 <- h.Tcp_header.seq;
      tcb.snd_wl2 <- h.Tcp_header.ack;
      ack_now tcb;
      add_to_do tcb Complete_open;
      (* any queued early data may now flow *)
      Send.segmentize params tcb ~now;
      (* a FIN can ride on the SYN-ACK *)
      if h.Tcp_header.fin then process_fin params (Estab tcb) tcb
      else Estab tcb
    end
    else begin
      (* simultaneous open: SYN without ACK; answer with SYN-ACK *)
      tcb.snd_wnd <- h.Tcp_header.window;
      tcb.max_snd_wnd <- Int.max tcb.max_snd_wnd h.Tcp_header.window;
      tcb.snd_wl1 <- h.Tcp_header.seq;
      tcb.snd_wl2 <- Seq.zero;
      add_to_do tcb
        (Send_segment
           {
             out_seq = tcb.iss;
             out_syn = true;
             out_fin = false;
             out_rst = false;
             out_psh = false;
             out_ack = true;
             out_data = None;
             out_mss = Some tcb.adv_mss;
             out_is_rtx = true (* re-sends iss, already on the rtx queue *);
           });
      Syn_active tcb
    end
  end
  else Syn_sent tcb

(* The synchronised-state steps (pp. 69–76), shared from SYN-RECEIVED
   through LAST-ACK; TIME-WAIT has its own, {!time_wait}, on the
   tombstone. *)
let process_synchronized (params : params) state tcb seg ~now =
  let h = seg.hdr in
  (* first: sequence-number acceptability *)
  if not (acceptable ~rcv_nxt:tcb.rcv_nxt ~rcv_wnd:tcb.rcv_wnd seg) then begin
    tcb.dup_segments <- tcb.dup_segments + 1;
    Packet.release seg.data;
    if not h.Tcp_header.rst then ack_now tcb;
    state
  end
  else if h.Tcp_header.rst then begin
    (* second: RST.  RFC 5961 §3: tear down only when the RST sits exactly
       at [rcv_nxt]; a merely-in-window RST earns a rate-limited challenge
       ACK instead, so a blind attacker must hit one sequence number in
       2^32 rather than any of a window's worth.  A desynchronised but
       honest peer answers the challenge with an exact-match RST. *)
    if (not params.rfc5961) || Seq.equal h.Tcp_header.seq tcb.rcv_nxt
    then begin
      add_to_do tcb Peer_reset;
      add_to_do tcb Delete_tcb;
      Closed
    end
    else begin
      Packet.release seg.data;
      challenge_ack params tcb ~now ~kind:`Rst;
      state
    end
  end
  else if h.Tcp_header.syn && Seq.ge h.Tcp_header.seq tcb.rcv_nxt then begin
    (* fourth: SYN in the window.  RFC 793 resets the connection — which
       lets a blind SYN kill it as surely as a blind RST.  RFC 5961 §4
       challenges instead: a genuinely restarted peer answers the
       challenge ACK with an exact RST, everything else is noise. *)
    if params.rfc5961 then begin
      Packet.release seg.data;
      challenge_ack params tcb ~now ~kind:`Syn;
      state
    end
    else begin
      add_to_do tcb
        (Send_segment
           {
             out_seq = tcb.snd_nxt;
             out_syn = false;
             out_fin = false;
             out_rst = true;
             out_psh = false;
             out_ack = false;
             out_data = None;
             out_mss = None;
             out_is_rtx = false;
           });
      add_to_do tcb Peer_reset;
      add_to_do tcb Delete_tcb;
      Closed
    end
  end
  else begin
    (* fifth: ACK *)
    (* SYN-RECEIVED first moves to ESTABLISHED when our SYN is acked *)
    let state =
      match state with
      | Syn_active _ | Syn_passive _ ->
        if
          h.Tcp_header.ack_flag
          && Seq.gt h.Tcp_header.ack tcb.snd_una
          && Seq.le h.Tcp_header.ack tcb.snd_nxt
        then begin
          tcb.snd_wnd <- h.Tcp_header.window;
          tcb.max_snd_wnd <- Int.max tcb.max_snd_wnd h.Tcp_header.window;
          tcb.snd_wl1 <- h.Tcp_header.seq;
          tcb.snd_wl2 <- h.Tcp_header.ack;
          add_to_do tcb Complete_open;
          Estab tcb
        end
        else state
      | _ -> state
    in
    match state with
    | Syn_active _ | Syn_passive _ ->
      (* still waiting for the handshake ACK; nothing more to do *)
      Packet.release seg.data;
      state
    | _ -> (
      match process_ack_common params tcb seg ~now with
      | `Drop -> state
      | `Continue ->
        (* state-specific consequences of the ACK *)
        let state =
          match state with
          | Fin_wait_1 _ when tcb.fin_acked -> Fin_wait_2 tcb
          | Closing _ when tcb.fin_acked ->
            (* entering TIME-WAIT: no data ACK may fire during 2·MSL *)
            cancel_delayed_ack tcb;
            add_to_do tcb (Set_timer (Time_wait, params.time_wait_us));
            Time_wait tcb
          | Last_ack _ when tcb.fin_acked ->
            cancel_delayed_ack tcb;
            add_to_do tcb Complete_close;
            add_to_do tcb Delete_tcb;
            Closed
          | s -> s
        in
        if Closed = state then Closed
        else begin
          (* seventh: segment text *)
          let fin_consumed =
            match state with
            | Estab _ | Fin_wait_1 _ | Fin_wait_2 _ ->
              if Packet.length seg.data > 0 || h.Tcp_header.fin then begin
                if Seq.le h.Tcp_header.seq tcb.rcv_nxt then begin
                  tcb.segs_in <- tcb.segs_in + 1;
                  deliver_text params tcb seg
                end
                else begin
                  (* out of order: queue it and send a duplicate ACK *)
                  insert_out_of_order params tcb seg;
                  ack_now tcb;
                  false
                end
              end
              else false
            | _ ->
              (* past ESTABLISHED a FIN retransmission may still arrive;
                 any text is ignored, so drop its reference *)
              Packet.release seg.data;
              h.Tcp_header.fin
              && Seq.equal (Seq.add h.Tcp_header.seq (Packet.length seg.data))
                   (Seq.add tcb.rcv_nxt (-1))
              |> fun retrans ->
              if retrans then ack_now tcb;
              false
          in
          (* eighth: FIN *)
          if fin_consumed then process_fin params state tcb else state
        end)
  end

let process (params : params) state seg ~now =
  match state with
  | Syn_sent tcb -> process_syn_sent params tcb seg ~now
  | Syn_active tcb | Syn_passive tcb | Estab tcb | Fin_wait_1 tcb
  | Fin_wait_2 tcb | Close_wait tcb | Closing tcb | Last_ack tcb ->
    process_synchronized params state tcb seg ~now
  | Closed | Listen | Time_wait _ ->
    invalid_arg
      "Receive.process: CLOSED/LISTEN are handled by the engine, TIME-WAIT \
       by Receive.time_wait"

(* ------------------------------------------------------------------ *)
(* TIME-WAIT, on the tombstone                                        *)
(* ------------------------------------------------------------------ *)

(* The branches of [process_synchronized] a TIME-WAIT connection can
   still take, on its tombstone.  Everything we sent, FIN included, is
   acknowledged, so the ACK step never moves [snd_una] and nothing is
   retransmitted; nothing more is delivered, so the text step only drops
   text.  What remains is RFC 793 p. 73 — "the only thing that can
   arrive in this state is a retransmission of the remote FIN.
   Acknowledge it, and restart the 2 MSL timeout" — the RFC 5961
   challenges, and the peer's window history those need.  The result is
   the actions the full DAG would have queued, in its order. *)
let time_wait (params : params) ~cap ~tally tw seg ~now =
  let h = seg.hdr in
  (* a tombstone keeps no text *)
  Packet.release seg.data;
  let ack_fin = [ Send_ack; Set_timer (Time_wait, params.time_wait_us) ] in
  let challenge kind =
    (match kind with
    | `Rst -> tally.tally_rst <- tally.tally_rst + 1
    | `Syn -> tally.tally_syn <- tally.tally_syn + 1
    | `Ack -> tally.tally_ack <- tally.tally_ack + 1);
    (* the per-connection half of [challenge_budget_ok], on the
       tombstone's copy of the connection's budget *)
    let conn_ok =
      params.challenge_ack_conn_limit <= 0
      || begin
           if new_window ~now tw.tw_chall_window_start then begin
             tw.tw_chall_window_start <- now;
             tw.tw_chall_sent <- 0
           end;
           tw.tw_chall_sent < params.challenge_ack_conn_limit
         end
    in
    if conn_ok && engine_budget_ok cap ~now then begin
      tw.tw_chall_sent <- tw.tw_chall_sent + 1;
      cap.cap_sent <- cap.cap_sent + 1;
      tally.tally_sent <- tally.tally_sent + 1;
      [ Send_ack ]
    end
    else begin
      tally.tally_limited <- tally.tally_limited + 1;
      []
    end
  in
  let reset = [ Peer_reset; Delete_tcb ] in
  if
    not
      (acceptable ~rcv_nxt:tw.tw_rcv_nxt ~rcv_wnd:params.initial_window seg)
  then
    if h.Tcp_header.rst then []
    else if h.Tcp_header.fin then ack_fin
    else [ Send_ack ]
  else if h.Tcp_header.rst then
    if (not params.rfc5961) || Seq.equal h.Tcp_header.seq tw.tw_rcv_nxt then
      reset
    else challenge `Rst
  else if h.Tcp_header.syn && Seq.ge h.Tcp_header.seq tw.tw_rcv_nxt then
    if params.rfc5961 then challenge `Syn
    else
      Send_segment
        {
          out_seq = tw.tw_snd_nxt;
          out_syn = false;
          out_fin = false;
          out_rst = true;
          out_psh = false;
          out_ack = false;
          out_data = None;
          out_mss = None;
          out_is_rtx = false;
        }
      :: reset
  else if not h.Tcp_header.ack_flag then []
  else begin
    let ack = h.Tcp_header.ack in
    if Seq.gt ack tw.tw_snd_nxt then
      if params.rfc5961 then challenge `Ack else [ Send_ack ]
    else if
      params.rfc5961
      && Seq.lt ack (Seq.add tw.tw_snd_nxt (-tw.tw_max_snd_wnd))
    then challenge `Ack
    else begin
      (* the p. 72 window update, of the part the 5961 test reads *)
      if
        Seq.lt tw.tw_snd_wl1 h.Tcp_header.seq
        || Seq.equal tw.tw_snd_wl1 h.Tcp_header.seq
           && Seq.le tw.tw_snd_wl2 ack
      then begin
        tw.tw_max_snd_wnd <- Int.max tw.tw_max_snd_wnd h.Tcp_header.window;
        tw.tw_snd_wl1 <- h.Tcp_header.seq;
        tw.tw_snd_wl2 <- ack
      end;
      if h.Tcp_header.fin then ack_fin else []
    end
  end

(* ------------------------------------------------------------------ *)
(* The fast path ("handle the normal cases quickly")                  *)
(* ------------------------------------------------------------------ *)

(* Header prediction: the overwhelmingly common segments in ESTABLISHED
   are (a) a pure ACK for new data with an unchanged window and (b) the
   next expected in-order data segment that does not move our send state.
   For exactly those, the general receive DAG above reduces to a short
   straight-line update; anything else falls back to [process].  The fast
   path must be {e behaviourally invisible}: it performs the same TCB
   mutations and queues the same actions in the same order the DAG would,
   which the differential mode below checks on every hit. *)

let differential = ref false

let on_mismatch : (string -> unit) ref =
  ref (fun msg -> failwith ("Receive fast path diverged from process: " ^ msg))

(* The shadow of the differential check: a clone of the pre-state that
   the general DAG replays the segment on.  Its replay retains, releases
   and splits packets just as the real path does, so it must not share a
   single packet with the real connection — with recycled buffers, a
   release meant for the shadow would recycle a buffer the connection
   still holds.  [own] makes the shadow's private copy of each packet it
   can reach (queues, to_do actions); retransmission entries are copied
   too, since a resend mutates them.  The congestion instance and the
   to_do bands are mutable and copied as before. *)
let clone_tcb ~own (tcb : tcp_tcb) =
  let own_seg s = { s with data = own s.data } in
  let own_action = function
    | Process_data s -> Process_data (own_seg s)
    | User_data p -> User_data (own p)
    | Send_segment ss ->
      Send_segment { ss with out_data = Option.map own ss.out_data }
    | a -> a
  in
  let own_queue q = Queue.of_seq (Stdlib.Seq.map own_action (Queue.to_seq q)) in
  let queued = Ring.create ~dummy:Packet.placeholder in
  Ring.iter (fun p -> Ring.push queued (own p)) tcb.queued;
  let rtx_q = Ring.create ~dummy:rtx_placeholder in
  Ring.iter
    (fun e -> Ring.push rtx_q { e with rtx_data = Option.map own e.rtx_data })
    tcb.rtx_q;
  { tcb with
    queued;
    rtx_q;
    out_of_order = List.map own_seg tcb.out_of_order;
    cc = Congestion.copy tcb.cc;
    to_do = own_queue tcb.to_do;
    to_do_urgent = own_queue tcb.to_do_urgent;
  }

(* Drop the shadow: every packet it may still reference — its own copies
   and whatever its replay created — gives back all its references. *)
let discard_shadow shadow copies =
  List.iter Packet.discard copies;
  iter_packets Packet.discard shadow;
  List.iter
    (function
      | Process_data s -> Packet.discard s.data
      | User_data p -> Packet.discard p
      | Send_segment { out_data = Some p; _ } -> Packet.discard p
      | _ -> ())
    (pending_actions shadow)

(* Everything [process] may change on a fast-path-eligible segment, plus
   the queued actions ([fast_path_hits] is deliberately absent). *)
let fingerprint tcb =
  let seq = Seq.to_string in
  [
    ("snd_una", seq tcb.snd_una);
    ("snd_nxt", seq tcb.snd_nxt);
    ("snd_wnd", string_of_int tcb.snd_wnd);
    ("max_snd_wnd", string_of_int tcb.max_snd_wnd);
    ("snd_wl1", seq tcb.snd_wl1);
    ("snd_wl2", seq tcb.snd_wl2);
    ("rcv_nxt", seq tcb.rcv_nxt);
    ("rcv_wnd", string_of_int tcb.rcv_wnd);
    ("snd_mss", string_of_int tcb.snd_mss);
    ("queued_bytes", string_of_int tcb.queued_bytes);
    ("queued_segments", string_of_int (Ring.length tcb.queued));
    ( "fin_pending/sent/acked",
      Printf.sprintf "%b/%b/%b" tcb.fin_pending tcb.fin_sent tcb.fin_acked );
    ("rtx_q", string_of_int (Ring.length tcb.rtx_q));
    ("rtx_timer_on", string_of_bool tcb.rtx_timer_on);
    ("out_of_order", string_of_int (List.length tcb.out_of_order));
    ("ooo_bytes", string_of_int tcb.ooo_bytes);
    ("ooo_trimmed", string_of_int tcb.ooo_trimmed);
    ("srtt_us", string_of_int tcb.srtt_us);
    ("rttvar_us", string_of_int tcb.rttvar_us);
    ("rto_us", string_of_int tcb.rto_us);
    ("backoff", string_of_int tcb.backoff);
    ( "timing",
      if tcb.timed_at >= 0 then
        Printf.sprintf "%s@%d" (seq tcb.timed_end) tcb.timed_at
      else "-" );
    ("cwnd", string_of_int tcb.cwnd);
    ("ssthresh", string_of_int tcb.ssthresh);
    ("dup_acks", string_of_int tcb.dup_acks);
    ("cc", Congestion.describe tcb.cc);
    ("pacing_until", string_of_int tcb.pacing_until);
    ("ack_pending", string_of_bool tcb.ack_pending);
    ("ack_timer_on", string_of_bool tcb.ack_timer_on);
    ("last_activity", string_of_int tcb.last_activity);
    ("probes_sent", string_of_int tcb.probes_sent);
    ("segs_in", string_of_int tcb.segs_in);
    ("bytes_in", string_of_int tcb.bytes_in);
    ("segs_out", string_of_int tcb.segs_out);
    ("bytes_out", string_of_int tcb.bytes_out);
    ("retransmissions", string_of_int tcb.retransmissions);
    ("dup_segments", string_of_int tcb.dup_segments);
    ("ooo_segments", string_of_int tcb.ooo_segments);
    ( "challenges",
      Printf.sprintf "%d/%d r%d s%d a%d" tcb.challenge_acks_sent
        tcb.challenge_acks_limited tcb.rst_challenges tcb.syn_challenges
        tcb.ack_challenges );
    ( "actions",
      String.concat "," (List.map action_name (pending_actions tcb)) );
  ]

(* Run the fast-path [body]; in differential mode, also replay the same
   segment through the general DAG on a pre-state clone and compare. *)
let run_checked (params : params) tcb seg ~now body =
  if not !differential then body ()
  else begin
    let copies = ref [] in
    let own p =
      let c = Packet.copy p in
      copies := c :: !copies;
      c
    in
    let shadow = clone_tcb ~own tcb in
    let shadow_seg = { seg with data = own seg.data } in
    body ();
    (match process params (Estab shadow) shadow_seg ~now with
    | Estab _ -> ()
    | s ->
      !on_mismatch
        (Printf.sprintf "general path left ESTABLISHED for %s" (state_name s)));
    let diffs =
      List.filter_map
        (fun ((name, fast), (_, general)) ->
          if String.equal fast general then None
          else Some (Printf.sprintf "%s: fast=%s general=%s" name fast general))
        (List.combine (fingerprint tcb) (fingerprint shadow))
    in
    discard_shadow shadow !copies;
    if diffs <> [] then !on_mismatch (String.concat "; " diffs)
  end

let fast_path (params : params) tcb seg ~now =
  let h = seg.hdr in
  let predictable =
    h.Tcp_header.ack_flag
    && (not h.Tcp_header.syn) && (not h.Tcp_header.fin) && (not h.Tcp_header.rst)
    && (not h.Tcp_header.urg)
    && Seq.equal h.Tcp_header.seq tcb.rcv_nxt
    && tcb.out_of_order = []
  in
  if not predictable then false
  else begin
    let data_len = Packet.length seg.data in
    let ack = h.Tcp_header.ack in
    (* the p. 72 window update, exactly as [process_ack_common] does it —
       including the dup-ACK episode reset and probe-timer side effects *)
    let window_update () =
      if
        Seq.lt tcb.snd_wl1 h.Tcp_header.seq
        || (Seq.equal tcb.snd_wl1 h.Tcp_header.seq && Seq.le tcb.snd_wl2 ack)
      then begin
        let changed = h.Tcp_header.window <> tcb.snd_wnd in
        let opening = h.Tcp_header.window > tcb.snd_wnd in
        tcb.snd_wnd <- h.Tcp_header.window;
        tcb.max_snd_wnd <- Int.max tcb.max_snd_wnd h.Tcp_header.window;
        tcb.snd_wl1 <- h.Tcp_header.seq;
        tcb.snd_wl2 <- ack;
        if changed then tcb.dup_acks <- 0;
        if opening then begin
          tcb.persist_probes <- 0;
          add_to_do tcb (Clear_timer Window_probe)
        end
      end
    in
    if data_len = 0 then begin
      if
        (* pure ACK for new data, window unchanged *)
        Seq.gt ack tcb.snd_una
        && Seq.le ack tcb.snd_nxt
        && h.Tcp_header.window = tcb.snd_wnd
      then begin
        run_checked params tcb seg ~now (fun () ->
            tcb.fast_path_hits <- tcb.fast_path_hits + 1;
            ignore (Resend.process_ack params tcb ~ack ~now);
            window_update ();
            Send.segmentize params tcb ~now);
        true
      end
      else false
    end
    else if
      (* the next expected in-order data segment, not moving our send
         state, entirely inside the receive window *)
      Seq.equal ack tcb.snd_una
      && data_len <= tcb.rcv_wnd
    then begin
      run_checked params tcb seg ~now (fun () ->
          tcb.fast_path_hits <- tcb.fast_path_hits + 1;
          (* same order as the DAG: ACK-step effects first (window update,
             segmentise), then text delivery, then the ACK policy *)
          window_update ();
          Send.segmentize params tcb ~now;
          tcb.segs_in <- tcb.segs_in + 1;
          tcb.bytes_in <- tcb.bytes_in + data_len;
          add_to_do tcb (User_data seg.data);
          tcb.rcv_nxt <- Seq.add h.Tcp_header.seq data_len;
          if h.Tcp_header.psh then ack_now tcb else ack_data params tcb);
      true
    end
    else false
  end
