(** Machine-checked TCB invariants.

    The paper argues that quasi-synchronous control makes TCP "completely
    deterministic given the order of the to_do queue", so each module can
    be tested by "comparing the TCB produced by an operation with the TCB
    the standard requires".  This module is that comparison, run not per
    module but after {e every} executed action: install {!check} in
    {!Fox_tcp.Check_hook} and each drained {!Fox_tcp.Tcb.tcp_action} is
    followed by a full validation of the connection's TCB — sequence-space
    sanity, retransmission-queue shape, congestion-window floors, timer
    bookkeeping, and RFC 793 state-transition legality. *)

open Fox_basis
open Fox_tcp

exception Violation of string

(* Count of [check]/[violations] calls, for the hook-coverage test and the
   overhead measurement. *)
let checks_performed = ref 0

(* ------------------------------------------------------------------ *)
(* State-transition legality                                          *)
(* ------------------------------------------------------------------ *)

(* One executed action may traverse several RFC 793 edges (e.g. a
   SYN-ACK+FIN carries SYN-SENT through ESTABLISHED to CLOSE-WAIT), so
   each entry lists the states reachable within a single action.  A reset
   or abort can take any state to CLOSED.  User-initiated transitions
   (close) happen outside the executor and are never seen as an
   action-level edge. *)
let legal_transition before after =
  let tag s = Tcb.state_name s in
  tag before = tag after
  ||
  match (before, after) with
  | _, Tcb.Closed -> true
  | Tcb.Syn_sent _, (Tcb.Estab _ | Tcb.Syn_active _ | Tcb.Close_wait _) ->
    true
  | ( (Tcb.Syn_active _ | Tcb.Syn_passive _),
      (Tcb.Estab _ | Tcb.Fin_wait_1 _ | Tcb.Close_wait _) ) ->
    true
  | Tcb.Estab _, (Tcb.Fin_wait_1 _ | Tcb.Close_wait _) -> true
  | Tcb.Fin_wait_1 _, (Tcb.Fin_wait_2 _ | Tcb.Closing _ | Tcb.Time_wait _) ->
    true
  | Tcb.Fin_wait_2 _, Tcb.Time_wait _ -> true
  | Tcb.Close_wait _, Tcb.Last_ack _ -> true
  | Tcb.Closing _, Tcb.Time_wait _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The checks                                                         *)
(* ------------------------------------------------------------------ *)

(* The flag a timer's [*_timer_on] field should end up with once the
   pending actions have drained: host-side armed state, then replayed
   [Set_timer]/[Clear_timer]/[Timer_expired] bookkeeping.  A queued
   [Timer_expired] means the timer fired but its handler (which resets
   the flag) has not run yet, so the flag is still legitimately set. *)
let effective_armed (info : Check_hook.info) kind =
  List.fold_left
    (fun armed action ->
      match action with
      | Tcb.Set_timer (k, _) when k = kind -> true
      | Tcb.Clear_timer k when k = kind -> false
      | Tcb.Timer_expired k when k = kind -> true
      | _ -> armed)
    (List.mem kind info.Check_hook.armed)
    info.Check_hook.pending

(* ------------------------------------------------------------------ *)
(* Recovery-exit monotonicity                                         *)
(* ------------------------------------------------------------------ *)

(* [violations] itself is stateless, but "the window was deflated when
   loss recovery ended" is a property of two consecutive observations, so
   the checker keeps one memo cell per connection: whether the congestion
   algorithm reported [in_recovery] at the previous check.  Keyed by
   (obs_id, iss) so a recycled port starts fresh; entries die with the
   connection. *)
let recovery_memo : (string, bool) Hashtbl.t = Hashtbl.create 64

let memo_key tcb =
  tcb.Tcb.obs_id ^ "#" ^ Seq.to_string tcb.Tcb.iss

(* On the transition out of recovery the algorithm must have deflated:
   cwnd may not exceed ssthresh by more than the one MSS a simultaneous
   congestion-avoidance increase can add. *)
let check_recovery_exit tcb note =
  let key = memo_key tcb in
  let now_rec = Congestion.in_recovery tcb.Tcb.cc in
  (match Hashtbl.find_opt recovery_memo key with
  | Some true when not now_rec ->
    if tcb.Tcb.cwnd > tcb.Tcb.ssthresh + tcb.Tcb.snd_mss then
      note
        (Printf.sprintf "recovery exit left cwnd %d above ssthresh %d + mss %d"
           tcb.Tcb.cwnd tcb.Tcb.ssthresh tcb.Tcb.snd_mss)
  | _ -> ());
  Hashtbl.replace recovery_memo key now_rec

let violations (info : Check_hook.info) : string list =
  incr checks_performed;
  if info.Check_hook.dead then begin
    (match Tcb.tcb_of info.Check_hook.after with
    | Some tcb -> Hashtbl.remove recovery_memo (memo_key tcb)
    | None -> ());
    []
  end
  else
    match Tcb.tcb_of info.Check_hook.after with
    | None -> []
    | Some tcb ->
      let faults = ref [] in
      let fail fmt =
        Printf.ksprintf (fun msg -> faults := msg :: !faults) fmt
      in
      let seq = Seq.to_int in
      (* sequence space *)
      if not (Seq.le tcb.Tcb.snd_una tcb.Tcb.snd_nxt) then
        fail "snd_una %d > snd_nxt %d" (seq tcb.Tcb.snd_una)
          (seq tcb.Tcb.snd_nxt);
      (* retransmission queue: sorted, non-overlapping, inside
         (snd_una, snd_nxt] by segment end *)
      let entries = Ring.to_list tcb.Tcb.rtx_q in
      List.iter
        (fun (e : Tcb.rtx_entry) ->
          let seg_end = Seq.add e.Tcb.rtx_seq e.Tcb.rtx_len in
          if e.Tcb.rtx_len <= 0 then
            fail "rtx entry at %d has length %d" (seq e.Tcb.rtx_seq)
              e.Tcb.rtx_len;
          if not (Seq.gt seg_end tcb.Tcb.snd_una) then
            fail "rtx entry [%d,%d) fully below snd_una %d"
              (seq e.Tcb.rtx_seq) (seq seg_end) (seq tcb.Tcb.snd_una);
          if not (Seq.le seg_end tcb.Tcb.snd_nxt) then
            fail "rtx entry [%d,%d) beyond snd_nxt %d" (seq e.Tcb.rtx_seq)
              (seq seg_end) (seq tcb.Tcb.snd_nxt))
        entries;
      let rec pairwise = function
        | (e1 : Tcb.rtx_entry) :: (e2 :: _ as rest) ->
          if
            not (Seq.le (Seq.add e1.Tcb.rtx_seq e1.Tcb.rtx_len) e2.Tcb.rtx_seq)
          then
            fail "rtx queue unsorted/overlapping at %d,%d"
              (seq e1.Tcb.rtx_seq) (seq e2.Tcb.rtx_seq);
          pairwise rest
        | _ -> []
      in
      ignore (pairwise entries);
      (* congestion machinery floors — hold for every CONGESTION
         instance, because Resend clamps each hook's reaction *)
      if tcb.Tcb.cwnd < tcb.Tcb.snd_mss then
        fail "cwnd %d below one MSS (%d)" tcb.Tcb.cwnd tcb.Tcb.snd_mss;
      if tcb.Tcb.ssthresh < 2 * tcb.Tcb.snd_mss then
        fail "ssthresh %d below two MSS (%d)" tcb.Tcb.ssthresh
          (2 * tcb.Tcb.snd_mss);
      check_recovery_exit tcb (fun msg -> faults := msg :: !faults);
      (* counters that must never go negative *)
      if tcb.Tcb.rcv_wnd < 0 then fail "rcv_wnd %d negative" tcb.Tcb.rcv_wnd;
      if tcb.Tcb.snd_wnd < 0 then fail "snd_wnd %d negative" tcb.Tcb.snd_wnd;
      if tcb.Tcb.queued_bytes < 0 then
        fail "queued_bytes %d negative" tcb.Tcb.queued_bytes;
      if tcb.Tcb.dup_acks < 0 then fail "dup_acks %d negative" tcb.Tcb.dup_acks;
      if tcb.Tcb.backoff < 0 || tcb.Tcb.backoff > 16 then
        fail "backoff %d out of range" tcb.Tcb.backoff;
      (* out-of-order queue sorted by sequence number *)
      let rec ooo_sorted = function
        | (s1 : Tcb.segment) :: (s2 :: _ as rest) ->
          if
            not
              (Seq.lt s1.Tcb.hdr.Tcp_header.seq s2.Tcb.hdr.Tcp_header.seq)
          then
            fail "out_of_order unsorted at %d"
              (seq s2.Tcb.hdr.Tcp_header.seq);
          ooo_sorted rest
        | _ -> ()
      in
      ooo_sorted tcb.Tcb.out_of_order;
      (* out-of-order byte accounting: the cached total the overload
         policy trims against must equal the real queue contents *)
      let ooo_actual =
        List.fold_left
          (fun acc (s : Tcb.segment) ->
            acc + Fox_basis.Packet.length s.Tcb.data)
          0 tcb.Tcb.out_of_order
      in
      if tcb.Tcb.ooo_bytes <> ooo_actual then
        fail "ooo_bytes %d but queue holds %d bytes" tcb.Tcb.ooo_bytes
          ooo_actual;
      if tcb.Tcb.ooo_trimmed < 0 then
        fail "ooo_trimmed %d negative" tcb.Tcb.ooo_trimmed;
      (* to_do length accounting: the cached count load shedding reads
         must equal the actual pending queue *)
      let pending_actual = List.length info.Check_hook.pending in
      if tcb.Tcb.to_do_len <> pending_actual then
        fail "to_do_len %d but %d actions pending" tcb.Tcb.to_do_len
          pending_actual;
      (* timer flags vs pending timer actions *)
      if tcb.Tcb.rtx_timer_on <> effective_armed info Tcb.Retransmit then
        fail "rtx_timer_on=%b inconsistent with timers/to_do"
          tcb.Tcb.rtx_timer_on;
      if tcb.Tcb.ack_timer_on <> effective_armed info Tcb.Delayed_ack then
        fail "ack_timer_on=%b inconsistent with timers/to_do"
          tcb.Tcb.ack_timer_on;
      if tcb.Tcb.pacing_timer_on <> effective_armed info Tcb.Pacing then
        fail "pacing_timer_on=%b inconsistent with timers/to_do"
          tcb.Tcb.pacing_timer_on;
      (* RFC 793 transition legality *)
      if not (legal_transition info.Check_hook.before info.Check_hook.after)
      then
        fail "illegal transition %s -> %s on %s"
          (Tcb.state_name info.Check_hook.before)
          (Tcb.state_name info.Check_hook.after)
          (Tcb.action_name info.Check_hook.action);
      List.rev !faults

(** [check info] raises {!Violation} on the first broken invariant. *)
let check info =
  match violations info with
  | [] -> ()
  | faults ->
    raise
      (Violation
         (Printf.sprintf "after %s in %s: %s"
            (Tcb.action_name info.Check_hook.action)
            (Tcb.state_name info.Check_hook.after)
            (String.concat "; " faults)))

(** [install ?on_violation ()] hooks the checker into every TCP executor
    in the process.  The default [on_violation] raises {!Violation} out of
    the drain loop. *)
let install ?on_violation () =
  (* connections from a previous harness run may reuse (obs_id, iss)
     keys; their recovery memos must not leak into this run *)
  Hashtbl.reset recovery_memo;
  match on_violation with
  | None -> Check_hook.install check
  | Some f ->
    Check_hook.install (fun info ->
        match violations info with [] -> () | faults -> f info faults)

let uninstall = Check_hook.uninstall
