(* Per-module tests of the TCP state machine, reproducing the paper's test
   structure: because every module communicates only by mutating the TCB
   and queuing actions, each can be "tested in isolation by comparing the
   TCB produced by the operation with the TCB expected in accordance with
   the standard". *)

open Fox_basis
open Fox_tcp

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let params = { Tcb.default_params with delayed_ack_us = 0; nagle = false }

(* ------------------------------------------------------------------ *)
(* Seq                                                                *)
(* ------------------------------------------------------------------ *)

let seq_pair = QCheck2.Gen.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFF))

let seq_add_diff =
  qtest "seq: diff (add s n) s = n" seq_pair (fun (s, n) ->
      let s = Seq.of_int s in
      Seq.diff (Seq.add s n) s = n)

let seq_wrap_order =
  qtest "seq: ordering survives wrap" QCheck2.Gen.(int_bound 10000) (fun n ->
      let near_wrap = Seq.of_int (0xFFFFFFFF - (n / 2)) in
      let after = Seq.add near_wrap (n + 1) in
      Seq.lt near_wrap after && Seq.gt after near_wrap)

let seq_window =
  qtest "seq: in_window basics" seq_pair (fun (base, size) ->
      let base = Seq.of_int base in
      let size = size + 1 in
      Seq.in_window ~base ~size base
      && Seq.in_window ~base ~size (Seq.add base (size - 1))
      && (not (Seq.in_window ~base ~size (Seq.add base size)))
      && not (Seq.in_window ~base ~size (Seq.add base (-1))))

let test_seq_extremes () =
  Alcotest.(check int) "wrap add" 0 (Seq.to_int (Seq.add (Seq.of_int 0xFFFFFFFF) 1));
  Alcotest.(check bool) "0xFFFFFFFF < 0" true
    (Seq.lt (Seq.of_int 0xFFFFFFFF) (Seq.of_int 0));
  Alcotest.(check int) "negative add" 0xFFFFFFFF
    (Seq.to_int (Seq.add Seq.zero (-1)));
  Alcotest.(check bool) "window size 0 empty" false
    (Seq.in_window ~base:Seq.zero ~size:0 Seq.zero)

(* ------------------------------------------------------------------ *)
(* Tcp_header                                                         *)
(* ------------------------------------------------------------------ *)

let header_gen =
  QCheck2.Gen.(
    let* sp = int_bound 0xFFFF and* dp = int_bound 0xFFFF in
    let* seq = int_bound 0xFFFFFF and* ack = int_bound 0xFFFFFF in
    let* flags = int_bound 63 in
    let* window = int_bound 0xFFFF in
    let* mss = opt (int_range 64 9000) in
    let* payload = string_size (int_range 0 200) in
    return (sp, dp, seq, ack, flags, window, mss, payload))

let mk_header (sp, dp, seq, ack, flags, window, mss, _payload) =
  {
    Tcp_header.src_port = sp;
    dst_port = dp;
    seq = Seq.of_int seq;
    ack = Seq.of_int ack;
    urg = flags land 32 <> 0;
    ack_flag = flags land 16 <> 0;
    psh = flags land 8 <> 0;
    rst = flags land 4 <> 0;
    syn = flags land 2 <> 0;
    fin = flags land 1 <> 0;
    window;
    urgent = 0;
    mss;
  }

let header_roundtrip =
  qtest "tcp_header: roundtrip with checksum" header_gen (fun spec ->
      let _, _, _, _, _, _, _, payload = spec in
      let hdr = mk_header spec in
      let pseudo =
        Checksum.pseudo_ipv4 ~src:0x0A000001 ~dst:0x0A000002 ~proto:6
          ~len:(Tcp_header.header_length hdr + String.length payload)
      in
      let p = Packet.of_string ~headroom:32 payload in
      Tcp_header.encode ~pseudo hdr p;
      match Tcp_header.decode ~pseudo p with
      | Ok hdr' -> hdr' = hdr && Packet.to_string p = payload
      | Error _ -> false)

let header_detects_corruption =
  qtest ~count:200 "tcp_header: checksum catches bit flips"
    QCheck2.Gen.(pair header_gen (pair nat (int_bound 7)))
    (fun (spec, (pos, bit)) ->
      let _, _, _, _, _, _, _, payload = spec in
      let hdr = mk_header spec in
      let total = Tcp_header.header_length hdr + String.length payload in
      let pseudo =
        Checksum.pseudo_ipv4 ~src:1 ~dst:2 ~proto:6 ~len:total
      in
      let p = Packet.of_string ~headroom:32 payload in
      Tcp_header.encode ~pseudo hdr p;
      (* flip one bit anywhere in the segment *)
      let pos = pos mod Packet.length p in
      Packet.set_u8 p pos (Packet.get_u8 p pos lxor (1 lsl bit));
      match Tcp_header.decode ~pseudo p with
      | Error Tcp_header.Bad_checksum -> true
      | Error _ -> true (* mangled data offset is also a detection *)
      | Ok hdr' ->
        (* the flip may hit the data-offset upper bits and still decode;
           but then the checksum must have caught it — so reaching Ok
           means the test failed, except for the 2^-16 aliasing chance
           which QCheck would flag loudly; exclude flips that undo
           themselves (impossible) *)
        ignore hdr';
        false)

let basic_algorithm_agrees =
  qtest "tcp_header: basic and optimized checksums interoperate" header_gen
    (fun spec ->
      let _, _, _, _, _, _, _, payload = spec in
      let hdr = mk_header spec in
      let pseudo () =
        Checksum.pseudo_ipv4 ~src:3 ~dst:4 ~proto:6
          ~len:(Tcp_header.header_length hdr + String.length payload)
      in
      let p = Packet.of_string ~headroom:32 payload in
      Tcp_header.encode ~pseudo:(pseudo ()) hdr p;
      (* the encoder's optimized sum verifies under the basic loop *)
      let basic_ok =
        Checksum.valid
          (Checksum.add_bytes ~alg:`Basic (pseudo ()) (Packet.buffer p)
             (Packet.offset p) (Packet.length p))
      in
      basic_ok
      &&
      match Tcp_header.decode ~pseudo:(pseudo ()) p with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Helpers for state-machine tests                                    *)
(* ------------------------------------------------------------------ *)

let mk_segment ?(syn = false) ?(fin = false) ?(rst = false) ?(ack = None)
    ?(window = 8192) ?(data = "") ~seq () =
  let hdr =
    {
      (Tcp_header.basic ~src_port:2000 ~dst_port:1000) with
      Tcp_header.seq = Seq.of_int seq;
      syn;
      fin;
      rst;
      ack_flag = ack <> None;
      ack = (match ack with Some a -> Seq.of_int a | None -> Seq.zero);
      window;
    }
  in
  { Tcb.hdr; data = Packet.of_string data; arrived_at = 0 }

(* A TCB in ESTABLISHED with iss=1000 (snd side) and irs=5000 (rcv side):
   snd_una = snd_nxt = 1001, rcv_nxt = 5001. *)
let estab_tcb ?(params = params) () =
  let tcb = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 1000) ~mss:1000 in
  tcb.Tcb.snd_una <- Seq.of_int 1001;
  tcb.Tcb.snd_nxt <- Seq.of_int 1001;
  tcb.Tcb.irs <- Seq.of_int 5000;
  tcb.Tcb.rcv_nxt <- Seq.of_int 5001;
  tcb.Tcb.snd_wnd <- 8192;
  tcb.Tcb.max_snd_wnd <- 8192;
  tcb.Tcb.snd_wl1 <- Seq.of_int 5000;
  tcb.Tcb.snd_wl2 <- Seq.of_int 1001;
  tcb

let drain_actions tcb =
  let rec go acc =
    if Tcb.has_to_do tcb then go (Tcb.next_to_do tcb :: acc) else List.rev acc
  in
  go []

let action_names tcb = List.map Tcb.action_name (drain_actions tcb)

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

let test_active_open () =
  let state = State.active_open params ~iss:(Seq.of_int 100) ~mss:1460 ~now:0 in
  match state with
  | Tcb.Syn_sent tcb ->
    Alcotest.(check int) "snd_nxt advanced by SYN" 101 (Seq.to_int tcb.Tcb.snd_nxt);
    Alcotest.(check int) "snd_una" 100 (Seq.to_int tcb.Tcb.snd_una);
    let actions = drain_actions tcb in
    (match actions with
    | [ Tcb.Send_segment ss; Tcb.Set_timer (Tcb.Retransmit, _) ] ->
      Alcotest.(check bool) "syn flag" true ss.Tcb.out_syn;
      Alcotest.(check bool) "no ack" false ss.Tcb.out_ack;
      Alcotest.(check bool) "mss announced" true (ss.Tcb.out_mss <> None)
    | _ ->
      Alcotest.failf "unexpected actions: %s"
        (String.concat "," (List.map Tcb.action_name actions)));
    Alcotest.(check int) "rtx queue holds the SYN" 1 (Fox_basis.Ring.length tcb.Tcb.rtx_q)
  | s -> Alcotest.failf "expected SYN-SENT, got %s" (Tcb.state_name s)

let test_passive_open () =
  let syn = mk_segment ~syn:true ~seq:5000 ~window:4096 () in
  let state =
    State.passive_open params ~iss:(Seq.of_int 200) ~mss:1460 ~syn ~now:0
  in
  match state with
  | Tcb.Syn_passive tcb ->
    Alcotest.(check int) "rcv_nxt = seg.seq+1" 5001 (Seq.to_int tcb.Tcb.rcv_nxt);
    Alcotest.(check int) "irs" 5000 (Seq.to_int tcb.Tcb.irs);
    Alcotest.(check int) "snd_wnd learned" 4096 tcb.Tcb.snd_wnd;
    (match drain_actions tcb with
    | [ Tcb.Send_segment ss; Tcb.Set_timer (Tcb.Retransmit, _) ] ->
      Alcotest.(check bool) "syn" true ss.Tcb.out_syn;
      Alcotest.(check bool) "ack" true ss.Tcb.out_ack
    | actions ->
      Alcotest.failf "unexpected actions: %s"
        (String.concat "," (List.map Tcb.action_name actions)))
  | s -> Alcotest.failf "expected SYN-RECEIVED, got %s" (Tcb.state_name s)

let test_passive_open_learns_mss () =
  let syn =
    {
      (mk_segment ~syn:true ~seq:1 ()) with
      Tcb.hdr =
        {
          ((mk_segment ~syn:true ~seq:1 ()).Tcb.hdr) with
          Tcp_header.mss = Some 512;
        };
    }
  in
  match State.passive_open params ~iss:Seq.zero ~mss:1460 ~syn ~now:0 with
  | Tcb.Syn_passive tcb ->
    Alcotest.(check int) "mss capped by peer" 512 tcb.Tcb.snd_mss
  | _ -> Alcotest.fail "state"

let test_close_from_estab () =
  let tcb = estab_tcb () in
  let state = State.close params (Tcb.Estab tcb) ~now:0 in
  Alcotest.(check string) "fin-wait-1" "FIN-WAIT-1" (Tcb.state_name state);
  (match drain_actions tcb with
  | Tcb.Send_segment ss :: _ ->
    Alcotest.(check bool) "fin" true ss.Tcb.out_fin
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions)));
  Alcotest.(check bool) "fin consumed seq space" true
    (Seq.to_int tcb.Tcb.snd_nxt = 1002)

let test_close_with_queued_data_sends_data_first () =
  let tcb = estab_tcb () in
  Send.enqueue params tcb (Packet.of_string "bye") ~now:0;
  let _ = State.close params (Tcb.Estab tcb) ~now:0 in
  match drain_actions tcb with
  | [ Tcb.Send_segment data_seg; Tcb.Set_timer (Tcb.Retransmit, _);
      Tcb.Send_segment fin_seg ] ->
    Alcotest.(check bool) "data first" true (data_seg.Tcb.out_data <> None);
    (* the FIN rides a separate segment here because the data had already
       been segmentised when close arrived *)
    Alcotest.(check bool) "fin second" true fin_seg.Tcb.out_fin
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_close_wait_to_last_ack () =
  let tcb = estab_tcb () in
  let state = State.close params (Tcb.Close_wait tcb) ~now:0 in
  Alcotest.(check string) "last-ack" "LAST-ACK" (Tcb.state_name state)

let test_abort_sends_rst () =
  let tcb = estab_tcb () in
  let state = State.abort params (Tcb.Estab tcb) in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  match drain_actions tcb with
  | [ Tcb.Send_segment ss; Tcb.Delete_tcb ] ->
    Alcotest.(check bool) "rst" true ss.Tcb.out_rst
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_retransmit_limit_gives_up () =
  let tcb = estab_tcb () in
  Send.enqueue params tcb (Packet.of_string "data") ~now:0;
  let _ = drain_actions tcb in
  let state = ref (Tcb.Estab tcb) in
  let expire () =
    state := State.timer_expired params !state Tcb.Retransmit ~now:0;
    ignore (drain_actions tcb)
  in
  (* [Resend.max_retransmits] allowed retransmissions, then give up *)
  for _ = 1 to Resend.max_retransmits do
    expire ()
  done;
  Alcotest.(check string) "open at the limit" "ESTABLISHED"
    (Tcb.state_name !state);
  Alcotest.(check int) "retransmissions" Resend.max_retransmits
    tcb.Tcb.retransmissions;
  expire ();
  Alcotest.(check string) "gave up" "CLOSED" (Tcb.state_name !state)

let test_delayed_ack_timer () =
  let p = { params with delayed_ack_us = 1000 } in
  let tcb = estab_tcb ~params:p () in
  tcb.Tcb.ack_pending <- true;
  tcb.Tcb.ack_timer_on <- true;
  let state = State.timer_expired p (Tcb.Estab tcb) Tcb.Delayed_ack ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "ack flushed" [ "send-ack" ] (action_names tcb);
  Alcotest.(check bool) "pending cleared" false tcb.Tcb.ack_pending

(* 2·MSL is not a TCB transition: the engine runs it on the tombstone it
   parks the connection as, so State refuses both the expiry and an
   abort of a TIME-WAIT TCB.  (The expiry instant and its final upcall
   are pinned per engine in test_time_wait.) *)
let test_time_wait_expiry () =
  let tcb = estab_tcb () in
  let refused f =
    match f () with
    | (_ : Tcb.tcp_state) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "expiry is the tombstone's" true
    (refused (fun () ->
         State.timer_expired params (Tcb.Time_wait tcb) Tcb.Time_wait ~now:0));
  Alcotest.(check bool) "abort is the tombstone's" true
    (refused (fun () -> State.abort params (Tcb.Time_wait tcb)));
  Alcotest.(check (list string)) "nothing queued" [] (action_names tcb)

(* ------------------------------------------------------------------ *)
(* Send                                                               *)
(* ------------------------------------------------------------------ *)

let sent_segments tcb =
  List.filter_map
    (function Tcb.Send_segment ss -> Some ss | _ -> None)
    (drain_actions tcb)

let test_segmentation_respects_mss () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 2500 'x')) ~now:0;
  let segs = sent_segments tcb in
  Alcotest.(check (list int)) "mss-sized cuts" [ 1000; 1000; 500 ]
    (List.map
       (fun ss ->
         match ss.Tcb.out_data with Some d -> Packet.length d | None -> 0)
       segs);
  Alcotest.(check int) "snd_nxt advanced" (1001 + 2500)
    (Seq.to_int tcb.Tcb.snd_nxt);
  Alcotest.(check bool) "push on last" true
    (List.nth segs 2).Tcb.out_psh

let test_segmentation_respects_window () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 1500;
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 4000 'x')) ~now:0;
  let segs = sent_segments tcb in
  Alcotest.(check (list int)) "window-limited" [ 1000; 500 ]
    (List.map
       (fun ss ->
         match ss.Tcb.out_data with Some d -> Packet.length d | None -> 0)
       segs);
  Alcotest.(check int) "rest still queued" 2500 tcb.Tcb.queued_bytes

let test_slow_start_limits_initial_burst () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 2000 (* two segments *);
  Send.enqueue params tcb (Packet.of_string (String.make 8000 'x')) ~now:0;
  Alcotest.(check int) "only cwnd worth sent" 2
    (List.length (sent_segments tcb));
  (* an ACK for the first segment opens cwnd and releases more *)
  ignore
    (Resend.process_ack params tcb ~ack:(Seq.of_int (1001 + 1000)) ~now:1000);
  Send.segmentize params tcb ~now:1000;
  Alcotest.(check bool) "ack released more" true (sent_segments tcb <> [])

let test_nagle_holds_small_segment () =
  let p = { params with nagle = true } in
  let tcb = estab_tcb ~params:p () in
  Send.enqueue p tcb (Packet.of_string "small") ~now:0;
  Alcotest.(check int) "first small goes (nothing in flight)" 1
    (List.length (sent_segments tcb));
  Send.enqueue p tcb (Packet.of_string "again") ~now:0;
  Alcotest.(check int) "second held while first unacked" 0
    (List.length (sent_segments tcb));
  ignore (Resend.process_ack p tcb ~ack:tcb.Tcb.snd_nxt ~now:10);
  Send.segmentize p tcb ~now:10;
  Alcotest.(check int) "released on ack" 1 (List.length (sent_segments tcb))

let test_fin_piggybacks_on_last_segment () =
  let tcb = estab_tcb () in
  Send.enqueue params tcb (Packet.of_string "tail") ~now:0;
  ignore (drain_actions tcb);
  Send.enqueue_fin params tcb ~now:0;
  match sent_segments tcb with
  | [ ss ] ->
    Alcotest.(check bool) "fin" true ss.Tcb.out_fin;
    Alcotest.(check bool) "fin-only segment (data already gone)" true
      (ss.Tcb.out_data = None)
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l)

let test_zero_window_arms_probe () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 0;
  Send.enqueue params tcb (Packet.of_string "stuck") ~now:0;
  Alcotest.(check (list string)) "probe timer armed"
    [ "set-timer:window-probe" ]
    (action_names tcb);
  (* the probe itself sends one byte *)
  Send.probe params tcb ~now:0;
  match drain_actions tcb with
  | [ Tcb.Send_segment ss; Tcb.Set_timer (Tcb.Retransmit, _);
      Tcb.Set_timer (Tcb.Window_probe, _) ] ->
    Alcotest.(check int) "one byte" 1
      (match ss.Tcb.out_data with Some d -> Packet.length d | None -> 0)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

(* Zero-window persistence: the probe byte rides the retransmission
   machinery, so a lost probe is recovered by the RTO like any segment. *)
let test_window_probe_lost_then_retransmitted () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 0;
  Send.enqueue params tcb (Packet.of_string "stuck") ~now:0;
  ignore (drain_actions tcb);
  Send.probe params tcb ~now:0;
  (match drain_actions tcb with
  | [ Tcb.Send_segment ss; Tcb.Set_timer (Tcb.Retransmit, _);
      Tcb.Set_timer (Tcb.Window_probe, _) ] ->
    Alcotest.(check string) "probe carries the first byte" "s"
      (match ss.Tcb.out_data with Some d -> Packet.to_string d | None -> "")
  | actions ->
    Alcotest.failf "unexpected probe actions: %s"
      (String.concat "," (List.map Tcb.action_name actions)));
  (* the probe is lost: the retransmit timer resends the same byte *)
  Alcotest.(check bool) "retransmit accepted" true
    (Resend.retransmit params tcb ~now:(Resend.rto params tcb));
  (match sent_segments tcb with
  | [ ss ] ->
    Alcotest.(check bool) "marked as retransmission" true ss.Tcb.out_is_rtx;
    Alcotest.(check string) "same probe byte" "s"
      (match ss.Tcb.out_data with Some d -> Packet.to_string d | None -> "")
  | l -> Alcotest.failf "expected 1 rtx segment, got %d" (List.length l));
  (* the peer finally acknowledges the probe and opens its window *)
  let seg = mk_segment ~seq:5001 ~ack:(Some 1002) ~window:8192 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:500_000 in
  Alcotest.(check string) "still established" "ESTABLISHED"
    (Tcb.state_name state);
  let actions = drain_actions tcb in
  Alcotest.(check bool) "probe timer cleared" true
    (List.mem "clear-timer:window-probe"
       (List.map Tcb.action_name actions));
  let rest =
    String.concat ""
      (List.filter_map
         (function
           | Tcb.Send_segment ss -> Option.map Packet.to_string ss.Tcb.out_data
           | _ -> None)
         actions)
  in
  Alcotest.(check string) "remaining bytes flow exactly once" "tuck" rest;
  Alcotest.(check int) "stream fully sent" 1006 (Seq.to_int tcb.Tcb.snd_nxt)

let test_window_opens_while_probe_in_flight () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 0;
  Send.enqueue params tcb (Packet.of_string "stuck") ~now:0;
  ignore (drain_actions tcb);
  Send.probe params tcb ~now:0;
  ignore (drain_actions tcb);
  (* a stale dup-ack episode is pending when the update lands *)
  tcb.Tcb.dup_acks <- 2;
  (* window opens while the probe is still unacknowledged: the update
     acks nothing new (ack = snd_una) but must clear the probe timer,
     end the dup-ack episode, and release the queued data *)
  let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~window:8192 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:1000 in
  Alcotest.(check string) "still established" "ESTABLISHED"
    (Tcb.state_name state);
  let actions = drain_actions tcb in
  Alcotest.(check bool) "probe timer cleared" true
    (List.mem "clear-timer:window-probe"
       (List.map Tcb.action_name actions));
  Alcotest.(check int) "dup-ack episode ended by the window update" 0
    tcb.Tcb.dup_acks;
  let rest =
    String.concat ""
      (List.filter_map
         (function
           | Tcb.Send_segment ss -> Option.map Packet.to_string ss.Tcb.out_data
           | _ -> None)
         actions)
  in
  Alcotest.(check string) "queued data released behind the probe" "tuck" rest

(* Back-to-back loss episodes: a window update between them must reset
   the duplicate-ACK counter, or the second episode can never reach the
   three duplicates that trigger fast retransmit (the counter only fires
   on exactly three). *)
let test_window_update_resets_dup_ack_episode () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 4000 'x')) ~now:0;
  ignore (drain_actions tcb);
  let dup_ack ~ack ~window =
    let seg = mk_segment ~seq:5001 ~ack:(Some ack) ~window () in
    ignore (Receive.process params (Tcb.Estab tcb) seg ~now:0)
  in
  (* episode one: three duplicates trigger fast retransmit *)
  dup_ack ~ack:1001 ~window:8192;
  dup_ack ~ack:1001 ~window:8192;
  dup_ack ~ack:1001 ~window:8192;
  Alcotest.(check bool) "first fast retransmit fired" true
    (List.exists (fun ss -> ss.Tcb.out_is_rtx) (sent_segments tcb));
  (* mid-recovery, a pure window update arrives (no ack progress) *)
  dup_ack ~ack:1001 ~window:4096;
  ignore (drain_actions tcb);
  Alcotest.(check int) "episode ended by the update" 0 tcb.Tcb.dup_acks;
  (* episode two: three fresh duplicates must trigger again *)
  dup_ack ~ack:1001 ~window:4096;
  dup_ack ~ack:1001 ~window:4096;
  dup_ack ~ack:1001 ~window:4096;
  Alcotest.(check bool) "second fast retransmit fired" true
    (List.exists (fun ss -> ss.Tcb.out_is_rtx) (sent_segments tcb))

let send_total_preserved =
  qtest "send: segmentation preserves bytes and order"
    QCheck2.Gen.(list_size (int_range 1 10) (string_size (int_range 1 2000)))
    (fun chunks ->
      let tcb = estab_tcb () in
      tcb.Tcb.snd_wnd <- 1 lsl 20;
      tcb.Tcb.cwnd <- 1 lsl 20;
      List.iter
        (fun s -> Send.enqueue params tcb (Packet.of_string s) ~now:0)
        chunks;
      let segs = sent_segments tcb in
      let sent =
        String.concat ""
          (List.map
             (fun ss ->
               match ss.Tcb.out_data with
               | Some d -> Packet.to_string d
               | None -> "")
             segs)
      in
      sent = String.concat "" chunks
      && List.for_all
           (fun ss ->
             match ss.Tcb.out_data with
             | Some d -> Packet.length d <= tcb.Tcb.snd_mss
             | None -> true)
           segs)

(* ------------------------------------------------------------------ *)
(* Resend                                                             *)
(* ------------------------------------------------------------------ *)

let test_rtt_estimator_first_sample () =
  let tcb = estab_tcb () in
  Resend.sample params tcb ~sample_us:10_000;
  Alcotest.(check int) "srtt = sample" 10_000 tcb.Tcb.srtt_us;
  Alcotest.(check int) "rttvar = sample/2" 5_000 tcb.Tcb.rttvar_us;
  (* rto = srtt + 4*rttvar = 30ms, above the 200ms floor -> clamped *)
  Alcotest.(check int) "rto floored" params.Tcb.rto_min_us tcb.Tcb.rto_us

let test_rtt_estimator_converges () =
  let tcb = estab_tcb () in
  for _ = 1 to 50 do
    Resend.sample params tcb ~sample_us:300_000
  done;
  Alcotest.(check bool) "srtt near 300ms" true
    (abs (tcb.Tcb.srtt_us - 300_000) < 10_000);
  Alcotest.(check bool) "rto above srtt" true (tcb.Tcb.rto_us >= 300_000)

let test_karn_ignores_retransmitted () =
  let tcb = estab_tcb () in
  Send.enqueue params tcb (Packet.of_string "abc") ~now:100 |> ignore;
  ignore (drain_actions tcb);
  Alcotest.(check bool) "timing armed" true (tcb.Tcb.timed_at >= 0);
  (* retransmission must cancel the timing *)
  ignore (Resend.retransmit params tcb ~now:200);
  Alcotest.(check bool) "timing cancelled (Karn)" true (tcb.Tcb.timed_at < 0);
  let srtt_before = tcb.Tcb.srtt_us in
  ignore (Resend.process_ack params tcb ~ack:tcb.Tcb.snd_nxt ~now:50_000);
  Alcotest.(check int) "no sample taken" srtt_before tcb.Tcb.srtt_us

let test_backoff_doubles_rto () =
  let tcb = estab_tcb () in
  Resend.sample params tcb ~sample_us:500_000;
  let base = Resend.rto params tcb in
  Send.enqueue params tcb (Packet.of_string "x") ~now:0;
  ignore (drain_actions tcb);
  ignore (Resend.retransmit params tcb ~now:0);
  let after_one = Resend.rto params tcb in
  ignore (drain_actions tcb);
  ignore (Resend.retransmit params tcb ~now:0);
  let after_two = Resend.rto params tcb in
  Alcotest.(check int) "doubled" (2 * base) after_one;
  Alcotest.(check int) "doubled again" (4 * base) after_two

let test_ack_clears_covered_entries () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 3000 'x')) ~now:0;
  ignore (drain_actions tcb);
  Alcotest.(check int) "three in queue" 3 (Fox_basis.Ring.length tcb.Tcb.rtx_q);
  ignore (Resend.process_ack params tcb ~ack:(Seq.of_int (1001 + 2000)) ~now:10);
  Alcotest.(check int) "one left" 1 (Fox_basis.Ring.length tcb.Tcb.rtx_q);
  Alcotest.(check int) "snd_una moved" (1001 + 2000) (Seq.to_int tcb.Tcb.snd_una)

let test_fast_retransmit_on_three_dups () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 2000 'y')) ~now:0;
  ignore (drain_actions tcb);
  Resend.duplicate_ack params tcb ~now:1;
  Resend.duplicate_ack params tcb ~now:2;
  Alcotest.(check (list string)) "quiet on first two" [] (action_names tcb);
  Resend.duplicate_ack params tcb ~now:3;
  (match drain_actions tcb with
  | [ Tcb.Send_segment ss ] ->
    Alcotest.(check bool) "retransmission" true ss.Tcb.out_is_rtx;
    Alcotest.(check int) "first unacked segment" 1001 (Seq.to_int ss.Tcb.out_seq)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions)));
  Alcotest.(check bool) "cwnd deflated" true (tcb.Tcb.cwnd < 1 lsl 20)

(* ------------------------------------------------------------------ *)
(* Receive                                                            *)
(* ------------------------------------------------------------------ *)

let test_in_order_data_delivered () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"hello" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check int) "rcv_nxt advanced" 5006 (Seq.to_int tcb.Tcb.rcv_nxt);
  match drain_actions tcb with
  | [ Tcb.User_data d; Tcb.Send_ack ] ->
    Alcotest.(check string) "payload" "hello" (Packet.to_string d)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_out_of_order_buffered_then_flushed () =
  let tcb = estab_tcb () in
  let seg2 = mk_segment ~seq:5006 ~ack:(Some 1001) ~data:"world" () in
  let state = Receive.process params (Tcb.Estab tcb) seg2 ~now:0 in
  Alcotest.(check int) "rcv_nxt unmoved" 5001 (Seq.to_int tcb.Tcb.rcv_nxt);
  Alcotest.(check (list string)) "dup ack only" [ "send-ack" ] (action_names tcb);
  let seg1 = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"hello" () in
  let _ = Receive.process params state seg1 ~now:0 in
  Alcotest.(check int) "both consumed" 5011 (Seq.to_int tcb.Tcb.rcv_nxt);
  match drain_actions tcb with
  | [ Tcb.User_data a; Tcb.User_data b; Tcb.Send_ack ] ->
    Alcotest.(check string) "in order" "helloworld"
      (Packet.to_string a ^ Packet.to_string b)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_duplicate_segment_reacked () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"dup" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  ignore (drain_actions tcb);
  (* same segment again: fully below rcv_nxt -> unacceptable -> re-ACK *)
  let seg' = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"dup" () in
  let _ = Receive.process params state seg' ~now:1 in
  Alcotest.(check (list string)) "just an ack" [ "send-ack" ] (action_names tcb);
  Alcotest.(check int) "rcv_nxt unchanged" 5004 (Seq.to_int tcb.Tcb.rcv_nxt);
  Alcotest.(check bool) "counted duplicate" true (tcb.Tcb.dup_segments > 0)

let test_partial_overlap_trimmed () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"abcde" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  ignore (drain_actions tcb);
  (* seq 5003: "cde" is old, "fgh" is new *)
  let seg' = mk_segment ~seq:5003 ~ack:(Some 1001) ~data:"cdefgh" () in
  let _ = Receive.process params state seg' ~now:1 in
  match drain_actions tcb with
  | [ Tcb.User_data d; Tcb.Send_ack ] ->
    Alcotest.(check string) "only the new bytes" "fgh" (Packet.to_string d);
    Alcotest.(check int) "rcv_nxt" 5009 (Seq.to_int tcb.Tcb.rcv_nxt)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_rst_in_window_resets () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~rst:true ~seq:5001 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  Alcotest.(check (list string)) "reset actions"
    [ "peer-reset"; "delete-tcb" ]
    (action_names tcb)

let test_rst_outside_window_ignored () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~rst:true ~seq:40000 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  (* blind-reset protection: not even an ACK for an out-of-window RST *)
  Alcotest.(check (list string)) "dropped silently" [] (action_names tcb)

let test_fin_moves_to_close_wait () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1001) ~data:"last" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "close-wait" "CLOSE-WAIT" (Tcb.state_name state);
  Alcotest.(check int) "rcv_nxt past data and fin" 5006
    (Seq.to_int tcb.Tcb.rcv_nxt);
  let names = action_names tcb in
  Alcotest.(check bool) "user data delivered" true
    (List.mem "user-data" names);
  Alcotest.(check bool) "peer close signalled" true
    (List.mem "peer-close" names);
  Alcotest.(check bool) "acked" true (List.mem "send-ack" names)

let test_syn_sent_handshake () =
  (* client side: SYN-SENT receiving SYN-ACK *)
  let state = State.active_open params ~iss:(Seq.of_int 100) ~mss:1460 ~now:0 in
  let tcb = Option.get (Tcb.tcb_of state) in
  ignore (drain_actions tcb);
  let synack =
    mk_segment ~syn:true ~seq:7000 ~ack:(Some 101) ~window:4096 ()
  in
  let state = Receive.process params state synack ~now:500 in
  Alcotest.(check string) "established" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check int) "rcv_nxt" 7001 (Seq.to_int tcb.Tcb.rcv_nxt);
  Alcotest.(check int) "snd_una" 101 (Seq.to_int tcb.Tcb.snd_una);
  Alcotest.(check int) "window learned" 4096 tcb.Tcb.snd_wnd;
  let names = action_names tcb in
  Alcotest.(check bool) "acked" true (List.mem "send-ack" names);
  Alcotest.(check bool) "open completed" true (List.mem "complete-open" names);
  Alcotest.(check bool) "rtx timer cleared" true
    (List.mem "clear-timer:retransmit" names)

let test_simultaneous_open () =
  let state = State.active_open params ~iss:(Seq.of_int 100) ~mss:1460 ~now:0 in
  let tcb = Option.get (Tcb.tcb_of state) in
  ignore (drain_actions tcb);
  (* a bare SYN crosses ours *)
  let syn = mk_segment ~syn:true ~seq:9000 ~window:2048 () in
  let state = Receive.process params state syn ~now:100 in
  Alcotest.(check string) "syn-received" "SYN-RECEIVED(active)"
    (Tcb.state_name state);
  (match drain_actions tcb with
  | [ Tcb.Send_segment ss ] ->
    Alcotest.(check bool) "syn-ack" true (ss.Tcb.out_syn && ss.Tcb.out_ack)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions)));
  (* then their ACK of our SYN completes the open *)
  let ack = mk_segment ~seq:9001 ~ack:(Some 101) () in
  let state = Receive.process params state ack ~now:200 in
  Alcotest.(check string) "established" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check bool) "open completed" true
    (List.mem "complete-open" (action_names tcb))

let test_full_close_sequence () =
  (* we close first: FIN-WAIT-1 -> FIN-WAIT-2 -> TIME-WAIT *)
  let tcb = estab_tcb () in
  let state = State.close params (Tcb.Estab tcb) ~now:0 in
  ignore (drain_actions tcb);
  (* peer acks our FIN *)
  let ack = mk_segment ~seq:5001 ~ack:(Some 1002) () in
  let state = Receive.process params state ack ~now:10 in
  Alcotest.(check string) "fin-wait-2" "FIN-WAIT-2" (Tcb.state_name state);
  ignore (drain_actions tcb);
  (* peer's own FIN *)
  let fin = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1002) () in
  let state = Receive.process params state fin ~now:20 in
  Alcotest.(check string) "time-wait" "TIME-WAIT" (Tcb.state_name state);
  let names = action_names tcb in
  Alcotest.(check bool) "2msl armed" true
    (List.mem "set-timer:time-wait" names)

let test_simultaneous_close () =
  (* both sides close at once: FIN-WAIT-1 -> CLOSING -> TIME-WAIT *)
  let tcb = estab_tcb () in
  let state = State.close params (Tcb.Estab tcb) ~now:0 in
  ignore (drain_actions tcb);
  (* peer's FIN arrives, not acking ours *)
  let fin = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1001) () in
  let state = Receive.process params state fin ~now:10 in
  Alcotest.(check string) "closing" "CLOSING" (Tcb.state_name state);
  ignore (drain_actions tcb);
  (* now the ack of our FIN *)
  let ack = mk_segment ~seq:5002 ~ack:(Some 1002) () in
  let state = Receive.process params state ack ~now:20 in
  Alcotest.(check string) "time-wait" "TIME-WAIT" (Tcb.state_name state)

let test_last_ack_completes () =
  let tcb = estab_tcb () in
  (* peer closed first *)
  let fin = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1001) () in
  let state = Receive.process params (Tcb.Estab tcb) fin ~now:0 in
  Alcotest.(check string) "close-wait" "CLOSE-WAIT" (Tcb.state_name state);
  ignore (drain_actions tcb);
  let state = State.close params state ~now:5 in
  Alcotest.(check string) "last-ack" "LAST-ACK" (Tcb.state_name state);
  ignore (drain_actions tcb);
  let ack = mk_segment ~seq:5002 ~ack:(Some 1002) () in
  let state = Receive.process params state ack ~now:10 in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  let names = action_names tcb in
  Alcotest.(check bool) "complete-close" true (List.mem "complete-close" names);
  Alcotest.(check bool) "delete" true (List.mem "delete-tcb" names)

let test_syn_in_window_resets () =
  (* RFC 5961 §4 (the default): a SYN on a synchronized connection draws a
     challenge ACK and changes nothing — a blind forger must not be able
     to kill the connection with a guessed in-window SYN. *)
  let tcb = estab_tcb () in
  let seg = mk_segment ~syn:true ~seq:5001 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "challenge ack" [ "send-ack" ]
    (action_names tcb);
  Alcotest.(check int) "counted" 1 tcb.Tcb.syn_challenges;
  (* with the defense off, the RFC 793 rule applies: reset and tear down *)
  let legacy = { params with Tcb.rfc5961 = false } in
  let tcb = estab_tcb ~params:legacy () in
  let seg = mk_segment ~syn:true ~seq:5001 () in
  let state = Receive.process legacy (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  let names = action_names tcb in
  Alcotest.(check bool) "rst sent" true (List.mem "send-segment" names);
  Alcotest.(check bool) "reset signalled" true (List.mem "peer-reset" names)

let test_window_update_releases_data () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 1000;
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 3000 'z')) ~now:0;
  ignore (drain_actions tcb);
  Alcotest.(check int) "held back" 2000 tcb.Tcb.queued_bytes;
  (* peer acks the first 1000 and opens the window *)
  let ack = mk_segment ~seq:5001 ~ack:(Some 2001) ~window:4000 () in
  let _ = Receive.process params (Tcb.Estab tcb) ack ~now:10 in
  Alcotest.(check int) "drained" 0 tcb.Tcb.queued_bytes

let test_ack_of_future_data_reacked_and_dropped () =
  (* RFC 793 p.72: "If the ACK acks something not yet sent ... send an ACK,
     drop the segment" *)
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 9999) ~data:"ignored" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "ack only, text not processed" [ "send-ack" ]
    (action_names tcb);
  Alcotest.(check int) "rcv_nxt unmoved" 5001 (Seq.to_int tcb.Tcb.rcv_nxt)

let test_data_beyond_window_rejected () =
  let tcb = estab_tcb () in
  (* rcv window is initial_window = 4096; this segment starts past it *)
  let seg = mk_segment ~seq:(5001 + 5000) ~ack:(Some 1001) ~data:"far" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "unchanged" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "re-ack" [ "send-ack" ] (action_names tcb);
  Alcotest.(check int) "nothing buffered" 0 (List.length tcb.Tcb.out_of_order)

(* A TCB taken through the full close path to TIME-WAIT (we close
   first; snd_nxt 1002, rcv_nxt 5002), and the tombstone the engine
   would park it as. *)
let parked_tombstone ?(params = params) () =
  let tcb = estab_tcb ~params () in
  let state = State.close params (Tcb.Estab tcb) ~now:0 in
  ignore (drain_actions tcb);
  let state =
    Receive.process params state (mk_segment ~seq:5001 ~ack:(Some 1002) ()) ~now:1
  in
  ignore (drain_actions tcb);
  let state =
    Receive.process params state
      (mk_segment ~fin:true ~seq:5001 ~ack:(Some 1002) ())
      ~now:2
  in
  Alcotest.(check string) "time-wait" "TIME-WAIT" (Tcb.state_name state);
  ignore (drain_actions tcb);
  Tcb.time_wait_of tcb ~host:() ~local_port:1000 ~remote_port:2000 ~arrival:1
    ~timer:(Fox_sched.Timer.create ignore) ~upcall:ignore

let tombstone_receive ?(params = params) ?(cap = Tcb.fresh_challenge_cap ())
    ?(tally = Tcb.fresh_counters ()) tw seg ~now =
  List.map Tcb.action_name
    (Receive.time_wait params ~cap ~tally tw seg ~now)

let test_fin_retransmission_in_time_wait_restarts_2msl () =
  let tw = parked_tombstone () in
  (* the peer retransmits its FIN: the tombstone re-acks it and restarts
     2·MSL (RFC 793 p. 73) *)
  Alcotest.(check (list string)) "re-acked, 2msl restarted"
    [ "send-ack"; "set-timer:time-wait" ]
    (tombstone_receive tw
       (mk_segment ~fin:true ~seq:5001 ~ack:(Some 1002) ())
       ~now:3);
  (* the receive DAG leaves TIME-WAIT segments to the tombstone *)
  Alcotest.(check bool) "Receive.process refuses TIME-WAIT" true
    (match
       Receive.process params (Tcb.Time_wait (estab_tcb ()))
         (mk_segment ~seq:5002 ~ack:(Some 1002) ())
         ~now:3
     with
    | (_ : Tcb.tcp_state) -> false
    | exception Invalid_argument _ -> true)

(* The tombstone's other branches: an exact RST tears down, anything
   unacceptable is acked, a bare ACK draws nothing, and the RFC 793 rule
   applies with RFC 5961 off. *)
let test_tombstone_branches () =
  let tw = parked_tombstone () in
  let check name expected seg =
    Alcotest.(check (list string)) name expected (tombstone_receive tw seg ~now:3)
  in
  check "exact RST" [ "peer-reset"; "delete-tcb" ]
    (mk_segment ~rst:true ~seq:5002 ());
  check "old data" [ "send-ack" ]
    (mk_segment ~seq:4990 ~ack:(Some 1002) ~data:"0123456789" ());
  check "bare ACK" [] (mk_segment ~seq:5002 ~ack:(Some 1002) ());
  check "no ACK flag" [] (mk_segment ~seq:5002 ());
  check "out-of-window RST" [] (mk_segment ~rst:true ~seq:50_000 ());
  let legacy = { params with Tcb.rfc5961 = false } in
  let tw = parked_tombstone ~params:legacy () in
  Alcotest.(check (list string)) "in-window SYN, RFC 793"
    [ "send-segment"; "peer-reset"; "delete-tcb" ]
    (tombstone_receive ~params:legacy tw
       (mk_segment ~syn:true ~seq:5100 ())
       ~now:3)

(* RFC 5961 on the tombstone: an in-window RST, a SYN and an ACK of
   unsent data each draw a challenge, counted in the engine's tally,
   until the per-connection budget (10 a second) runs out. *)
let test_tombstone_challenge_budget () =
  let tw = parked_tombstone () in
  let cap = Tcb.fresh_challenge_cap () and tally = Tcb.fresh_counters () in
  let seg i =
    match i mod 3 with
    | 0 -> mk_segment ~rst:true ~seq:5100 ()
    | 1 -> mk_segment ~syn:true ~seq:5100 ()
    | _ -> mk_segment ~seq:5002 ~ack:(Some 9999) ()
  in
  let replies =
    List.init 12 (fun i -> tombstone_receive ~cap ~tally tw (seg i) ~now:10)
  in
  Alcotest.(check int) "ten challenges" 10
    (List.length (List.filter (( = ) [ "send-ack" ]) replies));
  Alcotest.(check (list int)) "tally sent/limited/rst/syn/ack"
    [ 10; 2; 4; 4; 4 ]
    Tcb.[ tally.tally_sent; tally.tally_limited; tally.tally_rst;
          tally.tally_syn; tally.tally_ack ];
  Alcotest.(check int) "engine cap charged" 10 cap.Tcb.cap_sent;
  (* a new second, a new budget *)
  Alcotest.(check (list string)) "budget renewed" [ "send-ack" ]
    (tombstone_receive ~cap ~tally tw (seg 0) ~now:1_000_010)

(* The RFC 5961 ACK floor follows the peer's window as the full DAG's
   does: a larger window, on a segment newer than the last update,
   lowers the floor. *)
let test_tombstone_window_history () =
  let tw = parked_tombstone () in
  (* the floor is snd_una - max_snd_wnd = 1002 - 8192 *)
  let old_ack = mk_segment ~seq:5002 ~ack:(Some (1002 - 10_000)) () in
  Alcotest.(check (list string)) "below the floor: challenged" [ "send-ack" ]
    (tombstone_receive tw old_ack ~now:3);
  Alcotest.(check (list string)) "a larger window" []
    (tombstone_receive tw
       (mk_segment ~seq:5002 ~ack:(Some 1002) ~window:20_000 ())
       ~now:4);
  Alcotest.(check (list string)) "the same ACK now passes" []
    (tombstone_receive tw
       (mk_segment ~seq:5002 ~ack:(Some (1002 - 10_000)) ())
       ~now:5)

let test_ooo_fin_consumed_when_gap_fills () =
  (* FIN arrives out of order with trailing data; consuming the gap must
     consume the FIN too *)
  let tcb = estab_tcb () in
  let seg2 = mk_segment ~fin:true ~seq:5006 ~ack:(Some 1001) ~data:"tail" () in
  let state = Receive.process params (Tcb.Estab tcb) seg2 ~now:0 in
  Alcotest.(check string) "still estab (gap)" "ESTABLISHED"
    (Tcb.state_name state);
  ignore (drain_actions tcb);
  let seg1 = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"head " () in
  let state = Receive.process params state seg1 ~now:1 in
  Alcotest.(check string) "close-wait after gap fill" "CLOSE-WAIT"
    (Tcb.state_name state);
  Alcotest.(check int) "rcv_nxt past both and the fin" (5001 + 9 + 1)
    (Seq.to_int tcb.Tcb.rcv_nxt)

let test_zero_length_keepalive_style_probe () =
  (* a zero-length segment below the window (seq = rcv_nxt - 1) is
     unacceptable and must provoke an ACK — the classic keepalive probe *)
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5000 ~ack:(Some 1001) () in
  let _ = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check (list string)) "probe answered" [ "send-ack" ]
    (action_names tcb)

let test_close_in_fin_wait_is_noop () =
  let tcb = estab_tcb () in
  let state = State.close params (Tcb.Fin_wait_2 tcb) ~now:0 in
  Alcotest.(check string) "unchanged" "FIN-WAIT-2" (Tcb.state_name state);
  Alcotest.(check (list string)) "no actions" [] (action_names tcb)

let test_user_timeout_rearms_when_idle () =
  let p = { params with user_timeout_us = 1000 } in
  let tcb = estab_tcb ~params:p () in
  let state = State.timer_expired p (Tcb.Estab tcb) Tcb.User_timeout ~now:0 in
  Alcotest.(check string) "still alive" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "re-armed" [ "set-timer:user-timeout" ]
    (action_names tcb)

let test_user_timeout_kills_stuck_connection () =
  let p = { params with user_timeout_us = 1000 } in
  let tcb = estab_tcb ~params:p () in
  Send.enqueue p tcb (Packet.of_string "stuck data") ~now:0;
  ignore (drain_actions tcb);
  let state = State.timer_expired p (Tcb.Estab tcb) Tcb.User_timeout ~now:2000 in
  Alcotest.(check string) "gave up" "CLOSED" (Tcb.state_name state);
  let names = action_names tcb in
  Alcotest.(check bool) "reports the error" true (List.mem "user-error" names)

let test_congestion_avoidance_growth_slower_than_slow_start () =
  let tcb = estab_tcb () in
  tcb.Tcb.snd_wnd <- 1 lsl 20;
  (* slow start: below ssthresh, cwnd grows by mss per mss acked *)
  tcb.Tcb.cwnd <- 2000;
  tcb.Tcb.ssthresh <- 100_000;
  Send.enqueue params tcb (Packet.of_string (String.make 2000 'a')) ~now:0;
  ignore (drain_actions tcb);
  ignore (Resend.process_ack params tcb ~ack:tcb.Tcb.snd_nxt ~now:10);
  let after_ss = tcb.Tcb.cwnd in
  Alcotest.(check bool) "slow start doubled-ish" true (after_ss >= 3000);
  (* congestion avoidance: above ssthresh, growth is ~mss^2/cwnd *)
  tcb.Tcb.ssthresh <- 1000;
  let before = tcb.Tcb.cwnd in
  Send.enqueue params tcb (Packet.of_string (String.make 1000 'b')) ~now:20;
  ignore (drain_actions tcb);
  ignore (Resend.process_ack params tcb ~ack:tcb.Tcb.snd_nxt ~now:30);
  let growth = tcb.Tcb.cwnd - before in
  Alcotest.(check bool) "linear-phase growth small" true
    (growth > 0 && growth < 1000)

let test_rto_clamped_to_bounds () =
  let p = { params with rto_min_us = 500; rto_max_us = 10_000 } in
  let tcb = estab_tcb ~params:p () in
  Resend.sample p tcb ~sample_us:1;
  Alcotest.(check int) "clamped up" 500 (Resend.rto p tcb);
  Resend.sample p tcb ~sample_us:10_000_000;
  Alcotest.(check int) "clamped down" 10_000 (Resend.rto p tcb);
  tcb.Tcb.backoff <- 10;
  Alcotest.(check int) "backoff also clamped" 10_000 (Resend.rto p tcb)

let seq_minmax_laws =
  qtest "seq: min/max agree with circular order"
    QCheck2.Gen.(pair (int_bound 0xFFFFFFF) (int_bound 10000))
    (fun (a, d) ->
      let a = Seq.of_int a in
      let b = Seq.add a d in
      Seq.equal (Seq.max a b) b && Seq.equal (Seq.min a b) a)

(* ------------------------------------------------------------------ *)
(* Fast path                                                          *)
(* ------------------------------------------------------------------ *)

let test_fast_path_data () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"quick" () in
  Alcotest.(check bool) "taken" true
    (Receive.fast_path params tcb seg ~now:0);
  Alcotest.(check int) "rcv_nxt" 5006 (Seq.to_int tcb.Tcb.rcv_nxt);
  Alcotest.(check int) "hit counted" 1 tcb.Tcb.fast_path_hits;
  match drain_actions tcb with
  | [ Tcb.User_data d; Tcb.Send_ack ] ->
    Alcotest.(check string) "payload" "quick" (Packet.to_string d)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions))

let test_fast_path_pure_ack () =
  let tcb = estab_tcb () in
  tcb.Tcb.cwnd <- 1 lsl 20;
  Send.enqueue params tcb (Packet.of_string (String.make 1000 'q')) ~now:0;
  ignore (drain_actions tcb);
  let ack = mk_segment ~seq:5001 ~ack:(Some 2001) ~window:8192 () in
  Alcotest.(check bool) "taken" true (Receive.fast_path params tcb ack ~now:10);
  Alcotest.(check int) "snd_una" 2001 (Seq.to_int tcb.Tcb.snd_una);
  Alcotest.(check int) "rtx drained" 0 (Fox_basis.Ring.length tcb.Tcb.rtx_q)

let test_fast_path_rejects_odd_segments () =
  let tcb = estab_tcb () in
  let fin = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1001) () in
  Alcotest.(check bool) "fin not fast" false
    (Receive.fast_path params tcb fin ~now:0);
  let ooo = mk_segment ~seq:6000 ~ack:(Some 1001) ~data:"x" () in
  Alcotest.(check bool) "ooo not fast" false
    (Receive.fast_path params tcb ooo ~now:0);
  let old_ack = mk_segment ~seq:5001 ~ack:(Some 1001) () in
  Alcotest.(check bool) "dup ack not fast" false
    (Receive.fast_path params tcb old_ack ~now:0)

(* Every fast-path hit replayed through the general DAG must land on an
   identical TCB — the ablation's behavioural-invisibility claim, checked
   here on both fast-path shapes with the differential machinery the fuzz
   harness uses. *)
let test_fast_path_differential () =
  let mismatches = ref [] in
  Receive.differential := true;
  Receive.on_mismatch := (fun msg -> mismatches := msg :: !mismatches);
  Fun.protect
    ~finally:(fun () ->
      Receive.differential := false;
      Receive.on_mismatch := failwith)
    (fun () ->
      let tcb = estab_tcb () in
      let data = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"quick" () in
      Alcotest.(check bool) "data taken" true
        (Receive.fast_path params tcb data ~now:0);
      ignore (drain_actions tcb);
      tcb.Tcb.cwnd <- 1 lsl 20;
      Send.enqueue params tcb (Packet.of_string (String.make 1000 'q')) ~now:0;
      ignore (drain_actions tcb);
      let ack = mk_segment ~seq:5006 ~ack:(Some 2001) () in
      Alcotest.(check bool) "ack taken" true
        (Receive.fast_path params tcb ack ~now:10);
      ignore (drain_actions tcb);
      Alcotest.(check (list string)) "no divergence" [] !mismatches)

(* The shadow that differential mode replays through the general DAG
   must get its own to_do bands.  With actions already queued at entry
   (in both bands under [prioritize_latency]), a hit with differential on
   must leave exactly the actions the same hit leaves with it off — a
   shadow sharing the real queues would queue its actions there too. *)
let test_differential_shadow_isolated () =
  let hit params ~differential =
    let tcb = estab_tcb ~params () in
    Tcb.add_to_do tcb Tcb.Send_ack;
    Tcb.add_to_do tcb (Tcb.Set_timer (Tcb.Keepalive, 1));
    let mismatches = ref [] in
    Receive.differential := differential;
    Receive.on_mismatch := (fun msg -> mismatches := msg :: !mismatches);
    Fun.protect
      ~finally:(fun () ->
        Receive.differential := false;
        Receive.on_mismatch := failwith)
      (fun () ->
        let seg = mk_segment ~seq:5001 ~ack:(Some 1001) ~data:"quick" () in
        Alcotest.(check bool) "taken" true
          (Receive.fast_path params tcb seg ~now:0));
    Alcotest.(check (list string)) "no divergence" [] !mismatches;
    let pending = List.map Tcb.action_name (Tcb.pending_actions tcb) in
    Alcotest.(check int) "to_do_len counts the queue" (List.length pending)
      tcb.Tcb.to_do_len;
    pending
  in
  List.iter
    (fun params ->
      Alcotest.(check (list string)) "same actions as without the shadow"
        (hit params ~differential:false)
        (hit params ~differential:true))
    [ params; { params with Tcb.prioritize_latency = true } ]


(* ------------------------------------------------------------------ *)
(* Delayed-ACK hygiene: leaving ESTABLISHED/CLOSE-WAIT must disarm it   *)
(* ------------------------------------------------------------------ *)

let arm_delayed_ack tcb =
  tcb.Tcb.ack_pending <- true;
  tcb.Tcb.ack_timer_on <- true

let check_delayed_ack_cleared ?(actions = []) tcb =
  Alcotest.(check bool) "ack_pending cleared" false tcb.Tcb.ack_pending;
  Alcotest.(check bool) "ack timer disarmed" false tcb.Tcb.ack_timer_on;
  let names =
    match actions with [] -> action_names tcb | l -> List.map Tcb.action_name l
  in
  Alcotest.(check bool) "clear-timer queued" true
    (List.mem "clear-timer:delayed-ack" names)

let test_close_wait_close_cancels_delayed_ack () =
  let tcb = estab_tcb () in
  arm_delayed_ack tcb;
  let state = State.close params (Tcb.Close_wait tcb) ~now:0 in
  Alcotest.(check string) "last-ack" "LAST-ACK" (Tcb.state_name state);
  check_delayed_ack_cleared tcb

let test_abort_cancels_delayed_ack () =
  let tcb = estab_tcb () in
  arm_delayed_ack tcb;
  let state = State.abort params (Tcb.Estab tcb) in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  check_delayed_ack_cleared tcb

let test_time_wait_entry_cancels_delayed_ack () =
  let tcb = estab_tcb () in
  (* our FIN goes out... *)
  let state = State.close params (Tcb.Estab tcb) ~now:0 in
  Alcotest.(check string) "fin-wait-1" "FIN-WAIT-1" (Tcb.state_name state);
  ignore (drain_actions tcb);
  (* ...crosses the peer's FIN (simultaneous close → CLOSING)... *)
  let peer_fin = mk_segment ~fin:true ~seq:5001 ~ack:(Some 1001) () in
  let state = Receive.process params state peer_fin ~now:0 in
  Alcotest.(check string) "closing" "CLOSING" (Tcb.state_name state);
  ignore (drain_actions tcb);
  arm_delayed_ack tcb;
  (* ...and the ACK of our FIN enters TIME-WAIT: 2·MSL must be silent *)
  let fin_ack = mk_segment ~seq:5002 ~ack:(Some 1002) () in
  let state = Receive.process params state fin_ack ~now:0 in
  Alcotest.(check string) "time-wait" "TIME-WAIT" (Tcb.state_name state);
  check_delayed_ack_cleared tcb

(* ------------------------------------------------------------------ *)
(* Externalisation when the wire refuses                               *)
(* ------------------------------------------------------------------ *)

(* [Action.externalize] consumes the send action's one reference to the
   segment.  When [send] raises, the packet window must still be restored
   (the segment may sit on the retransmission queue, and a header left
   pushed would go out again as text) and exactly that one reference
   released.  Each test keeps an extra reference of its own, so a double
   release would show as the packet dying early. *)
let externalize_refused ~data ~allocate =
  match
    Action.externalize
      ~pseudo_for:(fun _ -> Checksum.none)
      ~hdr:(Tcp_header.basic ~src_port:1000 ~dst_port:2000)
      ~data ~allocate
      ~send:(fun _ -> raise (Fox_proto.Common.Send_failed "refused"))
      ()
  with
  | () -> Alcotest.fail "send should have raised"
  | exception Fox_proto.Common.Send_failed _ -> ()

let test_externalize_refused_data () =
  let p = Packet.of_string ~headroom:64 "segment text" in
  Packet.retain p;
  let saved = Packet.save p in
  let live = Packet.live_packets () in
  externalize_refused ~data:(Some p) ~allocate:(fun _ ->
      Alcotest.fail "a data segment needs no allocation");
  Alcotest.(check bool) "window restored" true (Packet.save p = saved);
  Alcotest.(check string) "text intact" "segment text" (Packet.to_string p);
  Alcotest.(check int) "one reference left" live (Packet.live_packets ());
  Packet.release p;
  Alcotest.(check int) "and only one" (live - 1) (Packet.live_packets ())

let test_externalize_refused_pure_ack () =
  let allocated = ref None in
  let allocate n =
    let p = Packet.create ~headroom:64 n in
    Packet.retain p;
    allocated := Some p;
    p
  in
  let live = Packet.live_packets () in
  externalize_refused ~data:None ~allocate;
  match !allocated with
  | None -> Alcotest.fail "no ACK packet allocated"
  | Some p ->
    Alcotest.(check int) "one reference left" (live + 1)
      (Packet.live_packets ());
    Packet.release p;
    Alcotest.(check int) "and only one" live (Packet.live_packets ())


(* ------------------------------------------------------------------ *)
(* Random segment storm: the state machine must never raise            *)
(* ------------------------------------------------------------------ *)

let receive_never_raises =
  qtest ~count:500 "receive: arbitrary segments never crash the DAG"
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (tup3 (int_bound 63) (int_bound 20000) (string_size (int_bound 50))))
    (fun segs ->
      let tcb = estab_tcb () in
      let state = ref (Tcb.Estab tcb) in
      List.iter
        (fun (flags, seq, data) ->
          (match Tcb.tcb_of !state with
          | Some _ ->
            let seg =
              mk_segment
                ~syn:(flags land 2 <> 0)
                ~fin:(flags land 1 <> 0)
                ~rst:(flags land 4 <> 0)
                ~ack:(if flags land 16 <> 0 then Some (1001 + (seq mod 50)) else None)
                ~seq:(4000 + seq) ~data ()
            in
            state := Receive.process params !state seg ~now:0
          | None -> ());
          ignore (drain_actions tcb))
        segs;
      true)

(* ------------------------------------------------------------------ *)
(* Tomb: the TIME-WAIT table, with no engine                          *)
(* ------------------------------------------------------------------ *)

(* Hosts are ints here: the table only hashes and compares them. *)
module Tombs = struct
  include Tomb

  let create () = Tomb.create ~equal:Int.equal ~hash:Hashtbl.hash ()
end

let tomb table ~host ~local_port ~remote_port =
  Tcb.time_wait_of
    (Tcb.create_tcb params ~iss:Seq.zero)
    ~host ~local_port ~remote_port ~arrival:(Tombs.arrive table)
    ~timer:(Fox_sched.Timer.create ignore) ~upcall:ignore

let found table (tw : int Tcb.time_wait) =
  match Tombs.find table tw.host tw.local_port tw.remote_port with
  | Some f -> f == tw
  | None -> false

let test_tomb_growth () =
  let table = Tombs.create () in
  let all =
    List.init 100 (fun i ->
        let tw =
          tomb table ~host:(i mod 7) ~local_port:(1000 + i) ~remote_port:80
        in
        Tombs.add table tw;
        tw)
  in
  Alcotest.(check int) "count" 100 (Tombs.count table);
  (* 16 slots hold 64 at 4x load; the 65th doubles the array *)
  Alcotest.(check int) "grown once" 32 (Tombs.slots table);
  Alcotest.(check bool) "each found after the growth" true
    (List.for_all (found table) all);
  Alcotest.(check bool) "an absent 4-tuple" true
    (Tombs.find table 3 999 80 = None);
  Alcotest.(check int) "to_list holds them all" 100
    (List.length (Tombs.to_list table))

let test_tomb_remove () =
  let table = Tombs.create () in
  (* remote ports 16 apart share a slot of the 16: one chain, newest at
     its head *)
  let a = tomb table ~host:0 ~local_port:0 ~remote_port:0 in
  let b = tomb table ~host:0 ~local_port:0 ~remote_port:16 in
  let c = tomb table ~host:0 ~local_port:0 ~remote_port:32 in
  List.iter (Tombs.add table) [ a; b; c ];
  Alcotest.(check bool) "one chain" true (c.chain == b && b.chain == a);
  Tombs.remove table c;
  Alcotest.(check bool) "head gone" false (Tombs.parked table c);
  Alcotest.(check bool) "rest found" true (found table a && found table b);
  Tombs.add table c;
  Tombs.remove table b;
  Alcotest.(check bool) "middle gone" false (Tombs.parked table b);
  Alcotest.(check bool) "ends found" true (found table a && found table c);
  Alcotest.(check bool) "chain relinked" true (c.chain == a);
  Alcotest.(check int) "count" 2 (Tombs.count table)

let test_tomb_drops_array () =
  let table = Tombs.create () in
  Alcotest.(check int) "no array when empty" 0 (Tombs.slots table);
  let a = tomb table ~host:1 ~local_port:1 ~remote_port:1 in
  let b = tomb table ~host:2 ~local_port:2 ~remote_port:2 in
  Tombs.add table a;
  Tombs.add table b;
  Alcotest.(check int) "first tombstone allocates" 16 (Tombs.slots table);
  Tombs.remove table a;
  Alcotest.(check int) "kept while one is parked" 16 (Tombs.slots table);
  Tombs.remove table b;
  Alcotest.(check int) "dropped at zero" 0 (Tombs.slots table);
  Alcotest.(check bool) "nothing found" true (Tombs.find table 2 2 2 = None)

let test_tomb_oldest_first () =
  let table = Tombs.create () in
  Alcotest.(check bool) "none when empty" true (Tombs.oldest table = None);
  let tws =
    List.init 5 (fun i -> tomb table ~host:i ~local_port:i ~remote_port:i)
  in
  (* parked out of arrival order *)
  List.iter (fun i -> Tombs.add table (List.nth tws i)) [ 3; 0; 4; 1; 2 ];
  let order =
    List.init 5 (fun _ ->
        match Tombs.oldest table with
        | Some tw ->
          Tombs.remove table tw;
          tw.arrival
        | None -> Alcotest.fail "table emptied early")
  in
  Alcotest.(check (list int)) "arrival order" [ 1; 2; 3; 4; 5 ] order

(* ------------------------------------------------------------------ *)
(* Listen: passive open, with no engine                               *)
(* ------------------------------------------------------------------ *)

module Passive = Listen

let listen_params =
  {
    params with
    syn_cache = true;
    syn_cookies = true;
    listen_backlog = 1;
    rto_max_us = 1_000_000;
  }

let ttl_us = 2 * listen_params.rto_max_us

let lport = 80

(* A listener whose cache entries get ISS 1000, 2000, ... *)
let listener ?(params = listen_params) ?(secret = (11, 22)) () =
  let minted = ref 0 in
  Passive.create params ~equal:Int.equal ~to_string:string_of_int ~secret
    ~iss:(fun ~host:_ ~local_port:_ ~remote_port:_ ->
      incr minted;
      Seq.of_int (1000 * !minted))

let decide ?(host = 7) ?(room = true) l hdr ~now =
  Passive.segment l host hdr ~now ~room ~mss:(fun () -> 1460) ()

let syn_from ?mss src_port ~seq =
  {
    (Tcp_header.basic ~src_port ~dst_port:lport) with
    Tcp_header.seq = Seq.of_int seq;
    syn = true;
    mss;
  }

let ack_from src_port ~seq ~ack =
  {
    (Tcp_header.basic ~src_port ~dst_port:lport) with
    Tcp_header.seq = seq;
    ack_flag = true;
    ack;
  }

(* the handshake ACK answering a SYN-ACK *)
let ack_for src_port = function
  | Listen.Syn_ack { iss; irs } ->
    ack_from src_port ~seq:(Seq.add irs 1) ~ack:(Seq.add iss 1)
  | _ -> Alcotest.fail "expected a SYN-ACK"

let iss_of = function
  | Listen.Syn_ack { iss; _ } -> Seq.to_int iss
  | _ -> Alcotest.fail "expected a SYN-ACK"

let is_unknown = function Listen.Unknown -> true | _ -> false

let test_listen_cookie_classes () =
  let l = listener () in
  (* one entry fills the single-entry cache: every SYN after it gets a
     cookie *)
  ignore (decide l (syn_from 1 ~seq:500) ~now:0);
  Array.iteri
    (fun i mss ->
      let port = 100 + i in
      let synack = decide l (syn_from port ~mss ~seq:(7000 * i)) ~now:10 in
      Alcotest.(check int) "class in the low bits" i (iss_of synack land 3);
      match decide l (ack_for port synack) ~now:20 with
      | Listen.Promote { peer_mss; iss; irs } ->
        Alcotest.(check (option int)) "mss recovered" (Some mss) peer_mss;
        Alcotest.(check int) "iss" (iss_of synack) (Seq.to_int iss);
        Alcotest.(check int) "irs" (7000 * i) (Seq.to_int irs)
      | _ -> Alcotest.fail "cookie not promoted")
    Listen.mss_classes;
  Alcotest.(check int) "no state held for cookies" 1 (Passive.held l)

let test_listen_cookie_secret () =
  let minter = listener ~secret:(11, 22) () in
  let other = listener ~secret:(11, 23) () in
  List.iter
    (fun l -> ignore (decide l (syn_from 1 ~seq:500) ~now:0))
    [ minter; other ];
  let synack = decide minter (syn_from 2 ~mss:1460 ~seq:9000) ~now:10 in
  Alcotest.(check bool) "rejected under another secret" true
    (is_unknown (decide other (ack_for 2 synack) ~now:20));
  Alcotest.(check bool) "another host's ACK rejected" true
    (is_unknown (decide ~host:8 minter (ack_for 2 synack) ~now:20));
  Alcotest.(check bool) "accepted under its own" true
    (match decide minter (ack_for 2 synack) ~now:20 with
    | Listen.Promote _ -> true
    | _ -> false)

let test_listen_cookie_ticks () =
  let l = listener () in
  let tick = Listen.cookie_tick_us in
  ignore (decide l (syn_from 1 ~seq:500) ~now:(tick - 2));
  let synack = decide l (syn_from 2 ~mss:1460 ~seq:9000) ~now:(tick - 1) in
  let promoted now =
    match decide l (ack_for 2 synack) ~now with
    | Listen.Promote _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "the next tick" true (promoted ((2 * tick) - 1));
  Alcotest.(check bool) "two ticks on" false (promoted (2 * tick))

let test_listen_syn_retransmit () =
  let l = listener () in
  let first = decide l (syn_from 5 ~seq:300) ~now:0 in
  let again = decide l (syn_from 5 ~seq:300) ~now:ttl_us in
  Alcotest.(check int) "same iss" (iss_of first) (iss_of again);
  Alcotest.(check int) "one entry" 1 (Passive.held l);
  (* refreshed at [ttl_us], the entry outlives its first TTL *)
  match decide l (ack_for 5 first) ~now:(2 * ttl_us) with
  | Listen.Promote { iss; _ } ->
    Alcotest.(check int) "promoted with it" (iss_of first) (Seq.to_int iss);
    Alcotest.(check int) "entry gone" 0 (Passive.held l)
  | _ -> Alcotest.fail "refreshed entry expired"

let test_listen_ttl () =
  let no_cookies = { listen_params with syn_cookies = false } in
  let at_ttl = listener ~params:no_cookies () in
  let past_ttl = listener ~params:no_cookies () in
  let a = decide at_ttl (syn_from 5 ~seq:300) ~now:0 in
  let b = decide past_ttl (syn_from 5 ~seq:300) ~now:0 in
  Alcotest.(check bool) "alive at exactly 2 x rto_max" true
    (match decide at_ttl (ack_for 5 a) ~now:ttl_us with
    | Listen.Promote _ -> true
    | _ -> false);
  Alcotest.(check bool) "expired a microsecond later" true
    (is_unknown (decide past_ttl (ack_for 5 b) ~now:(ttl_us + 1)));
  Alcotest.(check int) "purged" 0 (Passive.held past_ttl)

let test_listen_full_cache () =
  let with_cookies = listener () in
  let without =
    listener ~params:{ listen_params with syn_cookies = false } ()
  in
  List.iter
    (fun l -> ignore (decide l (syn_from 1 ~seq:500) ~now:0))
    [ with_cookies; without ];
  let cookie = decide with_cookies (syn_from 2 ~mss:1460 ~seq:900) ~now:5 in
  Alcotest.(check bool) "a cookie, not a cache entry" true
    (iss_of cookie <> 2000 && Passive.held with_cookies = 1);
  Alcotest.(check bool) "refused without cookies" true
    (match decide without (syn_from 2 ~seq:900) ~now:5 with
    | Listen.Refuse _ -> true
    | _ -> false);
  Alcotest.(check bool) "refused at the connection cap" true
    (match decide ~room:false with_cookies (syn_from 3 ~seq:900) ~now:5 with
    | Listen.Refuse _ -> true
    | _ -> false)

let test_listen_rst () =
  let l = listener () in
  ignore (decide l (syn_from 5 ~seq:300) ~now:0);
  let rst seq =
    { (Tcp_header.basic ~src_port:5 ~dst_port:lport) with
      Tcp_header.seq = Seq.of_int seq;
      rst = true;
    }
  in
  Alcotest.(check bool) "inexact RST dropped" true
    (decide l (rst (301 + 123_456)) ~now:1 = Listen.Drop);
  Alcotest.(check int) "entry kept" 1 (Passive.held l);
  Alcotest.(check bool) "exact RST dropped" true
    (decide l (rst 301) ~now:2 = Listen.Drop);
  Alcotest.(check int) "entry forgotten" 0 (Passive.held l)

let test_listen_legacy_backlog () =
  let l =
    listener
      ~params:{ params with syn_cache = false; listen_backlog = 2 }
      ()
  in
  let opened port =
    match decide l (syn_from port ~seq:100) ~now:0 with
    | Listen.Open -> true
    | Listen.Refuse _ -> false
    | _ -> Alcotest.fail "legacy SYN: Open or Refuse"
  in
  Alcotest.(check (list bool)) "two slots" [ true; true; false ]
    (List.map opened [ 1; 2; 3 ]);
  Alcotest.(check int) "half open" 2 (Passive.half_open l);
  Passive.leave l;
  Alcotest.(check int) "one left" 1 (Passive.half_open l);
  Alcotest.(check bool) "slot reused" true (opened 4);
  Alcotest.(check bool) "no ACK path without the cache" true
    (is_unknown
       (decide l (ack_from 4 ~seq:(Seq.of_int 101) ~ack:Seq.zero) ~now:1))

(* ------------------------------------------------------------------ *)
(* Engine: the executor, with no Tcp.Make                              *)
(* ------------------------------------------------------------------ *)

(* A fake lower layer over sessions of type [unit]: it decodes every
   segment it is given and keeps the header and text length, newest
   first.  With [fail] set, the next send raises that instead. *)
type wire = {
  mutable sent : (Tcp_header.t * int) list;
  mutable fail : exn option;
}

let fake_lower w =
  let send () p =
    (match w.fail with
    | Some exn ->
      w.fail <- None;
      raise exn
    | None -> ());
    let copy = Packet.copy p in
    (match Tcp_header.decode ~pseudo:Checksum.none copy with
    | Ok hdr -> w.sent <- (hdr, Packet.length copy) :: w.sent
    | Error _ -> Alcotest.fail "the engine sent an undecodable segment");
    Packet.release copy
  in
  {
    Engine.prepare = send;
    send;
    pseudo = (fun () _ -> Checksum.none);
    allocate = (fun () len -> Packet.create ~headroom:64 len);
  }

(* An engine over a fresh fake wire, and the count of connections it
   unlinked from its (absent) demultiplexer. *)
let engine () =
  let w = { sent = []; fail = None } and unlinked = ref 0 in
  let e =
    Engine.create params (fake_lower w) ~name:string_of_int ~equal:Int.equal
      ~hash:Hashtbl.hash ~unlink:(fun _ -> incr unlinked)
  in
  (e, w, unlinked)

(* A hand-built ESTABLISHED connection, ISS 1000 and IRS 5000, whose
   status upcalls are kept newest first. *)
let established e =
  let state =
    State.promote_passive params ~iss:(Seq.of_int 1000) ~irs:(Seq.of_int 5000)
      ~mss:1460 ~peer_mss:(Some 1460) ~wnd:65535
  in
  let conn =
    Engine.connection e ~host:7 ~local_port:80 ~remote_port:4000 () state
  in
  let statuses = ref [] in
  conn.status <- (fun s -> statuses := s :: !statuses);
  Engine.drain conn;
  (conn, statuses)

(* A segment from the peer: [payload] at [seq], acknowledging all we
   sent. *)
let from_peer (conn : (int, unit) Engine.conn) ?(fin = false) ~seq payload =
  {
    Tcb.hdr =
      {
        (Tcp_header.basic ~src_port:conn.remote_port ~dst_port:conn.local_port)
        with
        Tcp_header.seq = Seq.of_int seq;
        ack = conn.tcb.Tcb.snd_nxt;
        ack_flag = true;
        fin;
        window = 65535;
      };
    data = Packet.of_string payload;
    arrived_at = Fox_sched.Scheduler.now ();
  }

let deliver (conn : (int, unit) Engine.conn) seg =
  Tcb.add_to_do conn.tcb (Tcb.Process_data seg);
  Engine.drain conn

let in_run f = ignore (Fox_sched.Scheduler.run f)

let last_sent w =
  match w.sent with
  | sent :: _ -> sent
  | [] -> Alcotest.fail "nothing reached the lower layer"

let test_engine_sends () =
  in_run (fun () ->
      let e, w, _ = engine () in
      let conn, _ = established e in
      let tcb = conn.tcb in
      Tcb.add_to_do tcb Tcb.Send_ack;
      Engine.drain conn;
      let hdr, len = last_sent w in
      Alcotest.(check (list int))
        "pure ACK: ports, seq, ack, window, text"
        [ 80; 4000; 1001; 5001; tcb.Tcb.rcv_wnd; 0 ]
        [ hdr.src_port; hdr.dst_port; Seq.to_int hdr.seq;
          Seq.to_int hdr.ack; hdr.window; len ];
      Alcotest.(check (list bool)) "pure ACK flags" [ true; false; false; false ]
        [ hdr.ack_flag; hdr.syn; hdr.fin; hdr.rst ];
      Alcotest.(check (pair int int)) "counted by engine and TCB" (1, 1)
        (e.counters.segs_out, tcb.Tcb.segs_out);
      let segment ?(rst = false) data =
        Tcb.Send_segment
          { Tcb.out_seq = tcb.Tcb.snd_nxt; out_syn = false; out_fin = false;
            out_rst = rst; out_psh = not rst; out_ack = not rst;
            out_data = data; out_mss = None; out_is_rtx = false }
      in
      Tcb.add_to_do tcb
        (segment (Some (Packet.of_string ~headroom:64 "hello")));
      Engine.drain conn;
      let hdr, len = last_sent w in
      Alcotest.(check (list int)) "data segment: seq, ack, text"
        [ 1001; 5001; 5 ] [ Seq.to_int hdr.seq; Seq.to_int hdr.ack; len ];
      Alcotest.(check bool) "PSH" true (hdr.psh && hdr.ack_flag);
      Tcb.add_to_do tcb (segment ~rst:true None);
      Engine.drain conn;
      let hdr, _ = last_sent w in
      Alcotest.(check (pair bool bool)) "RST without ACK" (true, false)
        (hdr.rst, hdr.ack_flag);
      Alcotest.(check (list int)) "segs_out, rsts_sent, TCB segs_out"
        [ 3; 1; 3 ]
        [ e.counters.segs_out; e.counters.rsts_sent; tcb.Tcb.segs_out ])

let test_engine_time_wait () =
  in_run (fun () ->
      let e, w, unlinked = engine () in
      let conn, statuses = established e in
      conn.state <- State.close params conn.state ~now:0;
      Engine.drain conn;
      let fin, _ = last_sent w in
      Alcotest.(check bool) "our FIN sent" true fin.fin;
      deliver conn (from_peer conn ~fin:true ~seq:5001 "");
      let tw =
        match conn.tomb with
        | Some tw -> tw
        | None -> Alcotest.fail "no tombstone after the peer's FIN"
      in
      Alcotest.(check bool) "tombstone parked" true (Tomb.parked e.tombs tw);
      Alcotest.(check bool) "connection retired" true (conn.dead && !unlinked = 1);
      Alcotest.(check bool) "2·MSL armed on the tombstone" true
        (Fox_sched.Timer.armed tw.timer);
      let ack, _ = last_sent w in
      Alcotest.(check int) "the peer's FIN acknowledged" 5002
        (Seq.to_int ack.ack);
      Alcotest.(check (list string)) "final status waits for 2·MSL"
        [ "remote-close"; "connected" ]
        (List.map Fox_proto.Status.to_string !statuses);
      Fox_sched.Scheduler.sleep (params.time_wait_us + Fox_sched.Wheel.granularity_us);
      Alcotest.(check int) "tombstone gone" 0 (Tomb.count e.tombs);
      Alcotest.(check (list string)) "closed once, at expiry"
        [ "closed"; "remote-close"; "connected" ]
        (List.map Fox_proto.Status.to_string !statuses))

let test_engine_delete_once () =
  in_run (fun () ->
      let e, _, unlinked = engine () in
      let conn, statuses = established e in
      Tcb.add_to_do conn.tcb Tcb.Delete_tcb;
      Tcb.add_to_do conn.tcb Tcb.Delete_tcb;
      Engine.drain conn;
      Tcb.add_to_do conn.tcb Tcb.Delete_tcb;
      Engine.drain conn;
      Alcotest.(check (list string)) "one final upcall" [ "closed"; "connected" ]
        (List.map Fox_proto.Status.to_string !statuses);
      Alcotest.(check bool) "retired once" true (conn.dead && !unlinked = 1))

(* DESIGN §4: an upcall that raises propagates out of [drain] and leaves
   the connection able to process its next segment; so does a lower
   layer whose send raises, with the queued segment's window and
   reference restored. *)
let test_engine_upcall_raises () =
  in_run (fun () ->
      let e, w, _ = engine () in
      let conn, _ = established e in
      let tcb = conn.tcb in
      let got = Buffer.create 8 and first = ref true in
      conn.data <-
        (fun p ->
          let text = Packet.to_string p in
          Packet.release p;
          if !first then begin
            first := false;
            failwith "handler"
          end;
          Buffer.add_string got text);
      Alcotest.check_raises "the data upcall's exception" (Failure "handler")
        (fun () -> deliver conn (from_peer conn ~seq:5001 "abc"));
      Alcotest.(check bool) "draining reset" false conn.draining;
      deliver conn (from_peer conn ~seq:5004 "def");
      Alcotest.(check string) "next segment delivered" "def"
        (Buffer.contents got);
      Alcotest.(check int) "and acknowledged" 5007
        (Seq.to_int (fst (last_sent w)).ack);
      let live = Packet.live_packets () in
      w.fail <- Some (Failure "wire");
      Alcotest.check_raises "the lower layer's exception" (Failure "wire")
        (fun () ->
          Send.enqueue params tcb (Packet.of_string ~headroom:64 "xyz") ~now:0;
          Engine.drain conn);
      Alcotest.(check bool) "draining reset after the send" false conn.draining;
      let queued =
        match Ring.to_list tcb.Tcb.rtx_q with
        | [ { Tcb.rtx_data = Some p; _ } ] -> p
        | _ -> Alcotest.fail "one data segment on the retransmission queue"
      in
      Alcotest.(check string) "its window restored" "xyz"
        (Packet.to_string queued);
      Alcotest.(check int) "only the queue's reference is live" (live + 1)
        (Packet.live_packets ());
      deliver conn (from_peer conn ~seq:5007 "");
      Alcotest.(check int) "acknowledged, so released" live
        (Packet.live_packets ()))

let () =
  Alcotest.run "fox_tcp_unit"
    [
      ( "seq",
        [
          seq_add_diff;
          seq_wrap_order;
          seq_window;
          Alcotest.test_case "extremes" `Quick test_seq_extremes;
        ] );
      ( "header",
        [ header_roundtrip; header_detects_corruption; basic_algorithm_agrees ]
      );
      ( "state",
        [
          Alcotest.test_case "active open" `Quick test_active_open;
          Alcotest.test_case "passive open" `Quick test_passive_open;
          Alcotest.test_case "passive open learns mss" `Quick
            test_passive_open_learns_mss;
          Alcotest.test_case "close from estab" `Quick test_close_from_estab;
          Alcotest.test_case "close flushes data" `Quick
            test_close_with_queued_data_sends_data_first;
          Alcotest.test_case "close-wait to last-ack" `Quick
            test_close_wait_to_last_ack;
          Alcotest.test_case "abort sends rst" `Quick test_abort_sends_rst;
          Alcotest.test_case "retransmit limit" `Quick
            test_retransmit_limit_gives_up;
          Alcotest.test_case "delayed ack timer" `Quick test_delayed_ack_timer;
          Alcotest.test_case "time-wait expiry" `Quick test_time_wait_expiry;
        ] );
      ( "send",
        [
          Alcotest.test_case "mss segmentation" `Quick
            test_segmentation_respects_mss;
          Alcotest.test_case "window limit" `Quick
            test_segmentation_respects_window;
          Alcotest.test_case "slow start" `Quick
            test_slow_start_limits_initial_burst;
          Alcotest.test_case "nagle" `Quick test_nagle_holds_small_segment;
          Alcotest.test_case "fin piggyback" `Quick
            test_fin_piggybacks_on_last_segment;
          Alcotest.test_case "zero window probe" `Quick
            test_zero_window_arms_probe;
          Alcotest.test_case "probe lost then retransmitted" `Quick
            test_window_probe_lost_then_retransmitted;
          Alcotest.test_case "window opens mid-probe" `Quick
            test_window_opens_while_probe_in_flight;
          Alcotest.test_case "dup-ack episodes reset on update" `Quick
            test_window_update_resets_dup_ack_episode;
          send_total_preserved;
        ] );
      ( "resend",
        [
          Alcotest.test_case "first rtt sample" `Quick
            test_rtt_estimator_first_sample;
          Alcotest.test_case "estimator converges" `Quick
            test_rtt_estimator_converges;
          Alcotest.test_case "karn's rule" `Quick test_karn_ignores_retransmitted;
          Alcotest.test_case "backoff" `Quick test_backoff_doubles_rto;
          Alcotest.test_case "ack clears queue" `Quick
            test_ack_clears_covered_entries;
          Alcotest.test_case "fast retransmit" `Quick
            test_fast_retransmit_on_three_dups;
        ] );
      ( "receive",
        [
          Alcotest.test_case "in-order data" `Quick test_in_order_data_delivered;
          Alcotest.test_case "out-of-order" `Quick
            test_out_of_order_buffered_then_flushed;
          Alcotest.test_case "duplicate" `Quick test_duplicate_segment_reacked;
          Alcotest.test_case "partial overlap" `Quick test_partial_overlap_trimmed;
          Alcotest.test_case "rst in window" `Quick test_rst_in_window_resets;
          Alcotest.test_case "rst outside window" `Quick
            test_rst_outside_window_ignored;
          Alcotest.test_case "fin" `Quick test_fin_moves_to_close_wait;
          Alcotest.test_case "handshake (client)" `Quick test_syn_sent_handshake;
          Alcotest.test_case "simultaneous open" `Quick test_simultaneous_open;
          Alcotest.test_case "full close" `Quick test_full_close_sequence;
          Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
          Alcotest.test_case "last-ack" `Quick test_last_ack_completes;
          Alcotest.test_case "syn in window" `Quick test_syn_in_window_resets;
          Alcotest.test_case "window update" `Quick
            test_window_update_releases_data;
          Alcotest.test_case "future ack" `Quick
            test_ack_of_future_data_reacked_and_dropped;
          Alcotest.test_case "beyond window" `Quick
            test_data_beyond_window_rejected;
          Alcotest.test_case "fin rtx in time-wait" `Quick
            test_fin_retransmission_in_time_wait_restarts_2msl;
          Alcotest.test_case "tombstone branches" `Quick test_tombstone_branches;
          Alcotest.test_case "tombstone challenge budget" `Quick
            test_tombstone_challenge_budget;
          Alcotest.test_case "tombstone window history" `Quick
            test_tombstone_window_history;
          Alcotest.test_case "ooo fin" `Quick test_ooo_fin_consumed_when_gap_fills;
          Alcotest.test_case "keepalive probe" `Quick
            test_zero_length_keepalive_style_probe;
          receive_never_raises;
        ] );
      ( "state-extra",
        [
          Alcotest.test_case "close in fin-wait noop" `Quick
            test_close_in_fin_wait_is_noop;
          Alcotest.test_case "user timeout re-arms" `Quick
            test_user_timeout_rearms_when_idle;
          Alcotest.test_case "user timeout kills" `Quick
            test_user_timeout_kills_stuck_connection;
        ] );
      ( "resend-extra",
        [
          Alcotest.test_case "cwnd growth phases" `Quick
            test_congestion_avoidance_growth_slower_than_slow_start;
          Alcotest.test_case "rto clamping" `Quick test_rto_clamped_to_bounds;
          seq_minmax_laws;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "data" `Quick test_fast_path_data;
          Alcotest.test_case "pure ack" `Quick test_fast_path_pure_ack;
          Alcotest.test_case "rejections" `Quick
            test_fast_path_rejects_odd_segments;
          Alcotest.test_case "differential" `Quick test_fast_path_differential;
          Alcotest.test_case "differential shadow isolated" `Quick
            test_differential_shadow_isolated;
        ] );
      ( "externalize",
        [
          Alcotest.test_case "refused data segment" `Quick
            test_externalize_refused_data;
          Alcotest.test_case "refused pure ack" `Quick
            test_externalize_refused_pure_ack;
        ] );
      ( "delayed-ack",
        [
          Alcotest.test_case "close-wait close disarms" `Quick
            test_close_wait_close_cancels_delayed_ack;
          Alcotest.test_case "abort disarms" `Quick
            test_abort_cancels_delayed_ack;
          Alcotest.test_case "time-wait entry disarms" `Quick
            test_time_wait_entry_cancels_delayed_ack;
        ] );
      ( "tomb",
        [
          Alcotest.test_case "add and find across a growth" `Quick
            test_tomb_growth;
          Alcotest.test_case "remove head and middle" `Quick test_tomb_remove;
          Alcotest.test_case "array dropped at zero" `Quick
            test_tomb_drops_array;
          Alcotest.test_case "oldest first" `Quick test_tomb_oldest_first;
        ] );
      ( "listen",
        [
          Alcotest.test_case "cookie round trip per mss class" `Quick
            test_listen_cookie_classes;
          Alcotest.test_case "cookie keyed by the secret" `Quick
            test_listen_cookie_secret;
          Alcotest.test_case "cookie lives two ticks" `Quick
            test_listen_cookie_ticks;
          Alcotest.test_case "retransmitted syn keeps its iss" `Quick
            test_listen_syn_retransmit;
          Alcotest.test_case "cache ttl is 2 x rto_max" `Quick test_listen_ttl;
          Alcotest.test_case "full cache: cookie or refusal" `Quick
            test_listen_full_cache;
          Alcotest.test_case "rst needs the exact sequence" `Quick
            test_listen_rst;
          Alcotest.test_case "legacy backlog count" `Quick
            test_listen_legacy_backlog;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sends reach the lower layer" `Quick
            test_engine_sends;
          Alcotest.test_case "time-wait parks a tombstone" `Quick
            test_engine_time_wait;
          Alcotest.test_case "delete delivers one upcall" `Quick
            test_engine_delete_once;
          Alcotest.test_case "an upcall that raises" `Quick
            test_engine_upcall_raises;
        ] );
    ]
