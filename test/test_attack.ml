(* Hostile-wire tests: the RFC 5961 blind-attack defenses at three levels.
   Unit tests drive the receive DAG directly (the RST trichotomy, ACK
   acceptability, the challenge-ACK budget); the fuzz smoke runs the
   segment-mutation gremlin over both engines; the scenario tests run the
   blind attackers from the matrix — including the teeth check that the
   same blind-RST sweep demonstrably kills a connection once the defenses
   are switched off. *)

open Fox_basis
open Fox_tcp
module Scenarios = Fox_check.Scenarios
module Mutate = Fox_check.Mutate

let params = { Tcb.default_params with delayed_ack_us = 0; nagle = false }

(* Same helpers as test_tcp_unit: segments arrive from peer 2000 -> 1000. *)
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
   snd_una = snd_nxt = 1001, rcv_nxt = 5001, rcv window 4096. *)
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
(* RFC 5961 §3: the RST trichotomy                                    *)
(* ------------------------------------------------------------------ *)

let test_rst_exact_match_tears_down () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~rst:true ~seq:5001 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "closed" "CLOSED" (Tcb.state_name state);
  let names = action_names tcb in
  Alcotest.(check bool) "reset signalled" true (List.mem "peer-reset" names);
  Alcotest.(check bool) "deleted" true (List.mem "delete-tcb" names);
  Alcotest.(check int) "not a challenge case" 0 tcb.Tcb.rst_challenges

let test_rst_in_window_challenged () =
  let tcb = estab_tcb () in
  (* in the receive window but not exactly rcv_nxt: the RFC 793 rule would
     tear down; 5961 answers with a challenge ACK and stays put *)
  let seg = mk_segment ~rst:true ~seq:6000 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "challenge ack only" [ "send-ack" ]
    (action_names tcb);
  Alcotest.(check int) "counted" 1 tcb.Tcb.rst_challenges;
  Alcotest.(check int) "sent" 1 tcb.Tcb.challenge_acks_sent

let test_rst_out_of_window_dropped () =
  let tcb = estab_tcb () in
  (* behind the window entirely: plain drop, not even a challenge *)
  let seg = mk_segment ~rst:true ~seq:4000 () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "silent drop" [] (action_names tcb);
  Alcotest.(check int) "no challenge" 0 tcb.Tcb.rst_challenges

let test_rst_in_window_legacy_kills () =
  (* defenses off: the pre-5961 rule applies and the blind RST lands *)
  let legacy = { params with Tcb.rfc5961 = false } in
  let tcb = estab_tcb ~params:legacy () in
  let seg = mk_segment ~rst:true ~seq:6000 () in
  let state = Receive.process legacy (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "killed" "CLOSED" (Tcb.state_name state);
  Alcotest.(check bool) "reset signalled" true
    (List.mem "peer-reset" (action_names tcb))

(* ------------------------------------------------------------------ *)
(* RFC 5961 §5: ACK acceptability                                     *)
(* ------------------------------------------------------------------ *)

let test_stale_ack_challenged_and_text_dropped () =
  let tcb = estab_tcb () in
  (* snd_una = 1001, max_snd_wnd = 8192: an ACK older than snd_una - 8192
     cannot be a delayed legitimate ACK, so the whole segment — payload
     included — is dropped.  This is what blocks blind data injection. *)
  let stale = (1001 - 8192 - 500) land 0xFFFFFFFF in
  let seg = mk_segment ~seq:5001 ~ack:(Some stale) ~data:"forged!" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "challenge ack only" [ "send-ack" ]
    (action_names tcb);
  Alcotest.(check int) "counted" 1 tcb.Tcb.ack_challenges;
  Alcotest.(check int) "text not delivered" 5001 (Seq.to_int tcb.Tcb.rcv_nxt)

let test_future_ack_challenged () =
  let tcb = estab_tcb () in
  let seg = mk_segment ~seq:5001 ~ack:(Some 999_999) ~data:"inject" () in
  let state = Receive.process params (Tcb.Estab tcb) seg ~now:0 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check int) "counted" 1 tcb.Tcb.ack_challenges;
  Alcotest.(check int) "text not delivered" 5001 (Seq.to_int tcb.Tcb.rcv_nxt)

(* ------------------------------------------------------------------ *)
(* The challenge-ACK budget                                           *)
(* ------------------------------------------------------------------ *)

let test_challenge_budget_exhaustion () =
  (* the engine cap binds here: connections sharing one engine each
     spend their whole per-connection budget (default 10), until the
     engine cap (100) runs out and the last connection's five in-window
     RSTs draw no challenge at all *)
  let per_conn = params.Tcb.challenge_ack_conn_limit in
  let full = Receive.challenge_ack_limit / per_conn in
  let conns = List.init (full + 1) (fun _ -> estab_tcb ()) in
  let last = List.nth conns full in
  let cap = last.Tcb.chall_cap in
  List.iter (fun tcb -> tcb.Tcb.chall_cap <- cap) conns;
  let rst tcb ~now =
    let seg = mk_segment ~rst:true ~seq:6000 () in
    ignore (Receive.process params (Tcb.Estab tcb) seg ~now);
    ignore (drain_actions tcb)
  in
  List.iter
    (fun tcb ->
      for _ = 1 to (if tcb == last then 5 else per_conn) do
        rst tcb ~now:0
      done)
    conns;
  let sum f = List.fold_left (fun a tcb -> a + f tcb) 0 conns in
  Alcotest.(check int) "all counted" ((full * per_conn) + 5)
    (sum (fun t -> t.Tcb.rst_challenges));
  Alcotest.(check int) "the cap sent" Receive.challenge_ack_limit
    (sum (fun t -> t.Tcb.challenge_acks_sent));
  Alcotest.(check int) "last connection: none sent" 0
    last.Tcb.challenge_acks_sent;
  Alcotest.(check int) "last connection: five suppressed" 5
    last.Tcb.challenge_acks_limited;
  (* a fresh one-second window refills the budget *)
  rst last ~now:1_100_000;
  Alcotest.(check int) "window refilled" 1 last.Tcb.challenge_acks_sent

let test_conn_budget_binds_first () =
  (* the per-connection budget suppresses a single noisy flow even when
     the engine cap still has room *)
  let tight = { params with Tcb.challenge_ack_conn_limit = 2 } in
  let tcb = estab_tcb ~params:tight () in
  for _ = 1 to 5 do
    let seg = mk_segment ~rst:true ~seq:6000 () in
    ignore (Receive.process tight (Tcb.Estab tcb) seg ~now:0);
    ignore (drain_actions tcb)
  done;
  Alcotest.(check int) "two sent" 2 tcb.Tcb.challenge_acks_sent;
  Alcotest.(check int) "three suppressed" 3 tcb.Tcb.challenge_acks_limited

let test_hostile_flow_cannot_starve_victim () =
  (* The CVE-2016-5696 regression.  Two connections share one engine cap
     (as they do in a live engine).  A hostile peer sprays the first with
     in-window RSTs far past every limit; a later in-window RST on the
     second connection must still earn its challenge ACK — under the old
     process-wide counter it was starved, and that silence was the
     attacker's oracle. *)
  let p = { params with Tcb.challenge_ack_conn_limit = 5 } in
  let victim = estab_tcb ~params:p () in
  let hostile = estab_tcb ~params:p () in
  victim.Tcb.chall_cap <- hostile.Tcb.chall_cap;
  for _ = 1 to 50 do
    let seg = mk_segment ~rst:true ~seq:6000 () in
    ignore (Receive.process p (Tcb.Estab hostile) seg ~now:0);
    ignore (drain_actions hostile)
  done;
  Alcotest.(check int) "hostile held to its own budget" 5
    hostile.Tcb.challenge_acks_sent;
  let seg = mk_segment ~rst:true ~seq:6000 () in
  ignore (Receive.process p (Tcb.Estab victim) seg ~now:0);
  Alcotest.(check (list string)) "victim still challenged" [ "send-ack" ]
    (action_names victim);
  Alcotest.(check int) "victim challenge sent" 1
    victim.Tcb.challenge_acks_sent;
  Alcotest.(check int) "victim nothing suppressed" 0
    victim.Tcb.challenge_acks_limited;
  (* contrast: with no per-connection layer (the pre-fix shape, global
     budget only) the same spray starves the victim completely *)
  let vuln = { params with Tcb.challenge_ack_conn_limit = 0 } in
  let victim' = estab_tcb ~params:vuln () in
  let hostile' = estab_tcb ~params:vuln () in
  victim'.Tcb.chall_cap <- hostile'.Tcb.chall_cap;
  for _ = 1 to Receive.challenge_ack_limit do
    let seg = mk_segment ~rst:true ~seq:6000 () in
    ignore (Receive.process vuln (Tcb.Estab hostile') seg ~now:0);
    ignore (drain_actions hostile')
  done;
  let seg = mk_segment ~rst:true ~seq:6000 () in
  ignore (Receive.process vuln (Tcb.Estab victim') seg ~now:0);
  ignore (drain_actions victim');
  Alcotest.(check int) "old shape: victim starved (the side channel)" 0
    victim'.Tcb.challenge_acks_sent

(* ------------------------------------------------------------------ *)
(* Segment-mutation fuzz smoke                                        *)
(* ------------------------------------------------------------------ *)

let test_mutation_smoke () =
  let mutants = ref 0 in
  let failures =
    Mutate.run_seeds
      ~log:(fun o -> mutants := !mutants + o.Mutate.mutants)
      ~seed:7100 ~iters:25 ()
  in
  List.iter (fun o -> print_endline (Mutate.report o)) failures;
  Alcotest.(check int) "no failing runs" 0 (List.length failures);
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 mutants injected (got %d)" !mutants)
    true (!mutants >= 200)

(* ------------------------------------------------------------------ *)
(* Scenario level: the attack matrix and its teeth                    *)
(* ------------------------------------------------------------------ *)

let find_scn name =
  match Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "scenario %s missing from the matrix" name

let test_blind_rst_guarded_survives () =
  let r = Scenarios.run_cell ~quick:true ~cc:"reno" (find_scn "blind_rst") in
  Alcotest.(check bool) "transfer completed" true r.Scenarios.complete;
  Alcotest.(check (list string)) "no invariant faults" []
    r.Scenarios.invariant_faults;
  Alcotest.(check int) "no bytes injected" 0 r.Scenarios.injected_bytes;
  Alcotest.(check bool) "adversary actually fired" true
    (r.Scenarios.attack_probes > 0)

let test_blind_rst_unguarded_dies () =
  (* the teeth: same ISN-predicting sweep, defenses off — the first
     in-window probe must kill the transfer (else the defended cells
     above prove nothing) *)
  let r = Scenarios.run_cell_unguarded ~quick:true (find_scn "blind_rst") in
  Alcotest.(check bool) "connection killed" false r.Scenarios.complete

let test_blind_rst_secure_isn_survives () =
  (* the RFC 6528 teeth: same sweep, defenses still off — only the ISNs
     are now keyed-PRF outputs, so the attacker's clock+salt prediction
     model covers a vanishing slice of the sequence space and the sweep
     that kills the legacy-ISN connection above must miss entirely *)
  let r =
    Scenarios.run_cell_unguarded_secure ~quick:true (find_scn "blind_rst")
  in
  Alcotest.(check bool) "transfer completed" true r.Scenarios.complete;
  Alcotest.(check int) "no bytes injected" 0 r.Scenarios.injected_bytes;
  Alcotest.(check bool) "adversary actually fired" true
    (r.Scenarios.attack_probes > 0)

let test_blind_syn_guarded_survives () =
  let r = Scenarios.run_cell ~quick:true ~cc:"reno" (find_scn "blind_syn") in
  Alcotest.(check bool) "transfer completed" true r.Scenarios.complete;
  Alcotest.(check int) "no bytes injected" 0 r.Scenarios.injected_bytes

let test_blind_data_injects_nothing () =
  let r = Scenarios.run_cell ~quick:true ~cc:"reno" (find_scn "blind_data") in
  Alcotest.(check bool) "transfer completed" true r.Scenarios.complete;
  Alcotest.(check int) "no bytes injected" 0 r.Scenarios.injected_bytes;
  Alcotest.(check (list string)) "no invariant faults" []
    r.Scenarios.invariant_faults

(* The per-cell verdict [foxnet scenarios] exits on: a cell that
   delivered the right number of bytes, some of them forged, fails. *)
let test_verdict_counts_injection () =
  let r = Scenarios.run_cell ~quick:true ~cc:"reno" (find_scn "blind_data") in
  Alcotest.(check (list string)) "the real cell passes" []
    (Scenarios.problems r);
  Alcotest.(check (list string)) "forged bytes fail it"
    [ "blind_data/reno: 3 bytes INJECTED" ]
    (Scenarios.problems { r with Scenarios.injected_bytes = 3 })

let () =
  Alcotest.run "attack"
    [
      ( "rfc5961-rst",
        [
          Alcotest.test_case "exact match tears down" `Quick
            test_rst_exact_match_tears_down;
          Alcotest.test_case "in-window challenged" `Quick
            test_rst_in_window_challenged;
          Alcotest.test_case "out-of-window dropped" `Quick
            test_rst_out_of_window_dropped;
          Alcotest.test_case "legacy in-window kills" `Quick
            test_rst_in_window_legacy_kills;
        ] );
      ( "rfc5961-ack",
        [
          Alcotest.test_case "stale ack challenged, text dropped" `Quick
            test_stale_ack_challenged_and_text_dropped;
          Alcotest.test_case "future ack challenged" `Quick
            test_future_ack_challenged;
        ] );
      ( "challenge-budget",
        [
          Alcotest.test_case "exhaustion and refill" `Quick
            test_challenge_budget_exhaustion;
          Alcotest.test_case "per-conn budget binds first" `Quick
            test_conn_budget_binds_first;
          Alcotest.test_case "hostile flow cannot starve victim" `Quick
            test_hostile_flow_cannot_starve_victim;
        ] );
      ( "mutation",
        [ Alcotest.test_case "smoke, both engines" `Quick test_mutation_smoke ]
      );
      ( "scenarios",
        [
          Alcotest.test_case "blind-rst guarded survives" `Quick
            test_blind_rst_guarded_survives;
          Alcotest.test_case "blind-rst unguarded dies" `Quick
            test_blind_rst_unguarded_dies;
          Alcotest.test_case "blind-rst secure-isn survives" `Quick
            test_blind_rst_secure_isn_survives;
          Alcotest.test_case "blind-syn guarded survives" `Quick
            test_blind_syn_guarded_survives;
          Alcotest.test_case "blind-data injects nothing" `Quick
            test_blind_data_injects_nothing;
          Alcotest.test_case "verdict counts injection" `Quick
            test_verdict_counts_injection;
        ] );
    ]
