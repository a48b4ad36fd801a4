(* Tests of the pluggable congestion layer (lib/fox_tcp/congestion.ml)
   and the adverse-network scenario matrix (lib/fox_check/scenarios.ml).

   The headline test pins the Reno extraction to the monolithic-era
   engine: the differential-fuzz traces for seeds 0-9 must hash to the
   digests recorded against the pre-refactor code.  If a change to the
   TCP core moves any of these, it changed Reno behaviour — deliberate
   changes must re-baseline with an explanation, accidental ones are a
   regression. *)

module Congestion = Fox_tcp.Congestion
module Seq = Fox_tcp.Seq
module Fuzz = Fox_check.Fuzz
module Soak = Fox_check.Soak
module Scenarios = Fox_check.Scenarios

(* ------------------------------------------------------------------ *)
(* Reno behaviour-preservation: pre-refactor trace digests            *)
(* ------------------------------------------------------------------ *)

(* MD5 of [Fuzz.trace_of_seed ~seed] for seeds 0-9, captured on the
   monolithic (pre-CONGESTION-functor) engine.

   Re-baselined once (PR 8): the advertised MSS changed from
   [mtu - 24] to the correct [mtu - 20] in both engines (the 24
   included SYN-only option slack, so full data segments under-filled
   the MTU by 4 bytes).  Seeds 1, 4, 5 and 8 — the schedules with
   chunks longer than one segment — moved; the others are unchanged.

   Re-baselined a second time when the timing wheel became the only
   timer backend: every timer now fires up to one 1024 µs wheel grain
   after its deadline instead of exactly on it, which shifts the virtual
   time of every retransmission, delayed ACK and TIME-WAIT expiry, so
   all ten digests moved. *)
let pre_refactor_digests =
  [
    (0, "f4a2d4f9dcea6cc8c5b679c1befefec0");
    (1, "e4e8a6d405e5326bcad41a64f925174e");
    (2, "a43d888836743c93975d93fd63e4848d");
    (3, "0e382cd1962a0a1874bf46f0f9dcda50");
    (4, "8ea3302ca200a12aed03bfc0b13be12e");
    (5, "c826932193b584c5aafc5434713ddaed");
    (6, "2986a324cb717f30b17c9456b3139754");
    (7, "e1420124b35d28f70e651b96334ecd5d");
    (8, "c6473a87b2cd08a179bca8a41ece43aa");
    (9, "932c58aecaa1dd284f8a8f08ff12a9e0");
  ]

let test_reno_fingerprint_pre_refactor () =
  List.iter
    (fun (seed, expected) ->
      let digest =
        Digest.to_hex (Digest.string (Fuzz.trace_of_seed ~seed))
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d trace digest matches pre-refactor engine"
           seed)
        expected digest)
    pre_refactor_digests

(* ------------------------------------------------------------------ *)
(* Hook-level unit tests                                              *)
(* ------------------------------------------------------------------ *)

let mss = 536

let ctx ?(flight = 8 * mss) ?(cwnd = 8 * mss) ?(ssthresh = 65_535)
    ?(una = 1000) ?(nxt = 10_000) ?(srtt_us = 2_000) ?(now = 1_000_000) () =
  {
    Congestion.mss;
    flight;
    cwnd;
    ssthresh;
    una = Seq.of_int una;
    nxt = Seq.of_int nxt;
    srtt_us;
    rto_us = 200_000;
    now;
  }

let test_newreno_partial_ack_retransmits () =
  let t = Congestion.Newreno.create () in
  (* three duplicate ACKs enter recovery and record [recover = nxt] *)
  let c = ctx () in
  ignore (Congestion.Newreno.on_dup_ack t c ~count:1);
  ignore (Congestion.Newreno.on_dup_ack t c ~count:2);
  let r3 = Congestion.Newreno.on_dup_ack t c ~count:3 in
  Alcotest.(check bool) "in recovery after 3 dups" true
    (Congestion.Newreno.in_recovery t);
  Alcotest.(check int) "ssthresh halves the flight"
    (max (c.Congestion.flight / 2) (2 * mss))
    r3.Congestion.next_ssthresh;
  (* a partial ACK (una below recover) must ask for a front
     retransmission and stay in recovery *)
  let partial = ctx ~una:5_000 ~nxt:10_000 () in
  let rp = Congestion.Newreno.on_ack t partial ~acked:(2 * mss) in
  Alcotest.(check bool) "partial ACK retransmits the front" true
    rp.Congestion.retransmit_front;
  Alcotest.(check bool) "still in recovery" true
    (Congestion.Newreno.in_recovery t);
  (* a full ACK (una at recover) leaves recovery deflated to ssthresh *)
  let full = ctx ~una:10_000 ~nxt:10_000 ~ssthresh:(4 * mss) () in
  let rf = Congestion.Newreno.on_ack t full ~acked:(4 * mss) in
  Alcotest.(check bool) "full ACK ends recovery" false
    (Congestion.Newreno.in_recovery t);
  Alcotest.(check bool) "full ACK does not retransmit" false
    rf.Congestion.retransmit_front;
  Alcotest.(check int) "window deflates to ssthresh" (4 * mss)
    rf.Congestion.next_cwnd

let test_cubic_deterministic_and_growing () =
  (* identical ACK sequences must produce identical windows (virtual
     time only), and the window must grow between loss events *)
  let run () =
    let t = Congestion.Cubic.create () in
    let cwnd = ref (2 * mss) in
    for i = 1 to 50 do
      let c = ctx ~cwnd:!cwnd ~now:(1_000_000 + (i * 10_000)) () in
      let r = Congestion.Cubic.on_ack t c ~acked:mss in
      cwnd := r.Congestion.next_cwnd
    done;
    !cwnd
  in
  let w1 = run () and w2 = run () in
  Alcotest.(check int) "deterministic under replay" w1 w2;
  Alcotest.(check bool)
    (Printf.sprintf "window grew (%d > %d)" w1 (2 * mss))
    true
    (w1 > 2 * mss)

let test_cubic_loss_shrinks_window () =
  let t = Congestion.Cubic.create () in
  let c = ctx ~cwnd:(20 * mss) ~flight:(20 * mss) () in
  let r = Congestion.Cubic.on_dup_ack t c ~count:3 in
  Alcotest.(check bool) "multiplicative decrease" true
    (r.Congestion.next_cwnd < 20 * mss);
  Alcotest.(check bool) "ssthresh follows" true
    (r.Congestion.next_ssthresh < 20 * mss)

let test_bbr_pacing_tracks_delivery_rate () =
  let t = Congestion.Bbr_lite.create () in
  Alcotest.(check (option int)) "unpaced before any bandwidth sample" None
    (Congestion.Bbr_lite.pacing_gap_us t (ctx ()) ~seg_bytes:mss);
  (* feed two round trips of ACKs ~2 ms apart so the windowed
     delivery-rate estimator closes an epoch and the filter rises *)
  let now = ref 1_000_000 in
  for _ = 1 to 20 do
    now := !now + 1_000;
    ignore
      (Congestion.Bbr_lite.on_ack t
         (ctx ~srtt_us:2_000 ~now:!now ())
         ~acked:(2 * mss))
  done;
  match Congestion.Bbr_lite.pacing_gap_us t (ctx ~now:!now ()) ~seg_bytes:mss with
  | None -> Alcotest.fail "expected a pacing gap once the filter is primed"
  | Some gap ->
    Alcotest.(check bool)
      (Printf.sprintf "gap %d us is positive and bounded" gap)
      true
      (gap >= 0 && gap <= 10_000)

let test_instances_registered () =
  Alcotest.(check (list string))
    "all four algorithms resolve by name"
    [ "reno"; "newreno"; "cubic"; "bbr" ]
    Congestion.names;
  List.iter
    (fun name ->
      match Congestion.of_name name with
      | Some (module C : Congestion.S) ->
        Alcotest.(check string) "name round-trips" name C.name
      | None -> Alcotest.failf "%s not registered" name)
    Congestion.names

(* [Tcp.Make]'s [Cc] argument chooses the algorithm; the [cc] field of
   the settings record it is given is overridden, so a record built for
   another algorithm cannot silently switch it. *)
let test_functor_cc_overrides_record () =
  let module T =
    Fox_tcp.Tcp.Make (Fox_stack.Stack.Metered_ip)
      (Fox_stack.Stack.Metered_ip_aux)
      (Congestion.Reno)
      (struct
        let params =
          { Fox_tcp.Tcb.default_params with cc = (module Congestion.Cubic) }
      end)
  in
  let module Network = Fox_stack.Network in
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = T.create a.Network.metered_ip and tb = T.create b.Network.metered_ip in
  let cc_name = ref "" in
  let _ =
    Fox_sched.Scheduler.run (fun () ->
        ignore
          (T.start_passive tb { T.local_port = 80 } (fun _ -> (ignore, ignore)));
        let conn =
          T.connect ta
            { T.peer = b.Network.addr; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        cc_name := (T.conn_stats conn).Fox_tcp.Tcp.cc_name;
        T.close conn)
  in
  Alcotest.(check string) "the Cc argument wins" "reno" !cc_name

(* ------------------------------------------------------------------ *)
(* Safety net: every instance through fuzz, soak and the scenarios    *)
(* ------------------------------------------------------------------ *)

let test_fuzz_matrix_smoke () =
  List.iter
    (fun (cc, failures) ->
      Alcotest.(check int)
        (Printf.sprintf "fuzz(%s): engines agree on 25 schedules" cc)
        0 (List.length failures))
    (Fuzz.run_matrix ~seed:11 ~iters:25 ())

let test_soak_matrix_smoke () =
  let cfg =
    {
      Soak.default_config with
      Soak.conns = 20;
      flood_at_us = 20_000;
      flood_syns = 8;
      flood_bad_acks = 2;
    }
  in
  List.iter
    (fun (cc, report, problems) ->
      Alcotest.(check (list string))
        (Printf.sprintf "soak(%s): no problems" cc)
        [] problems;
      Alcotest.(check int)
        (Printf.sprintf "soak(%s): every connection completed" cc)
        report.Soak.conns report.Soak.completed)
    (Soak.check_matrix cfg)

let test_scenario_matrix_quick () =
  (* every (scenario, algorithm) cell must complete its quick transfer
     with zero TCB-invariant faults — the congestion invariants
     (cwnd/ssthresh floors, recovery-exit monotonicity) run inside *)
  let results = Scenarios.run_matrix ~quick:true () in
  Alcotest.(check int) "full matrix ran"
    (List.length Scenarios.all * List.length Congestion.names)
    (List.length results);
  List.iter
    (fun (r : Scenarios.result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s: no invariant faults" r.Scenarios.scenario
           r.Scenarios.cc)
        [] r.Scenarios.invariant_faults;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: transfer completed" r.Scenarios.scenario
           r.Scenarios.cc)
        true r.Scenarios.complete;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: fairness in range" r.Scenarios.scenario
           r.Scenarios.cc)
        true
        (r.Scenarios.fairness > 0.0 && r.Scenarios.fairness <= 1.0))
    results

let () =
  Alcotest.run "congestion"
    [
      ( "behaviour-preservation",
        [
          Alcotest.test_case "reno digest vs pre-refactor engine" `Quick
            test_reno_fingerprint_pre_refactor;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "newreno partial ack" `Quick
            test_newreno_partial_ack_retransmits;
          Alcotest.test_case "cubic deterministic growth" `Quick
            test_cubic_deterministic_and_growing;
          Alcotest.test_case "cubic loss response" `Quick
            test_cubic_loss_shrinks_window;
          Alcotest.test_case "bbr pacing" `Quick
            test_bbr_pacing_tracks_delivery_rate;
          Alcotest.test_case "registry" `Quick test_instances_registered;
          Alcotest.test_case "Cc argument overrides the record" `Quick
            test_functor_cc_overrides_record;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "fuzz per algorithm" `Slow
            test_fuzz_matrix_smoke;
          Alcotest.test_case "soak per algorithm" `Slow
            test_soak_matrix_smoke;
          Alcotest.test_case "scenarios per algorithm" `Slow
            test_scenario_matrix_quick;
        ] );
    ]
