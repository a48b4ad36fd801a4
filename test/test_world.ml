(* Golden values for the check harnesses.

   Most harness tests compare two runs of the same world, which cannot
   see a change that moves both runs alike.  These pin literal values —
   fingerprints, rendered result lines, per-run counters — measured once,
   so any change to how a harness builds its hosts, engines or check
   battery that alters the run shows up here. *)

module Soak = Fox_check.Soak
module Chaos = Fox_check.Chaos
module Scenarios = Fox_check.Scenarios
module Mutate = Fox_check.Mutate
module Load = Fox_check.Load
module World = Fox_check.World
module Packet = Fox_basis.Packet
module Bus = Fox_obs.Bus
module Check_hook = Fox_tcp.Check_hook
module Receive = Fox_tcp.Receive
module Tcb = Fox_tcp.Tcb

(* ------------------------------------------------------------------ *)
(* Soak                                                               *)
(* ------------------------------------------------------------------ *)

let test_soak_default_fingerprint () =
  let r = Soak.run Soak.default_config in
  Alcotest.(check string) "default soak fingerprint (README)"
    "c8034d783971f928afddae216fbff02c" r.Soak.fingerprint

let test_soak_shard_vector () =
  let cfg =
    {
      Soak.default_config with
      Soak.conns = 40;
      bytes_per_conn = 512;
      flood_syns = 12;
      flood_bad_acks = 4;
      shards = 2;
    }
  in
  let r = Soak.run cfg in
  Alcotest.(check (list string)) "two-shard fingerprint vector"
    [ "622bb79b26b0faae940d56aacc1dee99"; "504f144bfddbd9c7eb6aa318f8b2d291" ]
    r.Soak.shard_fingerprints

(* ------------------------------------------------------------------ *)
(* Chaos                                                              *)
(* ------------------------------------------------------------------ *)

(* Re-pinned once when the never-enabled blackhole probe-up was deleted:
   its restore count (0 in every cell) left the rendered line
   ("shrink N/0" became "shrink N") and the fingerprint. *)
let chaos_cells =
  [
    ( "link_flap     reno     guarded     32768/32768    rtx    0  shrink 0  aborts 0/0/0  408s  0  chaos d0 r3 du0 c0  leak 0  1.200s",
      "a63bb9b02efe0b29e6a90f6d1a3ab4ea" );
    ( "link_flap     newreno  guarded     32768/32768    rtx    0  shrink 0  aborts 0/0/0  408s  0  chaos d0 r3 du0 c0  leak 0  1.200s",
      "329998a4f3f2f4611a12558c7630b669" );
    ( "link_flap     cubic    guarded     32768/32768    rtx    0  shrink 0  aborts 0/0/0  408s  0  chaos d0 r3 du0 c0  leak 0  1.200s",
      "016cc4b73097818cce0f0d2c74a236ca" );
    ( "link_flap     bbr      guarded     32768/32768    rtx    0  shrink 0  aborts 0/0/0  408s  0  chaos d0 r6 du0 c0  leak 0  1.200s",
      "ff7e61fd151983696a0953afa84fa248" );
    ( "mtu_blackhole reno     guarded     65536/65536    rtx   15  shrink 1  aborts 0/0/0  408s  0  chaos d9 r0 du0 c0  leak 0  2.567s",
      "239f2eb3a63be4061c200cb4768a22c8" );
    ( "mtu_blackhole newreno  guarded     65536/65536    rtx   15  shrink 1  aborts 0/0/0  408s  0  chaos d9 r0 du0 c0  leak 0  2.567s",
      "1eb083550a50e1790bb7a069bb36fd7e" );
    ( "mtu_blackhole cubic    guarded     65536/65536    rtx   15  shrink 1  aborts 0/0/0  408s  0  chaos d9 r0 du0 c0  leak 0  2.570s",
      "08f06d2d5c5f485f06c63d115f0bc1bb" );
    ( "mtu_blackhole bbr      guarded     65536/65536    rtx   18  shrink 1  aborts 0/0/0  408s  0  chaos d10 r0 du0 c0  leak 0  2.778s",
      "b036dc7e79b3409fb21f8634d537cef4" );
    ( "dup_storm     reno     guarded     32768/32768    rtx    6  shrink 0  aborts 0/0/0  408s  0  chaos d0 r0 du34 c13  leak 0  0.520s",
      "e0f6d20f12b5c7954ee23105fbcce887" );
    ( "dup_storm     newreno  guarded     32768/32768    rtx    5  shrink 0  aborts 0/0/0  408s  0  chaos d0 r0 du33 c13  leak 0  0.431s",
      "5f8ca03ec058ec0a7350b9138205851b" );
    ( "dup_storm     cubic    guarded     32768/32768    rtx    5  shrink 0  aborts 0/0/0  408s  0  chaos d0 r0 du33 c13  leak 0  0.528s",
      "b5ce30ba870bf48c289f4f5454b1f7c6" );
    ( "dup_storm     bbr      guarded     32768/32768    rtx    6  shrink 0  aborts 0/0/0  408s  0  chaos d0 r0 du34 c13  leak 0  0.723s",
      "c2e22907660d744ff25d637cc27085b3" );
    ( "slowloris     reno     guarded         8/8        rtx    0  shrink 0  aborts 0/0/0  408s  8  chaos d0 r0 du0 c0  leak 0  5.005s",
      "a6ed66b7558b06a3131c78172f0b0adc" );
    ( "slowloris     newreno  guarded         8/8        rtx    0  shrink 0  aborts 0/0/0  408s  8  chaos d0 r0 du0 c0  leak 0  5.005s",
      "391e3769e033e8d0dfb904cad94b32c3" );
    ( "slowloris     cubic    guarded         8/8        rtx    0  shrink 0  aborts 0/0/0  408s  8  chaos d0 r0 du0 c0  leak 0  5.005s",
      "0d1bc6def3ae2df27f319d08a767f5ac" );
    ( "slowloris     bbr      guarded         8/8        rtx    0  shrink 0  aborts 0/0/0  408s  8  chaos d0 r0 du0 c0  leak 0  5.005s",
      "b84866e0810ff2f07700249fc132cc38" );
  ]

let chaos_teeth =
  [
    ( "mtu_blackhole reno     UNGUARDED   16104/65536    rtx   13  shrink 0  aborts 1/0/0  408s  0  chaos d19 r0 du0 c0  leak 0  41.518s  INCOMPLETE",
      "da4f6b302a41571c757d9d6ed6c69c7b" );
    ( "slowloris     reno     UNGUARDED       0/8        rtx    0  shrink 0  aborts 0/0/0  408s  0  chaos d0 r0 du0 c0  leak 0  10.000s  INCOMPLETE",
      "a7f57fabd565cb6e58e0894a5a3babf1" );
  ]

let cell (r : Chaos.result) = (Chaos.result_to_string r, Chaos.fingerprint r)

let test_chaos_cells () =
  Alcotest.(check (list (pair string string))) "quick matrix cells"
    chaos_cells
    (List.map cell (Chaos.run_matrix ~quick:true ()));
  Alcotest.(check (list (pair string string))) "teeth cells" chaos_teeth
    [
      cell (Chaos.run_teeth_blackhole ~quick:true ());
      cell (Chaos.run_teeth_slowloris ~quick:true ());
    ]

(* ------------------------------------------------------------------ *)
(* Scenarios                                                          *)
(* ------------------------------------------------------------------ *)

let scenario_lines =
  [
    "loss_burst   reno     goodput   9.43 Mb/s  fairness 1.000  rtx    0  drops    0  0.528s";
    "loss_burst   newreno  goodput   9.43 Mb/s  fairness 1.000  rtx    0  drops    0  0.528s";
    "loss_burst   cubic    goodput   9.43 Mb/s  fairness 1.000  rtx    0  drops    0  0.528s";
    "loss_burst   bbr      goodput   9.40 Mb/s  fairness 1.000  rtx    0  drops    0  0.528s";
    "reorder      reno     goodput   2.02 Mb/s  fairness 1.000  rtx    1  drops    0  0.631s";
    "reorder      newreno  goodput   2.02 Mb/s  fairness 1.000  rtx    1  drops    0  0.631s";
    "reorder      cubic    goodput   2.02 Mb/s  fairness 1.000  rtx    1  drops    0  0.631s";
    "reorder      bbr      goodput   9.24 Mb/s  fairness 1.000  rtx    0  drops    0  0.529s";
    "bufferbloat  reno     goodput   4.65 Mb/s  fairness 1.000  rtx    0  drops    0  0.618s";
    "bufferbloat  newreno  goodput   4.65 Mb/s  fairness 1.000  rtx    0  drops    0  0.618s";
    "bufferbloat  cubic    goodput   4.65 Mb/s  fairness 1.000  rtx    0  drops    0  0.618s";
    "bufferbloat  bbr      goodput   5.29 Mb/s  fairness 1.000  rtx    0  drops    0  0.605s";
    "asym_rtt     reno     goodput   1.79 Mb/s  fairness 1.000  rtx    0  drops    0  0.667s";
    "asym_rtt     newreno  goodput   1.79 Mb/s  fairness 1.000  rtx    0  drops    0  0.667s";
    "asym_rtt     cubic    goodput   1.79 Mb/s  fairness 1.000  rtx    0  drops    0  0.667s";
    "asym_rtt     bbr      goodput   2.09 Mb/s  fairness 1.000  rtx    0  drops    0  0.646s";
    "bottleneck_4 reno     goodput   3.25 Mb/s  fairness 0.999  rtx    4  drops    0  0.663s";
    "bottleneck_4 newreno  goodput   3.25 Mb/s  fairness 0.999  rtx    4  drops    0  0.663s";
    "bottleneck_4 cubic    goodput   3.25 Mb/s  fairness 0.999  rtx    4  drops    0  0.663s";
    "bottleneck_4 bbr      goodput   3.25 Mb/s  fairness 0.996  rtx    4  drops    0  0.663s";
    "blind_rst    reno     goodput   8.29 Mb/s  fairness 1.000  rtx    2  drops    0  2.010s  4000 probes";
    "blind_rst    newreno  goodput   7.19 Mb/s  fairness 1.000  rtx    6  drops    0  2.010s  4000 probes";
    "blind_rst    cubic    goodput   7.19 Mb/s  fairness 1.000  rtx    6  drops    0  2.010s  4000 probes";
    "blind_rst    bbr      goodput   3.25 Mb/s  fairness 1.000  rtx    0  drops    0  2.010s  4000 probes";
    "blind_syn    reno     goodput   7.92 Mb/s  fairness 1.000  rtx    2  drops    0  2.080s  4000 probes";
    "blind_syn    newreno  goodput   6.91 Mb/s  fairness 1.000  rtx    6  drops    0  2.087s  4000 probes";
    "blind_syn    cubic    goodput   6.91 Mb/s  fairness 1.000  rtx    6  drops    0  2.087s  4000 probes";
    "blind_syn    bbr      goodput   8.05 Mb/s  fairness 1.000  rtx    2  drops    0  2.080s  4000 probes";
    "blind_data   reno     goodput   5.90 Mb/s  fairness 1.000  rtx    2  drops    0  2.010s  2000 probes";
    "blind_data   newreno  goodput   5.32 Mb/s  fairness 1.000  rtx    6  drops    0  2.010s  2000 probes";
    "blind_data   cubic    goodput   5.32 Mb/s  fairness 1.000  rtx    6  drops    0  2.010s  2000 probes";
    "blind_data   bbr      goodput   5.92 Mb/s  fairness 1.000  rtx    2  drops    0  2.010s  2000 probes";
  ]

let test_scenario_lines () =
  Alcotest.(check (list string)) "quick matrix lines" scenario_lines
    (List.map Scenarios.result_to_string (Scenarios.run_matrix ~quick:true ()))

(* ------------------------------------------------------------------ *)
(* Mutate                                                             *)
(* ------------------------------------------------------------------ *)

let mutate_outcomes =
  [
    (0, "fox", 5); (0, "baseline", 5);
    (1, "fox", 11); (1, "baseline", 9);
    (2, "fox", 9); (2, "baseline", 10);
    (3, "fox", 13); (3, "baseline", 13);
    (4, "fox", 4); (4, "baseline", 4);
    (5, "fox", 8); (5, "baseline", 8);
    (6, "fox", 6); (6, "baseline", 8);
    (7, "fox", 11); (7, "baseline", 12);
    (8, "fox", 3); (8, "baseline", 3);
    (9, "fox", 10); (9, "baseline", 10);
  ]

let test_mutate_outcomes () =
  let seen = ref [] in
  let failures =
    Mutate.run_seeds ~log:(fun o -> seen := o :: !seen) ~seed:0 ~iters:10 ()
  in
  Alcotest.(check int) "no failing runs" 0 (List.length failures);
  Alcotest.(check (list (pair (triple int string int) (list string))))
    "(seed, engine, mutants), problems"
    (List.map (fun o -> (o, [])) mutate_outcomes)
    (List.rev_map
       (fun o ->
         ((o.Mutate.seed, o.Mutate.engine, o.Mutate.mutants), o.Mutate.problems))
       !seen)

(* ------------------------------------------------------------------ *)
(* Load (the two CI serve configurations)                             *)
(* ------------------------------------------------------------------ *)

let load_fields (r : Load.result) =
  [
    ("app", r.Load.app);
    ("conns", string_of_int r.Load.conns);
    ("shards", string_of_int r.Load.shards);
    ("requests_attempted", string_of_int r.Load.requests_attempted);
    ("requests_ok", string_of_int r.Load.requests_ok);
    ("conn_errors", string_of_int r.Load.conn_errors);
    ("bytes_received", string_of_int r.Load.bytes_received);
    ("max_concurrent", string_of_int r.Load.max_concurrent);
    ("accepts", string_of_int r.Load.accepts);
    ("elapsed_us", string_of_int r.Load.elapsed_us);
    ("reqs_per_sec", Printf.sprintf "%h" r.Load.reqs_per_sec);
    ("p50_us", string_of_int r.Load.p50_us);
    ("p95_us", string_of_int r.Load.p95_us);
    ("p99_us", string_of_int r.Load.p99_us);
    ("max_us", string_of_int r.Load.max_us);
  ]

(* [foxnet serve]'s defaults: seed 42, 1 KiB payload, no ramp *)
let serve_config =
  { Load.default_config with Load.seed = 42; payload = 1024; ramp_us = 0 }

let test_load_http () =
  Alcotest.(check (list (pair string string)))
    "serve --app http --conns 100 --requests 3"
    [
      ("app", "http"); ("conns", "100"); ("shards", "1");
      ("requests_attempted", "300"); ("requests_ok", "300");
      ("conn_errors", "0"); ("bytes_received", "307200");
      ("max_concurrent", "100"); ("accepts", "100"); ("elapsed_us", "4110");
      ("reqs_per_sec", "0x1.1d20b3630957dp+16"); ("p50_us", "1300");
      ("p95_us", "1300"); ("p99_us", "1300"); ("max_us", "1300");
    ]
    (load_fields
       (Load.run
          { serve_config with Load.app = Load.Http_app; conns = 100; requests = 3 }))

let test_load_echo () =
  Alcotest.(check (list (pair string string)))
    "serve --app echo --conns 50 --requests 3 --loss 0.01"
    [
      ("app", "echo"); ("conns", "50"); ("shards", "1");
      ("requests_attempted", "150"); ("requests_ok", "150");
      ("conn_errors", "0"); ("bytes_received", "153600");
      ("max_concurrent", "48"); ("accepts", "50"); ("elapsed_us", "601230");
      ("reqs_per_sec", "0x1.f2fa23069aa3cp+7"); ("p50_us", "940");
      ("p95_us", "960"); ("p99_us", "51322"); ("max_us", "51393");
    ]
    (load_fields
       (Load.run
          {
            serve_config with
            Load.app = Load.Echo;
            conns = 50;
            requests = 3;
            loss = 0.01;
          }))

(* ------------------------------------------------------------------ *)
(* The check battery's restore contract                               *)
(* ------------------------------------------------------------------ *)

(* Earlier values the battery must put back, each different from what
   it installs: no hook, the shadow off with a recognisable mismatch
   handler, the bus not live. *)
let arm () =
  let sentinel (_ : string) = () in
  Check_hook.uninstall ();
  Receive.differential := false;
  Receive.on_mismatch := sentinel;
  Bus.disable ();
  sentinel

let all_checks body =
  World.checked ~invariants:true ~shadow:true ~flight:true ~census:true body

let check_restored sentinel =
  Alcotest.(check bool) "invariant hook uninstalled" true
    (Option.is_none !Check_hook.hook);
  Alcotest.(check bool) "differential flag restored" false !Receive.differential;
  Alcotest.(check bool) "mismatch handler restored" true
    (!Receive.on_mismatch == sentinel);
  Alcotest.(check bool) "bus back to not live" false !Bus.live

let test_restore_on_raise () =
  let sentinel = arm () in
  (match all_checks (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the body's exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "its own exception" "boom" msg);
  check_restored sentinel

let test_restore_and_census_on_leak () =
  let sentinel = arm () in
  let kept = ref None in
  let r = all_checks (fun () -> kept := Some (Packet.create 64)) in
  check_restored sentinel;
  Alcotest.(check int) "the census counts the retained buffer" 1 r.World.leaked;
  Option.iter Packet.release !kept

let test_faults_are_tagged () =
  let tcb =
    Tcb.create_tcb_with_mss Tcb.default_params ~iss:(Fox_tcp.Seq.of_int 1000)
      ~mss:1000
  in
  (* snd_una ahead of snd_nxt: a sequence-space violation *)
  tcb.Tcb.snd_una <- Fox_tcp.Seq.of_int 2000;
  tcb.Tcb.snd_nxt <- Fox_tcp.Seq.of_int 1001;
  let info =
    {
      Check_hook.tcb;
      before = Tcb.Estab tcb;
      after = Tcb.Estab tcb;
      action = Tcb.Send_ack;
      pending = [];
      armed = [];
      now = 1234;
      dead = false;
    }
  in
  let r =
    World.checked ~invariants:true ~shadow:true (fun () ->
        Option.iter (fun hook -> hook info) !Check_hook.hook;
        !Receive.on_mismatch "diverged")
  in
  let prefix = "t=1234 after " ^ Tcb.action_name Tcb.Send_ack ^ ": " in
  Alcotest.(check bool) "a tagged violation reached the faults" true
    (List.exists (String.starts_with ~prefix) r.World.faults);
  Alcotest.(check bool) "the shadow's divergence follows it" true
    (List.mem "fast-path divergence: diverged" r.World.faults)

let () =
  Alcotest.run "world"
    [
      ( "golden",
        [
          Alcotest.test_case "soak default fingerprint" `Quick
            test_soak_default_fingerprint;
          Alcotest.test_case "soak two-shard vector" `Quick
            test_soak_shard_vector;
          Alcotest.test_case "chaos quick cells and teeth" `Quick
            test_chaos_cells;
          Alcotest.test_case "scenarios quick lines" `Quick
            test_scenario_lines;
          Alcotest.test_case "mutate seeds 0..9" `Quick test_mutate_outcomes;
          Alcotest.test_case "serve http smoke" `Quick test_load_http;
          Alcotest.test_case "serve echo smoke" `Quick test_load_echo;
        ] );
      ( "battery",
        [
          Alcotest.test_case "restores after a raising body" `Quick
            test_restore_on_raise;
          Alcotest.test_case "restores and counts a retained buffer" `Quick
            test_restore_and_census_on_leak;
          Alcotest.test_case "violations carry their tag" `Quick
            test_faults_are_tagged;
        ] );
    ]
