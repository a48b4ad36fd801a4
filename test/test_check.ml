(* Tests of the robustness layer (lib/fox_check): the [Faulty] fault
   injection functor and its sibling virtual protocol [Meter], the TCB
   invariant checker, and the differential fuzz harness.  Everything
   here is deterministic — fault decisions, payloads, and link
   randomness all derive from fixed seeds. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Status = Fox_proto.Status
module Faulty = Fox_check.Faulty
module Tcb_invariants = Fox_check.Tcb_invariants
module Fuzz = Fox_check.Fuzz
module Check_hook = Fox_tcp.Check_hook
module Tcb = Fox_tcp.Tcb
module Seq = Fox_tcp.Seq

(* ------------------------------------------------------------------ *)
(* A trivial in-memory protocol to wrap with [Faulty] and [Meter]     *)
(* ------------------------------------------------------------------ *)

(* Counts what reaches it, so the tests can tell an injected failure
   (wrapped layer untouched) from a passthrough (wrapped layer hit);
   [deliver] plays a packet arriving from below. *)
module Loop = struct
  include Fox_proto.Common

  type address = unit

  type address_pattern = unit

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  type connection = {
    lt : t;
    mutable on_data : data_handler;
    mutable on_status : status_handler;
  }

  and t = {
    mutable init_count : int;
    mutable sent : int;
    mutable connects : int;
    mutable aborted : int;
    mutable conns : connection list;
  }

  type handler = connection -> data_handler * status_handler

  type listener = unit

  let create () =
    { init_count = 0; sent = 0; connects = 0; aborted = 0; conns = [] }

  let initialize t =
    t.init_count <- t.init_count + 1;
    t.init_count

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      List.iter
        (fun c ->
          t.aborted <- t.aborted + 1;
          c.on_status Status.Aborted)
        t.conns;
      t.conns <- []
    end;
    t.init_count

  let connect t () handler =
    t.connects <- t.connects + 1;
    let conn = { lt = t; on_data = ignore; on_status = ignore } in
    let on_data, on_status = handler conn in
    conn.on_data <- on_data;
    conn.on_status <- on_status;
    t.conns <- conn :: t.conns;
    conn

  let start_passive _ () _ = ()

  let stop_passive () = ()

  let allocate_send _ len = Packet.create ~headroom:8 len

  let send conn _packet = conn.lt.sent <- conn.lt.sent + 1

  let prepare_send conn = fun _packet -> conn.lt.sent <- conn.lt.sent + 1

  let close _ = ()

  let abort _ = ()

  let max_packet_size _ = 1500

  let headroom _ = 8

  let tailroom _ = 0

  let pp_address fmt () = Format.fprintf fmt "loop"

  let deliver conn packet = conn.on_data packet
end

module Floop = Faulty.Make (Loop)

let cfg ?(seed = 1) ?(allocate_fail = 0.0) ?(send_fail = 0.0)
    ?(send_drop = 0.0) ?(connect_fail = 0) ?(finalize_abort = false) () =
  {
    Faulty.rng = Rng.create seed;
    allocate_fail;
    send_fail;
    send_drop;
    connect_fail;
    finalize_abort;
  }

let open_conn ft = Floop.connect ft () (fun _ -> (ignore, ignore))

(* ------------------------------------------------------------------ *)
(* Faulty: each fault class, in isolation                             *)
(* ------------------------------------------------------------------ *)

let test_faulty_passthrough () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ()) in
  let conn = open_conn ft in
  Floop.send conn (Floop.allocate_send conn 10);
  (Floop.prepare_send conn) (Floop.allocate_send conn 10);
  Alcotest.(check int) "both sends reached the wrapped layer" 2 lt.Loop.sent;
  let s = Floop.stats ft in
  Alcotest.(check int) "no injected failures" 0
    (s.Faulty.allocate_failures + s.Faulty.send_failures + s.Faulty.send_drops
   + s.Faulty.connect_failures)

let test_faulty_send_raises () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ~send_fail:1.0 ()) in
  let conn = open_conn ft in
  Alcotest.check_raises "send raises"
    (Fox_proto.Common.Send_failed "injected send failure") (fun () ->
      Floop.send conn (Floop.allocate_send conn 10));
  Alcotest.check_raises "staged send raises too"
    (Fox_proto.Common.Send_failed "injected send failure") (fun () ->
      (Floop.prepare_send conn) (Floop.allocate_send conn 10));
  Alcotest.(check int) "nothing reached the wrapped layer" 0 lt.Loop.sent;
  Alcotest.(check int) "failures counted" 2 (Floop.stats ft).Faulty.send_failures

let test_faulty_send_drops_silently () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ~send_drop:1.0 ()) in
  let conn = open_conn ft in
  Floop.send conn (Floop.allocate_send conn 10);
  Alcotest.(check int) "packet swallowed" 0 lt.Loop.sent;
  Alcotest.(check int) "drop counted" 1 (Floop.stats ft).Faulty.send_drops

let test_faulty_allocate_fails () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ~allocate_fail:1.0 ()) in
  let conn = open_conn ft in
  Alcotest.check_raises "allocate_send raises"
    (Fox_proto.Common.Send_failed "injected allocation failure") (fun () ->
      ignore (Floop.allocate_send conn 10));
  Alcotest.(check int) "counted" 1 (Floop.stats ft).Faulty.allocate_failures

let test_faulty_connect_transient () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ~connect_fail:2 ()) in
  let failed = ref 0 in
  for _ = 1 to 2 do
    match open_conn ft with
    | _ -> Alcotest.fail "connect should have failed"
    | exception Fox_proto.Common.Connection_failed _ -> incr failed
  done;
  ignore (open_conn ft);
  Alcotest.(check int) "first two failed" 2 !failed;
  Alcotest.(check int) "wrapped layer saw only the third" 1 lt.Loop.connects;
  Alcotest.(check int) "counted" 2 (Floop.stats ft).Faulty.connect_failures

let test_faulty_finalize_aborts () =
  let lt = Loop.create () in
  let ft = Floop.create lt (cfg ~finalize_abort:true ()) in
  ignore (Floop.initialize ft);
  ignore (Floop.initialize ft);
  let aborted = ref false in
  ignore
    (Floop.connect ft () (fun _ ->
         (ignore, fun s -> if s = Status.Aborted then aborted := true)));
  Alcotest.(check int) "one finalize drives the count to zero" 0
    (Floop.finalize ft);
  Alcotest.(check bool) "live connection aborted" true !aborted;
  Alcotest.(check int) "wrapped abort count" 1 lt.Loop.aborted

let test_faulty_deterministic_decisions () =
  (* the same seed yields the same fail/pass sequence *)
  let decisions seed =
    let ft = Floop.create (Loop.create ()) (cfg ~seed ~send_fail:0.5 ()) in
    let conn = open_conn ft in
    List.init 64 (fun _ ->
        match Floop.send conn (Packet.create 1) with
        | () -> false
        | exception Fox_proto.Common.Send_failed _ -> true)
  in
  Alcotest.(check (list bool)) "same seed, same faults" (decisions 9)
    (decisions 9);
  Alcotest.(check bool) "some of each outcome" true
    (let d = decisions 9 in
     List.mem true d && List.mem false d)

(* ------------------------------------------------------------------ *)
(* Meter: the crossings of the virtual-protocol functor                *)
(* ------------------------------------------------------------------ *)

module Bus = Fox_obs.Bus
module Mloop = Fox_proto.Meter.Make (Loop)

(* A named meter over [Loop]: the sizes its callbacks saw, newest first,
   the packets its upcall passed up, and one connection. *)
let metered () =
  let sends = ref [] and receives = ref [] and delivered = ref 0 in
  let config =
    {
      Fox_proto.Meter.on_send = (fun n -> sends := n :: !sends);
      on_receive = (fun n -> receives := n :: !receives);
    }
  in
  let lt = Loop.create () in
  let mt = Mloop.create ~probe:"loop" lt config in
  let conn =
    Mloop.connect mt () (fun _ -> ((fun _ -> incr delivered), ignore))
  in
  (lt, conn, sends, receives, delivered)

(* One packet through each crossing: unstaged [send] (10 bytes), the
   staged late stage twice (20, 21) and an upcall (30). *)
let cross lt conn =
  Mloop.send conn (Mloop.allocate_send conn 10);
  let staged = Mloop.prepare_send conn in
  staged (Mloop.allocate_send conn 20);
  staged (Mloop.allocate_send conn 21);
  Loop.deliver (Mloop.inner conn) (Packet.create 30);
  Alcotest.(check int) "every send reached the wrapped layer" 3 lt.Loop.sent

let test_meter_callbacks () =
  let lt, conn, sends, receives, delivered = metered () in
  Bus.disable ();
  Bus.reset ();
  cross lt conn;
  Alcotest.(check (list int)) "on_send once per packet, both paths"
    [ 21; 20; 10 ] !sends;
  Alcotest.(check (list int)) "on_receive once per packet" [ 30 ] !receives;
  Alcotest.(check int) "the upcall reached the handler" 1 !delivered;
  Alcotest.(check int) "an off bus records nothing" 0 (Bus.emitted ())

let test_meter_bus_events () =
  let lt, conn, _, _, _ = metered () in
  Bus.reset ();
  Bus.enable ();
  Fun.protect
    ~finally:(fun () ->
      Bus.disable ();
      Bus.reset ())
    (fun () ->
      cross lt conn;
      let event e =
        Printf.sprintf "%s %s" e.Bus.layer
          (match e.Bus.kind with
          | Bus.Send { bytes; flags } ->
            Printf.sprintf "send %d [%s]" bytes flags
          | Bus.Span { name; dur_us; bytes } ->
            Printf.sprintf "span %s %dus %d" name dur_us bytes
          | Bus.Deliver { bytes } -> Printf.sprintf "deliver %d" bytes
          | _ -> "other")
      in
      (* outside a scheduler run the clock reads 0, so every span is 0 us *)
      Alcotest.(check (list string))
        "Send and Span per send, Deliver per upcall"
        [
          "loop send 10 []"; "loop span send 0us 10";
          "loop send 20 []"; "loop span send 0us 20";
          "loop send 21 []"; "loop span send 0us 21";
          "loop deliver 30";
        ]
        (List.map event (Bus.events ())))

(* ------------------------------------------------------------------ *)
(* Faulty composed under a real stack                                 *)
(* ------------------------------------------------------------------ *)

(* Acceptance: Tcp(Faulty(Ip(Faulty(Eth)))) completes a lossy transfer.
   Both faulty layers drop (and the one under TCP also raises), and the
   transfer must still deliver every byte, with zero invariant faults. *)
let lossy_schedule =
  {
    Fuzz.seed = 424242;
    chunks = [ 4000; 3000 ];
    delay_us = 500;
    loss = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    corrupt = 0.0;
    eth_drop = 0.08;
    ip_drop = 0.08;
    ip_fail = 0.05;
    connect_fail = 1;
    syn_flood = 0;
    flood_rst = false;
    bad_acks = 0;
    finale = Fuzz.Close;
  }

let test_composed_lossy_transfer_completes () =
  let r =
    Fuzz.run_engine
      (module Fuzz.Fox_engine)
      lossy_schedule ~engine_salt:1 ~with_invariants:true
  in
  Alcotest.(check string) "every byte delivered, in order"
    (Fuzz.payload_of lossy_schedule) r.Fuzz.delivered;
  Alcotest.(check (list string)) "no invariant faults" [] r.Fuzz.invariant_faults;
  Alcotest.(check bool) "the open survived the injected refusal" true
    (not r.Fuzz.connect_failed)

let test_composed_faults_actually_fired () =
  (* same run, holding on to the hosts so the injected-fault counters are
     visible: the transfer above succeeds despite real injected faults *)
  let a, b, _atk = Fuzz.hosts_for lossy_schedule ~engine_salt:1 in
  let delivered = Buffer.create 8192 in
  let server = Fuzz.Fox_engine.create b.Fuzz.fip in
  let client = Fuzz.Fox_engine.create a.Fuzz.fip in
  let payload = Fuzz.payload_of lossy_schedule in
  let _ =
    Scheduler.run (fun () ->
        Fuzz.Fox_engine.listen server ~port:7777
          ~on_data:(fun p -> Buffer.add_string delivered (Packet.to_string p))
          ~on_status:ignore;
        let conn =
          try
            Fuzz.Fox_engine.connect client ~peer:b.Fuzz.addr ~port:7777
              ~on_status:ignore
          with Fox_proto.Common.Connection_failed _ ->
            Scheduler.sleep 10_000;
            Fuzz.Fox_engine.connect client ~peer:b.Fuzz.addr ~port:7777
              ~on_status:ignore
        in
        Fuzz.Fox_engine.send_string conn payload;
        Scheduler.sleep 1000;
        Fuzz.Fox_engine.close conn)
  in
  Alcotest.(check string) "delivered despite faults" payload
    (Buffer.contents delivered);
  let sa = Fuzz.Fip.stats a.Fuzz.fip in
  let sb = Fuzz.Fip.stats b.Fuzz.fip in
  Alcotest.(check bool) "faults were actually injected under TCP" true
    (sa.Faulty.send_failures + sa.Faulty.send_drops + sa.Faulty.connect_failures
     + sb.Faulty.send_failures + sb.Faulty.send_drops
    > 0)

(* ------------------------------------------------------------------ *)
(* Invariant checker                                                  *)
(* ------------------------------------------------------------------ *)

let clean_info () =
  let params = Tcb.default_params in
  let tcb = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 1000) ~mss:1000 in
  tcb.Tcb.snd_una <- Seq.of_int 1001;
  tcb.Tcb.snd_nxt <- Seq.of_int 1001;
  tcb.Tcb.rcv_nxt <- Seq.of_int 5001;
  {
    Check_hook.tcb;
    before = Tcb.Estab tcb;
    after = Tcb.Estab tcb;
    action = Tcb.Send_ack;
    pending = [];
    armed = [];
    now = 0;
    dead = false;
  }

let test_invariants_accept_clean_tcb () =
  Alcotest.(check (list string)) "no violations" []
    (Tcb_invariants.violations (clean_info ()))

let test_invariants_catch_seeded_corruption () =
  (* snd_una ahead of snd_nxt *)
  let info = clean_info () in
  info.Check_hook.tcb.Tcb.snd_una <- Seq.of_int 2000;
  Alcotest.(check bool) "sequence corruption detected" true
    (Tcb_invariants.violations info <> []);
  (match Tcb_invariants.check info with
  | () -> Alcotest.fail "check should raise"
  | exception Tcb_invariants.Violation _ -> ());
  (* cwnd collapsed below one MSS *)
  let info = clean_info () in
  info.Check_hook.tcb.Tcb.cwnd <- 0;
  Alcotest.(check bool) "cwnd floor detected" true
    (Tcb_invariants.violations info <> []);
  (* timer flag disagreeing with host timers + to_do queue *)
  let info = clean_info () in
  info.Check_hook.tcb.Tcb.rtx_timer_on <- true;
  Alcotest.(check bool) "timer bookkeeping detected" true
    (Tcb_invariants.violations info <> []);
  (* illegal RFC 793 transition *)
  let info = clean_info () in
  let bad =
    { info with Check_hook.before = Tcb.Time_wait info.Check_hook.tcb }
  in
  Alcotest.(check bool) "illegal transition detected" true
    (Tcb_invariants.violations bad <> [])

let test_invariants_timer_flag_replay () =
  (* a pending Set_timer makes the flag legitimately true; a pending
     Clear_timer makes it legitimately false again *)
  let info = clean_info () in
  info.Check_hook.tcb.Tcb.rtx_timer_on <- true;
  let with_pending pending =
    (* the cached queue length must track the synthetic queue, or the
       accounting invariant fires instead of the timer one *)
    info.Check_hook.tcb.Tcb.to_do_len <- List.length pending;
    { info with Check_hook.pending }
  in
  Alcotest.(check (list string)) "set-timer pending justifies the flag" []
    (Tcb_invariants.violations
       (with_pending [ Tcb.Set_timer (Tcb.Retransmit, 1000) ]));
  Alcotest.(check bool) "set then clear contradicts the flag" true
    (Tcb_invariants.violations
       (with_pending
          [ Tcb.Set_timer (Tcb.Retransmit, 1000); Tcb.Clear_timer Tcb.Retransmit ])
    <> [])

let test_hook_runs_after_every_action_and_is_deterministic () =
  let s = Fuzz.generate ~seed:99 in
  let run () =
    Tcb_invariants.checks_performed := 0;
    let r =
      Fuzz.run_engine (module Fuzz.Fox_engine) s ~engine_salt:1
        ~with_invariants:true
    in
    (!Tcb_invariants.checks_performed, r)
  in
  let checks1, r1 = run () in
  let checks2, r2 = run () in
  Alcotest.(check bool) "checker ran (once per executed action)" true
    (checks1 > 0);
  Alcotest.(check int) "identical action count across runs" checks1 checks2;
  Alcotest.(check (list string)) "identical event trace" r1.Fuzz.events
    r2.Fuzz.events;
  Alcotest.(check string) "identical delivery" r1.Fuzz.delivered
    r2.Fuzz.delivered;
  Alcotest.(check (list string)) "no faults on a healthy stack" []
    r1.Fuzz.invariant_faults

let test_hook_catches_corruption_in_live_run () =
  (* corrupt the TCB once, mid-run, through the hook itself: the very
     same check call must report it, and the transfer still completes
     (the corrupted field is diagnostic-only) *)
  let detected = ref 0 in
  let corrupted = ref false in
  Check_hook.install (fun info ->
      (match Tcb.tcb_of info.Check_hook.after with
      | Some tcb when (not !corrupted) && not info.Check_hook.dead ->
        corrupted := true;
        tcb.Tcb.dup_acks <- -5
      | _ -> ());
      detected := !detected + List.length (Tcb_invariants.violations info));
  Fun.protect ~finally:Check_hook.uninstall (fun () ->
      let r =
        Fuzz.run_engine
          (module Fuzz.Fox_engine)
          (Fuzz.generate ~seed:7) ~engine_salt:1 ~with_invariants:false
      in
      ignore r);
  Alcotest.(check bool) "seeded violation caught" true (!detected > 0)

(* ------------------------------------------------------------------ *)
(* Differential fuzz                                                  *)
(* ------------------------------------------------------------------ *)

(* Satellite: the bounded smoke sweep that runs under `dune runtest`.
   200 fixed schedules through both engines; all must agree. *)
let test_fuzz_smoke_200_schedules () =
  let failures = Fuzz.run_seeds ~seed:1 ~iters:200 () in
  (match failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "differential failure:\n%s" f.Fuzz.report);
  Alcotest.(check int) "all schedules agree" 0 (List.length failures)

let test_fuzz_trace_reproduces_byte_for_byte () =
  List.iter
    (fun seed ->
      let t1 = Fuzz.trace_of_seed ~seed in
      let t2 = Fuzz.trace_of_seed ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d trace identical across runs" seed)
        t1 t2;
      Alcotest.(check bool) "trace is non-trivial" true
        (String.length t1 > 100))
    [ 7; 42; 180 ]

let test_fuzz_minimize_keeps_failure () =
  (* minimization never "fixes" a failing schedule: feed it a passing one
     and it must return it unchanged (no candidate fails) *)
  let s = Fuzz.generate ~seed:3 in
  let m = Fuzz.minimize s in
  Alcotest.(check string) "passing schedule is its own minimum"
    (Fuzz.schedule_to_string s) (Fuzz.schedule_to_string m)

let () =
  Alcotest.run "check"
    [
      ( "faulty",
        [
          Alcotest.test_case "passthrough" `Quick test_faulty_passthrough;
          Alcotest.test_case "send raises" `Quick test_faulty_send_raises;
          Alcotest.test_case "send drops" `Quick test_faulty_send_drops_silently;
          Alcotest.test_case "allocate fails" `Quick test_faulty_allocate_fails;
          Alcotest.test_case "transient connect" `Quick
            test_faulty_connect_transient;
          Alcotest.test_case "finalize aborts" `Quick
            test_faulty_finalize_aborts;
          Alcotest.test_case "deterministic" `Quick
            test_faulty_deterministic_decisions;
        ] );
      ( "meter",
        [
          Alcotest.test_case "callbacks per packet" `Quick test_meter_callbacks;
          Alcotest.test_case "bus events" `Quick test_meter_bus_events;
        ] );
      ( "composition",
        [
          Alcotest.test_case "lossy transfer completes" `Quick
            test_composed_lossy_transfer_completes;
          Alcotest.test_case "faults actually fired" `Quick
            test_composed_faults_actually_fired;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean tcb accepted" `Quick
            test_invariants_accept_clean_tcb;
          Alcotest.test_case "seeded corruption caught" `Quick
            test_invariants_catch_seeded_corruption;
          Alcotest.test_case "timer flag replay" `Quick
            test_invariants_timer_flag_replay;
          Alcotest.test_case "hook coverage + determinism" `Quick
            test_hook_runs_after_every_action_and_is_deterministic;
          Alcotest.test_case "live-run corruption caught" `Quick
            test_hook_catches_corruption_in_live_run;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "200-schedule smoke" `Quick
            test_fuzz_smoke_200_schedules;
          Alcotest.test_case "trace determinism" `Quick
            test_fuzz_trace_reproduces_byte_for_byte;
          Alcotest.test_case "minimize idempotent on pass" `Quick
            test_fuzz_minimize_keeps_failure;
        ] );
    ]
