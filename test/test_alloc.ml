(* Allocation gate.

   Each test counts words over a fixed, deterministic workload — minor
   words allocated ([Gc.minor_words] deltas), words promoted to the major
   heap, or words a connection's TCB keeps reachable — and bounds them at
   the value measured when the gate was set plus a stated margin (see
   CHANGES.md).  A bound may only go down. *)

module Scheduler = Fox_sched.Scheduler
module Timer = Fox_sched.Timer
module Wheel = Fox_sched.Wheel
module Network = Fox_stack.Network
module Experiments = Fox_stack.Experiments
module Load = Fox_check.Load
module Tcb = Fox_tcp.Tcb
module Check_hook = Fox_tcp.Check_hook

let check_bound label ~measured ~bound actual =
  if actual > bound then
    Alcotest.failf "%s: %.2f words, over the bound %.2f (measured %.2f)" label
      actual bound measured

(* Reading the clock is a read of the running scheduler's state. *)
let test_now () =
  let words = ref nan in
  ignore
    (Scheduler.run (fun () ->
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do
           ignore (Sys.opaque_identity (Scheduler.now ()))
         done;
         words := Gc.minor_words () -. w0));
  check_bound "10 000 now calls" ~measured:0. ~bound:0. !words

(* Two threads yielding to each other: a captured continuation and a
   run-queue thunk per switch. *)
let test_ping_pong () =
  let player () =
    for _ = 1 to 10_000 do
      Scheduler.yield ()
    done
  in
  let w0 = Gc.minor_words () in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork player;
        player ())
  in
  let words = Gc.minor_words () -. w0 in
  check_bound "words per switch" ~measured:12.0 ~bound:14.0
    (words /. float_of_int stats.Scheduler.switches)

(* A timer restarted in place — a connection's retransmission timer on
   every ACK — costs no allocation, and leaves one entry on the wheel. *)
let test_timer_rearm () =
  let words = ref nan and pending = ref (-1) in
  ignore
    (Scheduler.run (fun () ->
         let t = Timer.create ignore in
         Timer.set t 50_000;
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do
           Timer.set t 50_000
         done;
         words := Gc.minor_words () -. w0;
         pending := Wheel.pending ();
         Timer.clear t));
  Alcotest.(check int) "one entry pending" 1 !pending;
  check_bound "10 000 timer re-arms" ~measured:0. ~bound:0. !words

(* A 1 MB transfer between the standard two hosts, per segment sent by
   either side: the whole per-segment path, scheduler included. *)
let test_bulk () =
  let _, sender, receiver = Network.pair ~engine:Network.Fox () in
  let w0 = Gc.minor_words () in
  let r = Experiments.Fox_run.transfer ~sender ~receiver ~bytes:1_000_000 () in
  let words = Gc.minor_words () -. w0 in
  let segments =
    r.Experiments.sender_segments + r.Experiments.receiver_segments
  in
  check_bound "words per segment" ~measured:379.9 ~bound:400.0
    (words /. float_of_int segments)

(* The serve path: a fixed 50-connection HTTP load, words promoted per
   request.  Promotion is only counted at minor collections, so the load
   is long enough (2 000 requests) for a few dozen of them.  A first run
   warms whatever the process initialises once (so the count does not
   depend on which tests ran before), and a full major collection empties
   the minor heap, so the measured run starts from the same minor-heap
   state every time. *)
let test_rpc_promoted () =
  let cfg = { Load.default_config with Load.conns = 50; requests = 40 } in
  ignore (Load.run cfg);
  Gc.full_major ();
  let _, p0, _ = Gc.counters () in
  let r = Load.run cfg in
  let _, p1, _ = Gc.counters () in
  Alcotest.(check int) "every request answered" r.Load.requests_attempted
    r.Load.requests_ok;
  check_bound "promoted words per request" ~measured:66.0 ~bound:70.0
    ((p1 -. p0) /. float_of_int r.Load.requests_attempted)

(* Words a TCB keeps reachable, measured from the executor's check hook
   the first time a connection is quiescent (nothing on [to_do], nothing
   queued or in flight) in the given state.  The count follows the TCB's
   send and retransmission rings to the placeholders that fill their
   empty cells; those two are shared by every TCB, so 18 of these words
   are not a per-connection cost. *)
let tcb_words ~established =
  let words = ref None in
  Check_hook.install (fun info ->
      if !words = None && (not info.Check_hook.dead)
         && info.Check_hook.pending = []
      then begin
        let tcb = info.Check_hook.tcb in
        let quiet = tcb.Tcb.queued_bytes = 0 && Tcb.flight_size tcb = 0 in
        let wanted =
          match info.Check_hook.after with
          | Tcb.Estab _ ->
            established && tcb.Tcb.bytes_in > 0 && tcb.Tcb.bytes_out > 0
          | Tcb.Time_wait _ -> not established
          | _ -> false
        in
        if quiet && wanted then
          words := Some (Obj.reachable_words (Obj.repr tcb))
      end);
  let r =
    Fun.protect ~finally:Check_hook.uninstall (fun () ->
        Load.run { Load.default_config with Load.conns = 1; requests = 2 })
  in
  Alcotest.(check int) "every request answered" r.Load.requests_attempted
    r.Load.requests_ok;
  match !words with
  | Some w -> float_of_int w
  | None -> Alcotest.fail "no quiescent connection in the wanted state"

let test_tcb_established () =
  check_bound "ESTABLISHED TCB reachable words" ~measured:171. ~bound:177.
    (tcb_words ~established:true)

let test_tcb_time_wait () =
  check_bound "TIME-WAIT TCB reachable words" ~measured:171. ~bound:177.
    (tcb_words ~established:false)

let () =
  Alcotest.run "fox_alloc"
    [
      ( "scheduler",
        [
          Alcotest.test_case "now allocates nothing" `Quick test_now;
          Alcotest.test_case "ping-pong per switch" `Quick test_ping_pong;
          Alcotest.test_case "bulk transfer per segment" `Quick test_bulk;
          Alcotest.test_case "timer re-arm allocates nothing" `Quick
            test_timer_rearm;
        ] );
      ( "serve",
        [
          Alcotest.test_case "promoted words per request" `Quick
            test_rpc_promoted;
          Alcotest.test_case "ESTABLISHED TCB words" `Quick
            test_tcb_established;
          Alcotest.test_case "TIME-WAIT TCB words" `Quick test_tcb_time_wait;
        ] );
    ]
