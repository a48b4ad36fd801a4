(* Allocation gate for the scheduler.

   Each test counts minor-heap words ([Gc.minor_words] deltas) over a
   fixed, deterministic workload and bounds them at the value measured
   when the gate was set plus a stated margin (see CHANGES.md).  A bound
   may only go down. *)

module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Experiments = Fox_stack.Experiments

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
  check_bound "words per segment" ~measured:699.0 ~bound:735.0
    (words /. float_of_int segments)

let () =
  Alcotest.run "fox_alloc"
    [
      ( "scheduler",
        [
          Alcotest.test_case "now allocates nothing" `Quick test_now;
          Alcotest.test_case "ping-pong per switch" `Quick test_ping_pong;
          Alcotest.test_case "bulk transfer per segment" `Quick test_bulk;
        ] );
    ]
