(* Tests for Fox_sched: the coroutine scheduler, the Figure 11 timer
   exhibit and the timing wheel behind Timer, mailboxes and the
   virtual-CPU cost model. *)

open Fox_sched

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let test_run_to_completion () =
  let log = ref [] in
  let push x = log := x :: !log in
  let stats =
    Scheduler.run (fun () ->
        push "main-start";
        Scheduler.fork (fun () ->
            push "child";
            Scheduler.yield ();
            push "child-2");
        push "main-mid";
        Scheduler.yield ();
        push "main-end")
  in
  (* fork keeps the CPU with the parent until it yields *)
  Alcotest.(check (list string))
    "interleaving"
    [ "main-start"; "main-mid"; "child"; "main-end"; "child-2" ]
    (List.rev !log);
  Alcotest.(check int) "forks" 2 stats.forks;
  Alcotest.(check int) "completed" 2 stats.completed;
  Alcotest.(check int) "blocked" 0 stats.blocked

let test_sleep_ordering () =
  let log = ref [] in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            Scheduler.sleep 300;
            log := ("c", Scheduler.now ()) :: !log);
        Scheduler.fork (fun () ->
            Scheduler.sleep 100;
            log := ("a", Scheduler.now ()) :: !log);
        Scheduler.fork (fun () ->
            Scheduler.sleep 200;
            log := ("b", Scheduler.now ()) :: !log))
  in
  Alcotest.(check (list (pair string int)))
    "wakeup order and times"
    [ ("a", 100); ("b", 200); ("c", 300) ]
    (List.rev !log);
  Alcotest.(check int) "end_time" 300 stats.end_time

let test_clock_monotone_with_equal_deadlines () =
  let log = ref [] in
  let _ =
    Scheduler.run (fun () ->
        for i = 1 to 5 do
          Scheduler.fork (fun () ->
              Scheduler.sleep 50;
              log := i :: !log)
        done)
  in
  Alcotest.(check (list int)) "ties fire in fork order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_virtual_clock_starts_at () =
  let seen = ref (-1) in
  let _ =
    Scheduler.run ~start_time:5000 (fun () -> seen := Scheduler.now ())
  in
  Alcotest.(check int) "start time" 5000 !seen

let test_exit_thread () =
  let after_exit = ref false in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            ignore (Scheduler.exit_thread ());
            after_exit := true))
  in
  Alcotest.(check bool) "code after exit unreached" false !after_exit;
  Alcotest.(check int) "completed" 2 stats.completed

let test_stop () =
  let ran = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            Scheduler.sleep 1_000_000;
            incr ran);
        Scheduler.fork (fun () -> ignore (Scheduler.stop ()));
        Scheduler.sleep 2_000_000;
        incr ran)
  in
  Alcotest.(check int) "nothing ran after stop" 0 !ran;
  Alcotest.(check bool) "ended early" true (stats.end_time < 1_000_000)

let test_suspend_resume () =
  let resumer = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () -> got := Scheduler.suspend (fun r -> resumer := r));
        Scheduler.yield ();
        !resumer 42)
  in
  Alcotest.(check int) "value passed through suspend" 42 !got;
  Alcotest.(check int) "no thread blocked" 0 stats.blocked

let test_blocked_counted () =
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            ignore (Scheduler.suspend (fun (_ : int -> unit) -> ()))))
  in
  Alcotest.(check int) "blocked" 1 stats.blocked;
  Alcotest.(check int) "completed" 1 stats.completed

let test_deterministic_stats () =
  let round () =
    Scheduler.run (fun () ->
        for i = 1 to 20 do
          Scheduler.fork (fun () ->
              Scheduler.sleep (i * 7);
              Scheduler.yield ())
        done)
  in
  let a = round () and b = round () in
  Alcotest.(check int) "switches equal" a.switches b.switches;
  Alcotest.(check int) "end time equal" a.end_time b.end_time

let sched_sleep_sum =
  qtest "sched: sequential sleeps sum"
    QCheck2.Gen.(list_size (int_range 0 20) (int_bound 1000))
    (fun sleeps ->
      let stats =
        Scheduler.run (fun () -> List.iter Scheduler.sleep sleeps)
      in
      stats.end_time = List.fold_left ( + ) 0 sleeps)

let sched_parallel_max =
  qtest "sched: parallel sleeps take max"
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 1000))
    (fun sleeps ->
      let stats =
        Scheduler.run (fun () ->
            List.iter (fun us -> Scheduler.fork (fun () -> Scheduler.sleep us)) sleeps)
      in
      stats.end_time = List.fold_left max 0 sleeps)

(* ------------------------------------------------------------------ *)
(* Realtime mode and the idle hook                                    *)
(* ------------------------------------------------------------------ *)

let test_realtime_sleep_takes_real_time () =
  let wall0 = Unix.gettimeofday () in
  let stats = Scheduler.run ~realtime:true (fun () -> Scheduler.sleep 30_000) in
  let wall = Unix.gettimeofday () -. wall0 in
  Alcotest.(check bool) "took at least ~25ms of wall time" true (wall >= 0.025);
  Alcotest.(check bool) "clock tracked the wall" true
    (stats.Scheduler.end_time >= 25_000)

let test_virtual_sleep_takes_no_real_time () =
  let wall0 = Unix.gettimeofday () in
  let stats = Scheduler.run (fun () -> Scheduler.sleep 10_000_000) in
  let wall = Unix.gettimeofday () -. wall0 in
  Alcotest.(check bool) "10 virtual seconds in under 100ms wall" true
    (wall < 0.1);
  Alcotest.(check int) "virtual clock advanced" 10_000_000
    stats.Scheduler.end_time

let test_idle_hook_injects_work () =
  (* a thread suspends; only the idle hook can resume it *)
  let resumer = ref None in
  let got = ref 0 in
  let hook_calls = ref 0 in
  let _ =
    Scheduler.run
      ~idle:(fun _until ->
        incr hook_calls;
        match !resumer with
        | Some r ->
          resumer := None;
          r 99
        | None ->
          (* nothing left to inject: end the run by resuming nobody and
             stopping via the suspended thread being the only one alive *)
          ())
      (fun () ->
        got := Scheduler.suspend (fun r -> resumer := Some r);
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check int) "value injected from outside" 99 !got;
  Alcotest.(check bool) "hook ran" true (!hook_calls >= 1)

let test_idle_hook_sees_time_to_next_timer () =
  let seen = ref None in
  let resumer = ref None in
  let _ =
    Scheduler.run
      ~idle:(fun until ->
        if !seen = None then seen := Some until;
        match !resumer with
        | Some r ->
          resumer := None;
          r ()
        | None -> ())
      (fun () ->
        Scheduler.fork (fun () -> Scheduler.sleep 5_000);
        Scheduler.suspend (fun r -> resumer := Some r);
        ignore (Scheduler.stop ()))
  in
  match !seen with
  | Some (Some us) ->
    Alcotest.(check bool) "until reflects the sleeper" true (us <= 5_000)
  | _ -> Alcotest.fail "idle hook did not see the pending timer"

(* ------------------------------------------------------------------ *)
(* call_at: where a thread sleeping until the due time would start    *)
(* ------------------------------------------------------------------ *)

(* The fork/now/sleep expansion: a thread forked now that sleeps until
   [due] and then runs [f], where a [call_at] body must start. *)
let expanded_call_at due f =
  Scheduler.fork (fun () ->
      let w = due - Scheduler.now () in
      if w > 0 then Scheduler.sleep w;
      f ())

(* A random thread program.  [At] dues are relative to the clock at the
   call and drawn from a small set, so dues in the past, now, the future
   and equal dues (and ties with sleepers) all occur; [Advance] moves
   the clock between an [At] and the start of its body. *)
type op =
  | Fork of op list
  | At of int * op list
  | Sleep of int
  | Yield
  | Advance of int

let gen_program =
  let open QCheck2.Gen in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         let leaf =
           frequency
             [
               (3, map (fun d -> Sleep d) (oneofl [ 0; 1; 3; 5 ]));
               (2, pure Yield);
               (1, map (fun d -> Advance d) (oneofl [ 1; 3 ]));
             ]
         in
         let op =
           if depth = 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun p -> Fork p) (self (depth - 1)));
                 ( 3,
                   map2
                     (fun d p -> At (d, p))
                     (oneofl [ -5; -1; 0; 0; 1; 3; 3; 5; 10 ])
                     (self (depth - 1)) );
               ]
         in
         list_size (int_range 0 6) op)

(* Run [prog] as the main thread, logging (thread, step, time) at every
   step, with [at] standing for [Scheduler.call_at] or the expansion.
   With [~effect_free], the bodies [at] starts log their [Sleep] and
   [Yield] steps without performing them, so that [Scheduler.call_at]
   can run them; a [Fork] inside one still starts a whole thread. *)
let run_program ?(effect_free = false) at prog =
  let log = ref [] in
  let rec exec ~timed name prog =
    List.iteri
      (fun i op ->
        log := (name, i, Scheduler.now ()) :: !log;
        let child = Printf.sprintf "%s.%d" name i in
        match op with
        | Fork p -> Scheduler.fork (fun () -> exec ~timed:false child p)
        | At (d, p) ->
          at (Scheduler.now () + d) (fun () ->
              exec ~timed:effect_free child p)
        | Sleep us -> if not timed then Scheduler.sleep us
        | Yield -> if not timed then Scheduler.yield ()
        | Advance us -> Scheduler.advance us)
      prog;
    log := (name, -1, Scheduler.now ()) :: !log
  in
  let stats = Scheduler.run (fun () -> exec ~timed:false "main" prog) in
  (List.rev !log, stats)

(* [call_at] starts its body where the expansion starts its thread's
   body: the same log and the same clock, but no fork, no switch and no
   sleep for the body. *)
let call_at_matches_expansion =
  qtest ~count:500 "call_at: same log and clock as expansion" gen_program
    (fun prog ->
      let l, s = run_program ~effect_free:true Scheduler.call_at prog
      and l', s' = run_program ~effect_free:true expanded_call_at prog in
      l = l' && s.Scheduler.end_time = s'.Scheduler.end_time)

(* A [call_at] body is no thread: every operation that gives up the CPU
   raises [Effect.Unhandled] at its call, also in a run nested inside
   another run's thread, whose handler must not catch it. *)
let test_call_at_effects_unhandled () =
  let blocking =
    [
      ("yield", Scheduler.yield);
      ("sleep", fun () -> Scheduler.sleep 1);
      ("suspend", fun () -> Scheduler.suspend (fun _ -> ()));
      ("stop", fun () -> Scheduler.stop ());
    ]
  in
  let raised = ref [] in
  let body (label, op) () =
    match op () with
    | () -> ()
    | exception Effect.Unhandled _ -> raised := label :: !raised
  in
  let top =
    Scheduler.run (fun () ->
        List.iter
          (fun e -> Scheduler.call_at (Scheduler.now () + 5) (body e))
          blocking)
  in
  Alcotest.(check (list string)) "each raised" (List.map fst blocking)
    (List.rev !raised);
  Alcotest.(check int) "the run went on" 5 top.Scheduler.end_time;
  raised := [];
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Scheduler.run (fun () ->
                List.iter (fun e -> Scheduler.call_at 0 (body e)) blocking))));
  Alcotest.(check (list string)) "each raised in a nested run"
    (List.map fst blocking) (List.rev !raised);
  match Scheduler.run (fun () -> Scheduler.call_at 1 Scheduler.yield) with
  | _ -> Alcotest.fail "an uncaught effect in a body returned"
  | exception Effect.Unhandled _ -> ()

(* [stop] discards bodies still waiting, on the sleep queue (stopped
   after 10 µs) or on the run queue (stopped at once). *)
let test_call_at_stop_discards () =
  List.iter
    (fun (stop_after, forks) ->
      let ran = ref false in
      let stats =
        Scheduler.run (fun () ->
            Scheduler.call_at (Scheduler.now () + 1_000) (fun () -> ran := true);
            match stop_after with
            | None -> ignore (Scheduler.stop ())
            | Some us ->
              Scheduler.fork (fun () ->
                  Scheduler.sleep us;
                  ignore (Scheduler.stop ())))
      in
      Alcotest.(check bool) "body never ran" false !ran;
      Alcotest.(check int) "forks" forks stats.Scheduler.forks;
      Alcotest.(check int) "blocked" 0 stats.Scheduler.blocked)
    [ (Some 10, 2); (None, 1) ]

(* The TAP path runs in realtime with an idle hook that waits for the
   device, and a socket's read deadline is a [call_at] body that signals
   a reader blocked on a [Cond].  The body is no thread, but the hook
   must still be told when it is due, and it must run. *)
let test_call_at_idle_hook () =
  let calls = ref 0 and seen = ref None and woke = ref false in
  let _ =
    Scheduler.run ~realtime:true
      ~idle:(fun until ->
        incr calls;
        (* a due body the loop never runs would spin here *)
        if !calls > 1_000 then failwith "idle hook spinning";
        if !seen = None then seen := Some until;
        match until with
        | Some us -> Unix.sleepf (float_of_int us /. 1e6)
        | None -> ())
      (fun () ->
        let c = Fox_sched.Cond.create () in
        Scheduler.call_at (Scheduler.now () + 2_000) (fun () ->
            Fox_sched.Cond.signal c ());
        Fox_sched.Cond.wait c;
        woke := true)
  in
  Alcotest.(check bool) "hook ran" true (!calls >= 1);
  (match !seen with
  | Some (Some us) ->
    Alcotest.(check bool) "until is the due time" true (us <= 2_000)
  | _ -> Alcotest.fail "hook did not see the pending body");
  Alcotest.(check bool) "reader woke" true !woke

(* ------------------------------------------------------------------ *)
(* Golden runs: the literal log and stats of fixed programs           *)
(* ------------------------------------------------------------------ *)

(* The run-twice checks and the expansion property compare two runs,
   which cannot see an order change that moves both alike.  These pin
   the log (thread, step, clock) and the stats of 20 fixed
   [gen_program] programs with at least three threads each, every step
   reading the clock. *)
let golden_programs =
  [
    ( 2,
      "main:0@0 main:1@0 main:2@0 main:3@0 main:-1@0 main.1:0@0 \
       main.1:1@0 main.1:2@0 main.1:3@0 main.2:0@0 main.2:-1@0 \
       main.1.1:0@0 main.1.2:0@0 main.2.0:0@0 main.1.1:1@0 \
       main.1.1:2@0 main.1:4@0 main.1:5@0 main.1:-1@0 main.1.4:-1@0 \
       main.1.2:1@0 main.1.2:2@0 main.2.0:1@3 main.1.5:0@3 \
       main.1.2:-1@3 main.1.1:3@5 main.2.0:-1@8 main.1.5:1@8 \
       main.1.5:2@9 main.1.5:3@9 main.3:0@10 main.3:-1@10 \
       main.3.0:0@10 main.1.0:0@10 main.1.1:-1@10 main.1.5:4@10 \
       main.1.5:5@11 main.3.0:1@11 main.3.0:2@11 main.1.5:-1@11 \
       main.3.0:3@14 main.1.0:-1@15 main.3.0:4@15 main.3.0:5@15 \
       main.3.0:-1@18",
      "switches=36 forks=11 sleeps=20 completed=11 blocked=0 end_time=18us" );
    ( 5,
      "main:0@0 main:1@0 main.0:0@0 main.0:1@0 main.0:2@0 main.0:3@0 \
       main.0.2:0@0 main.0:4@0 main.0:5@0 main.0:-1@0 main.0.5:-1@0 \
       main.0.0:0@1 main.0.0:1@1 main.0.0:2@4 main:2@4 main:3@4 \
       main.2:0@4 main:4@4 main:5@4 main:-1@4 main.2:1@4 main.5:0@4 \
       main.5:1@4 main.5:2@4 main.5.0:0@4 main.5.0:1@5 main.5.1:0@5 \
       main.5:3@5 main.5:-1@5 main.0.2:1@5 main.2:2@5 main.2:-1@5 \
       main.2.2:0@5 main.2.2:1@5 main.2.2:2@5 main.5.0:-1@6 \
       main.5.3:0@6 main.5.3:1@6 main.0.2:2@6 main.2.2:-1@6 \
       main.0.2:3@6 main.0.2:-1@6 main.4:0@7 main.4:-1@7 main.4.0:0@7 \
       main.0.0:3@9 main.0.0:4@9 main.5.1:1@10 main.4.0:1@10 \
       main.4.0:2@13 main.4.0:3@13 main.5.3:2@13 main.5.3:3@13 \
       main.5.3:-1@13 main.5.1:2@13 main.5.1:-1@13 main.0.0:5@14 \
       main.0.0:-1@14 main.4.0:-1@18",
      "switches=47 forks=13 sleeps=19 completed=13 blocked=0 end_time=18us" );
    ( 6,
      "main:0@0 main:-1@0 main.0:0@0 main.0:1@0 main.0:2@0 \
       main.0:-1@0 main.0.0:0@0 main.0.0:1@1 main.0.1:0@3 \
       main.0.1:1@3 main.0.1:2@3 main.0.1:3@3 main.0.1:4@3 \
       main.0.1.0:0@3 main.0.1.2:0@3 main.0.1.3:0@3 main.0.1.3:1@4 \
       main.0.1.2:1@4 main.0.1.2:-1@5 main.0.1.3:2@5 main.0.1.3:3@8 \
       main.0.1.3:4@8 main.0.1.3:-1@8 main.0.2:0@8 main.0.2:1@8 \
       main.0.2:2@8 main.0.2.1:0@8 main.0.2.1:-1@9 main.0.1.0:1@9 \
       main.0.0:2@9 main.0.0:3@9 main.0.0:-1@9 main.0.0.2:0@9 \
       main.0.0.3:0@9 main.0.1:5@9 main.0.1:-1@12 main.0.1.1:0@12 \
       main.0.2:3@12 main.0.0.2:1@12 main.0.0.2:-1@12 main.0.0.3:1@12 \
       main.0.0.3:2@15 main.0.2.0:0@15 main.0.2.0:1@15 \
       main.0.1.0:2@15 main.0.2:4@15 main.0.2:5@15 main.0.2:-1@15 \
       main.0.1.1:-1@17 main.0.0.3:3@18 main.0.2.0:2@18 \
       main.0.1.0:-1@18 main.0.2.0:3@18 main.0.2.0:-1@18 \
       main.0.0.3:4@23 main.0.0.3:5@28 main.0.0.3:-1@29",
      "switches=42 forks=13 sleeps=23 completed=13 blocked=0 end_time=29us" );
    ( 8,
      "main:0@0 main:1@0 main:2@0 main:3@0 main:4@0 main.2:0@0 \
       main.0:0@1 main.0:1@1 main.2:1@1 main.2:2@1 main.0:2@2 \
       main.3:0@3 main:-1@5 main.0:3@5 main.0:4@5 main.2:3@6 \
       main.0:-1@6 main.3:1@8 main.3:2@8 main.3:3@8 main.3:4@8 \
       main.3:5@8 main.3:-1@8 main.2:4@9 main.2:5@12 main.2:-1@12 \
       main.1:0@12 main.1:1@15 main.1:-1@18",
      "switches=27 forks=5 sleeps=16 completed=5 blocked=0 end_time=18us" );
    ( 15,
      "main:0@0 main:1@0 main:-1@0 main.1:0@0 main.1:1@0 main.1.0:0@0 \
       main.1.0:1@1 main.1.0:-1@1 main.1.0.1:0@1 main.1:2@1 \
       main.1:3@1 main.1:4@1 main.1:-1@1 main.1.2:0@1 main.1.2:1@1 \
       main.1.2:2@1 main.1.2:-1@1 main.1.4:-1@1 main.1.2.0:0@1 \
       main.1.2.2:0@1 main.1.2.0:-1@1 main.1.0.1:1@2 main.1.0.1:2@3 \
       main.1.3:0@4 main.1.3:1@4 main.1.3:2@4 main.1.3.0:0@4 \
       main.1.3.1:0@4 main.1.3.0:1@4 main.1.0.1:3@4 main.1.3:3@5 \
       main.1.3:4@5 main.1.3:-1@5 main.1.2.1:0@6 main.1.2.2:1@6 \
       main.1.2.2:2@6 main.1.3.4:0@6 main.1.3.4:1@9 main.1.3.0:2@9 \
       main.1.2.2:3@9 main.1.2.2:4@9 main.1.3.3:0@9 main.1.3.3:1@9 \
       main.1.3.3:2@10 main.1.3.3:-1@13 main.1.3.1:-1@13 \
       main.1.0.1:4@13 main.1.0.1:-1@16 main.1.2.1:1@16 \
       main.1.3.4:2@16 main.1.3.4:3@16 main.1.3.0:3@16 \
       main.1.3.0:-1@16 main.1.2.2:5@16 main.1.2.2:-1@16 \
       main.1.2.1:2@19 main.1.2.1:3@19 main.1.3.4:4@19 \
       main.1.2.1:4@19 main.1.2.1:-1@20 main.1.3.4:5@22 \
       main.1.3.4:-1@22",
      "switches=47 forks=14 sleeps=23 completed=14 blocked=0 end_time=22us" );
    ( 17,
      "main:0@0 main:1@0 main.0:0@0 main.0:1@0 main:-1@0 main.0:2@0 \
       main.0:-1@0 main.0.0:0@5 main.0.2:-1@5 main.0.0:1@6 \
       main.0.0:2@7 main.0.0:3@10 main.0.0:4@11 main.0.0:5@11 \
       main.0.0:-1@11",
      "switches=11 forks=4 sleeps=3 completed=4 blocked=0 end_time=11us" );
    ( 18,
      "main:0@0 main:1@0 main:2@0 main:3@0 main:4@0 main.0:0@0 \
       main.0:-1@1 main.1:-1@1 main.2:-1@1 main.3:0@1 main.3:1@4 \
       main:5@5 main:-1@5 main.5:-1@6 main.3:-1@7",
      "switches=10 forks=6 sleeps=4 completed=6 blocked=0 end_time=7us" );
    ( 29,
      "main:0@0 main:1@0 main:2@1 main:3@1 main:4@1 main:-1@1 \
       main.0:0@1 main.3:-1@1 main.4:0@1 main.0:1@1 main.4:1@1 \
       main.0:2@1 main.4:2@1 main.4:3@1 main.4:4@1 main.0:-1@1 \
       main.2:0@4 main.2:1@5 main.2:2@5 main.2:-1@5 main.4:-1@6",
      "switches=17 forks=5 sleeps=4 completed=5 blocked=0 end_time=6us" );
    ( 30,
      "main:0@0 main:1@0 main:-1@0 main.0:0@0 main.0:1@1 main.1:0@1 \
       main.1:1@4 main.0:2@6 main.0:3@6 main.1:-1@7 main.0:4@7 \
       main.0:5@7 main.0:-1@7",
      "switches=10 forks=3 sleeps=5 completed=3 blocked=0 end_time=7us" );
    ( 34,
      "main:0@0 main:1@0 main:2@0 main.0:0@0 main.0:1@0 main.1:0@0 \
       main.0.0:0@0 main.0:2@0 main.1:1@0 main.1:2@0 main.1:3@0 \
       main.1.2:0@0 main.1.2:1@0 main.1.2:-1@0 main.1:4@0 main.1:5@0 \
       main.1.2.0:0@0 main.1.2.0:1@0 main.1.2.0:-1@1 main.0.0:-1@1 \
       main.1:-1@1 main.0:3@1 main.0:-1@1 main.0.3:0@1 main.0.3:1@1 \
       main.0.3:2@2 main.0.3.0:0@2 main.0.3:3@2 main.1.4:0@2 main:3@3 \
       main.1.4:1@3 main.1.4:2@3 main.1.4:-1@3 main.1.4.1:0@3 \
       main.1.4.2:0@3 main.1.4.2:1@3 main.1.4.2:2@3 main.1.4.2:3@3 \
       main:4@3 main:5@3 main:-1@3 main.1.4.2:4@4 main.0.3.0:1@5 \
       main.0.3:4@5 main.0.3:-1@5 main.0.3.0:2@5 main.1.4.1:-1@6 \
       main.0.3.0:3@6 main.0.3.0:-1@7 main.1.4.2:5@9 main.1.4.2:-1@9 \
       main.1.2.1:0@10 main.1.2.1:1@13 main.1.2.1:-1@13",
      "switches=41 forks=12 sleeps=17 completed=12 blocked=0 end_time=13us" );
    ( 39,
      "main:0@0 main:-1@0 main.0:0@0 main.0:1@0 main.0:2@0 main.0:3@0 \
       main.0.1:0@0 main.0.2:-1@0 main.0.1:1@0 main.0.1:-1@0 \
       main.0:4@1 main.0:5@2 main.0:-1@2 main.0.5:0@12 main.0.5:1@15 \
       main.0.5:2@15 main.0.5:3@15 main.0.5:4@16 main.0.5:-1@17",
      "switches=14 forks=5 sleeps=5 completed=5 blocked=0 end_time=17us" );
    ( 40,
      "main:0@0 main:1@1 main:2@1 main:3@6 main:4@9 main:5@9 \
       main:-1@9 main.4:0@9 main.4:1@9 main.4:2@10 main.5:0@10 \
       main.5:-1@10 main.4.0:0@10 main.5.0:0@10 main.5.0:-1@10 \
       main.4:3@11 main.4:4@11 main.4:5@11 main.4.4:0@11 \
       main.4.4:1@11 main.4.4:2@11 main.4.4:-1@11 main.4.0:1@15 \
       main.4.0:2@15 main.4:-1@16 main.4.0:3@16 main.4.0:4@16 \
       main.4.0:5@21 main.4.0:-1@22",
      "switches=21 forks=6 sleeps=7 completed=6 blocked=0 end_time=22us" );
    ( 43,
      "main:0@0 main:1@1 main:2@1 main:-1@1 main.2:-1@1 main.1:0@6 \
       main.1:1@6 main.1:-1@6 main.1.0:0@11 main.1.0:1@11 \
       main.1.1:0@11 main.1.0:2@14 main.1.0:-1@15 main.1.1:-1@16",
      "switches=13 forks=5 sleeps=7 completed=5 blocked=0 end_time=16us" );
    ( 49,
      "main:0@0 main:1@3 main:2@3 main.1:0@3 main:3@3 main:4@3 \
       main:-1@3 main.1:-1@3 main.3:0@3 main.3:1@3 main.3:2@3 \
       main.3:3@3 main.4:0@4 main.4:1@4 main.3:4@4 main.3:-1@4 \
       main.4:-1@4",
      "switches=15 forks=4 sleeps=4 completed=4 blocked=0 end_time=4us" );
    ( 52,
      "main:0@0 main:1@0 main:2@0 main:3@0 main.2:0@0 main.2:-1@0 \
       main:-1@1 main.0:0@3 main.0:1@3 main.0:-1@3 main.2.0:0@3 \
       main.0.0:0@4 main.0.1:0@4 main.2.0:1@4 main.2.0:2@4 \
       main.2.0:3@4 main.0.0:1@4 main.0.0:-1@4 main.2.0:4@4 \
       main.0.1:1@5 main.2.0:5@5 main.0.1:2@5 main.0.1:3@6 \
       main.0.1:4@7 main.0.1:5@8 main.0.1:-1@8 main.1:0@10 \
       main.1:1@10 main.1.0:0@10 main.1.0:1@13 main.2.0:-1@13 \
       main.1:2@13 main.1:3@13 main.1:4@13 main.1:5@13 main.1:-1@13 \
       main.1.2:0@13 main.1.2:1@14 main.1.2:2@14 main.1.0:-1@14 \
       main.1.2:3@14 main.1.2:-1@15 main.1.3:-1@16 main.1.4:0@16 \
       main.1.4:1@21 main.1.4:2@21 main.1.4:3@21 main.1.4:-1@21 \
       main.1.5:0@23 main.1.5:1@23 main.1.5:-1@26",
      "switches=44 forks=12 sleeps=25 completed=12 blocked=0 end_time=26us" );
    ( 53,
      "main:0@0 main:1@0 main.0:0@0 main:2@5 main:-1@5 main.0:1@5 \
       main.0:2@5 main.0:3@5 main.0.2:0@5 main.0.2:1@5 main.0.2:2@5 \
       main.0.2:3@5 main.0.2:4@5 main.0.2:5@6 main.0.2.2:0@6 \
       main.0.2:-1@7 main.0.2.2:-1@7 main.0:4@8 main.0:5@8 \
       main.0:-1@8 main.0.4:0@8 main.0.4:1@8 main.0.4:-1@8 \
       main.0.4.0:-1@8 main.0.4.1:0@8 main.0.2.1:0@8 main.0.2.1:1@8 \
       main.0.2.3:0@8 main.0.4.1:1@9 main.0.2.1:-1@9 main.0.2.3:1@9 \
       main.0.2.3:2@9 main.0.2.3:3@12 main.0.2.3:4@12 main.0.4.1:2@12 \
       main.0.4.1:3@12 main.0.4.1:4@12 main.0.5:0@13 main.0.5:-1@13 \
       main.0.2.3:5@15 main.0.5.0:0@16 main.0.4.1:-1@17 \
       main.0.2.3:-1@18 main.0.5.0:-1@21",
      "switches=36 forks=11 sleeps=18 completed=11 blocked=0 end_time=21us" );
    ( 56,
      "main:0@0 main:1@0 main:2@0 main.0:0@0 main.1:0@0 main:3@0 \
       main:-1@0 main.0:-1@0 main.3:0@0 main.3:1@0 main.3:2@3 \
       main.1:1@3 main.3:3@3 main.3:4@4 main.3:5@5 main.3:-1@5 \
       main.1:-1@6",
      "switches=12 forks=4 sleeps=4 completed=4 blocked=0 end_time=6us" );
    ( 58,
      "main:0@0 main:1@0 main:2@0 main:3@1 main.1:0@3 main.1:-1@3 \
       main.1.0:0@3 main:4@4 main:-1@4 main.4:0@4 main.4:1@4 \
       main.1.0:-1@4 main.0:0@5 main.0:1@5 main.0:-1@5 main.4.0:-1@5 \
       main.0.1:0@6 main.0.1:1@9 main.4:2@9 main.4:3@9 main.4:4@9 \
       main.4:5@9 main.4:-1@9 main.0.1:2@9 main.0.1:3@9 main.0.1:4@9 \
       main.0.1:5@9 main.0.1:-1@12 main.4.5:0@14 main.0.0:0@15 \
       main.0.0:1@15 main.4.3:0@19 main.4.3:1@19 main.4.5:1@19 \
       main.4.3:2@19 main.4.3:3@19 main.4.3:4@19 main.0.0:-1@20 \
       main.4.3:5@22 main.4.3:-1@23 main.4.5:2@24 main.4.5:3@24 \
       main.4.5:-1@25",
      "switches=39 forks=10 sleeps=21 completed=10 blocked=0 end_time=25us" );
    ( 59,
      "main:0@0 main:1@3 main:2@3 main:3@3 main.2:0@3 main.2:-1@3 \
       main:4@4 main:5@4 main:-1@4 main.4:0@4 main.4:1@4 main.4:2@4 \
       main.4:3@4 main.4.1:-1@4 main.4:4@5 main.4:5@5 main.4:-1@5 \
       main.5:0@5 main.5:1@5 main.5:-1@5 main.5.1:0@5 main.5.1:1@5 \
       main.5.1:2@5 main.5.1:3@6 main.4.2:0@6 main.1:0@6 main.1:1@6 \
       main.1:2@6 main.1.0:0@6 main.4.2:-1@6 main.1:3@6 main.5.1:-1@7 \
       main.4.5:0@8 main.4.5:1@8 main.4.5:2@8 main.4.5:3@8 \
       main.4.0:0@9 main.1.0:1@9 main.1.0:2@10 main.1.0:3@11 \
       main.1.1:-1@11 main.4.0:1@11 main.4.0:2@11 main.1:4@11 \
       main.1:5@11 main.1:-1@12 main.4.5:4@12 main.4.5:-1@12 \
       main.1.0:-1@14 main.1.4:0@14 main.4.4:0@15 main.4.4:1@15 \
       main.4.4:2@15 main.4.4:3@15 main.4.4:-1@15 main.5.0:0@15 \
       main.4.0:3@16 main.5.0:1@18 main.5.0:2@18 main.5.0:-1@18 \
       main.1.4:1@19 main.1.4:2@19 main.1.4:-1@19 main.4.0:4@21 \
       main.4.0:5@26 main.4.0:-1@29",
      "switches=55 forks=15 sleeps=26 completed=15 blocked=0 end_time=29us" );
    ( 60,
      "main:0@0 main:1@0 main:2@0 main.1:0@0 main.1:1@0 main.1:2@0 \
       main:3@0 main.1.1:0@0 main.1:3@0 main.1:4@0 main.1:-1@1 \
       main.1.1:1@1 main.1.1:2@1 main.0:0@3 main.0:1@3 main.0:-1@3 \
       main.0.1:-1@3 main:-1@3 main.1.0:0@3 main.1.3:0@3 \
       main.1.3:-1@4 main.1.1:3@6 main.1.0:1@6 main.1.0:2@6 \
       main.1.0:-1@9 main.1.1:-1@9",
      "switches=20 forks=7 sleeps=9 completed=7 blocked=0 end_time=9us" );
  ]

let render_log log =
  String.concat " "
    (List.map (fun (name, step, time) -> Printf.sprintf "%s:%d@%d" name step time) log)

let test_golden_programs () =
  List.iter
    (fun (seed, log, stats) ->
      let prog =
        QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) gen_program
      in
      let l, s = run_program expanded_call_at prog in
      let label = Printf.sprintf "seed %d" seed in
      Alcotest.(check string) (label ^ " log") log (render_log l);
      Alcotest.(check string) (label ^ " stats") stats
        (Format.asprintf "%a" Scheduler.pp_stats s))
    golden_programs

(* ------------------------------------------------------------------ *)
(* The read path: clock, fork and call_at without an effect           *)
(* ------------------------------------------------------------------ *)

let unhandled label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": returned outside a run")
  | exception Effect.Unhandled _ -> ()

let test_outside_run_unhandled () =
  unhandled "now" (fun () -> ignore (Scheduler.now ()));
  unhandled "fork" (fun () -> Scheduler.fork ignore);
  unhandled "call_at" (fun () -> Scheduler.call_at 5 ignore);
  unhandled "advance" (fun () -> Scheduler.advance 5);
  (* and again once a run has come and gone *)
  ignore (Scheduler.run ignore);
  unhandled "now after a run" (fun () -> ignore (Scheduler.now ()))

(* A run nested inside a thread has its own clock and queue; when it
   returns or raises, the outer thread reads the outer clock again and
   its forks land in the outer run. *)
let test_nested_run_restores () =
  let inner_clock = ref (-1) and after = ref [] and forked = ref [] in
  let note label = after := (label, Scheduler.now ()) :: !after in
  let stats =
    Scheduler.run ~start_time:1_000 (fun () ->
        Scheduler.sleep 5;
        let inner =
          Scheduler.run ~start_time:0 (fun () ->
              Scheduler.sleep 7;
              inner_clock := Scheduler.now ())
        in
        Alcotest.(check int) "inner end_time" 7 inner.Scheduler.end_time;
        note "returned";
        Scheduler.fork (fun () -> forked := "fork" :: !forked);
        (match
           Scheduler.run ~start_time:50 (fun () ->
               Scheduler.sleep 3;
               failwith "inner")
         with
        | _ -> Alcotest.fail "inner run did not raise"
        | exception Failure _ -> ());
        note "raised";
        Scheduler.call_at (Scheduler.now () + 10) (fun () ->
            forked := "call_at" :: !forked;
            note "call_at body");
        Scheduler.sleep 1;
        note "slept")
  in
  Alcotest.(check int) "inner clock" 7 !inner_clock;
  Alcotest.(check (list (pair string int)))
    "outer clock after each inner run"
    [ ("returned", 1_005); ("raised", 1_005); ("slept", 1_006); ("call_at body", 1_015) ]
    (List.rev !after);
  Alcotest.(check (list string)) "forks ran in the outer run"
    [ "fork"; "call_at" ] (List.rev !forked);
  Alcotest.(check int) "outer forks" 2 stats.Scheduler.forks;
  Alcotest.(check int) "outer end_time" 1_015 stats.Scheduler.end_time

(* Two domains, each running its own scheduler at once: every clock read
   sees only its own run's sleeps. *)
let test_two_domains_own_clocks () =
  let results =
    Fox_shard.Shard.run ~shards:2 (fun k ->
        let start = (k + 1) * 1_000_000 and step = k + 1 in
        let wrong = ref 0 in
        let stats =
          Scheduler.run ~start_time:start (fun () ->
              for i = 1 to 5_000 do
                Scheduler.sleep step;
                if Scheduler.now () <> start + (i * step) then incr wrong
              done)
        in
        (!wrong, stats.Scheduler.end_time))
  in
  Alcotest.(check (array (pair int int))) "per-domain clocks"
    [| (0, 1_005_000); (0, 2_010_000) |]
    results

(* New with the clock as a read: an [idle] hook runs inside the run,
   sees its clock and forks into it. *)
let test_idle_hook_reads_clock () =
  let seen = ref [] and resumer = ref None and forked = ref [] in
  let stats =
    Scheduler.run ~start_time:40
      ~idle:(fun _ ->
        let t = Scheduler.now () in
        seen := t :: !seen;
        Scheduler.fork (fun () -> forked := (t, Scheduler.now ()) :: !forked);
        Option.iter (fun r -> r ()) !resumer)
      (fun () ->
        Scheduler.advance 2;
        Scheduler.suspend (fun r -> resumer := Some r);
        Scheduler.advance 3;
        Scheduler.suspend (fun r -> resumer := Some r))
  in
  Alcotest.(check (list int)) "idle hook clock" [ 42; 45 ] (List.rev !seen);
  Alcotest.(check (list (pair int int))) "forked from the hook"
    [ (42, 42); (45, 45) ] (List.rev !forked);
  Alcotest.(check int) "forks" 3 stats.Scheduler.forks

(* [advance] is a write to the clock, and a sleeper already parked sees
   it: it is released, in due order, as soon as the run queue empties. *)
let test_advance_seen_by_parked () =
  let log = ref [] in
  let note label = log := (label, Scheduler.now ()) :: !log in
  let stats =
    Scheduler.run (fun () ->
        Scheduler.fork (fun () ->
            Scheduler.sleep 300;
            note "late");
        Scheduler.fork (fun () ->
            Scheduler.sleep 100;
            note "early");
        Scheduler.yield ();
        Scheduler.advance 500;
        note "advanced";
        Scheduler.yield ();
        note "after yield")
  in
  Alcotest.(check (list (pair string int)))
    "sleepers wake at the jumped clock"
    [ ("advanced", 500); ("after yield", 500); ("early", 500); ("late", 500) ]
    (List.rev !log);
  Alcotest.(check int) "end_time" 500 stats.Scheduler.end_time

(* ------------------------------------------------------------------ *)
(* Figure 11 timers (the paper exhibit): exact to the microsecond     *)
(* ------------------------------------------------------------------ *)

let test_timer_fires () =
  let fired_at = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        ignore (Fig11.start (fun () -> fired_at := Scheduler.now ()) 250))
  in
  Alcotest.(check int) "fired at 250us" 250 !fired_at

let test_timer_cleared () =
  let fired = ref false in
  let _ =
    Scheduler.run (fun () ->
        let t = Fig11.start (fun () -> fired := true) 250 in
        Scheduler.sleep 100;
        Fig11.clear t;
        Scheduler.sleep 500)
  in
  Alcotest.(check bool) "cleared timer silent" false !fired

let test_timer_clear_after_expiry_harmless () =
  let fired = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let t = Fig11.start (fun () -> incr fired) 10 in
        Scheduler.sleep 100;
        Fig11.clear t;
        Fig11.clear t)
  in
  Alcotest.(check int) "fired once" 1 !fired

let test_timer_clear_race_same_instant () =
  (* Clearing at exactly the expiry time: the sleeping thread wakes after the
     main thread (fork order), so the clear wins deterministically. *)
  let fired = ref false in
  let _ =
    Scheduler.run (fun () ->
        let t = Fig11.start (fun () -> fired := true) 100 in
        Scheduler.sleep 100;
        Fig11.clear t)
  in
  Alcotest.(check bool) "clear at expiry instant wins" false !fired

let timer_many =
  qtest "timer: n timers, k cleared, n-k fire"
    QCheck2.Gen.(list_size (int_range 0 30) (pair (int_bound 500) bool))
    (fun specs ->
      let fired = ref 0 in
      let expected =
        List.length (List.filter (fun (_, keep) -> keep) specs)
      in
      let _ =
        Scheduler.run (fun () ->
            let timers =
              List.map
                (fun (us, _) -> Fig11.start (fun () -> incr fired) (us + 1))
                specs
            in
            List.iter2
              (fun t (_, keep) -> if not keep then Fig11.clear t)
              timers specs;
            Scheduler.sleep 1000)
      in
      !fired = expected)

(* ------------------------------------------------------------------ *)
(* The timing wheel behind Timer                                      *)
(* ------------------------------------------------------------------ *)

let grain = Wheel.granularity_us

let stat name = List.assoc name (Wheel.stats ())

(* Fire times never precede the deadline and trail it by less than one
   grain, whatever the delays and the clock's phase within a grain. *)
let wheel_bounds =
  qtest "wheel: never early, under a grain late"
    QCheck2.Gen.(
      pair (int_bound 5_000)
        (list_size (int_range 1 40) (int_bound 3_000_000)))
    (fun (phase, delays) ->
      let ok = ref true and fired = ref 0 in
      let _ =
        Scheduler.run (fun () ->
            Scheduler.sleep phase;
            List.iter
              (fun us ->
                let deadline = Scheduler.now () + us in
                ignore
                  (Timer.start
                     (fun () ->
                       incr fired;
                       let late = Scheduler.now () - deadline in
                       if late < 0 || late > grain - 1 then ok := false)
                     us))
              delays)
      in
      !ok && !fired = List.length delays)

let test_wheel_cancel () =
  let before = ref false and after = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let t = Timer.start (fun () -> before := true) 50_000 in
        Scheduler.sleep 10_000;
        Timer.clear t;
        Alcotest.(check bool) "cleared" true (Timer.cleared t);
        let u = Timer.start (fun () -> incr after) 10_000 in
        Scheduler.sleep 100_000;
        Timer.clear u;
        Timer.clear u)
  in
  Alcotest.(check bool) "cancelled before its deadline: silent" false !before;
  Alcotest.(check int) "cancelled after firing: fired once" 1 !after

(* One timer per level: 2^8, 2^16 and 2^24 grains out sit on levels 1, 2
   and 3, and must cascade down to level 0 to fire on time. *)
let test_wheel_cascade () =
  Wheel.reset_stats ();
  let late = ref [] in
  let _ =
    Scheduler.run (fun () ->
        List.iter
          (fun ticks ->
            let us = (ticks * grain) + 17 in
            let deadline = Scheduler.now () + us in
            ignore
              (Timer.start
                 (fun () -> late := (Scheduler.now () - deadline) :: !late)
                 us))
          [ 1 lsl 8; 1 lsl 16; 1 lsl 24 ])
  in
  Alcotest.(check int) "all three fired" 3 (List.length !late);
  List.iter
    (fun l ->
      Alcotest.(check bool) "on time to the grain" true (l >= 0 && l < grain))
    !late;
  Alcotest.(check bool) "entries cascaded through the levels" true
    (stat "cascaded" >= 3)

let test_wheel_new_run_discards () =
  let stale = ref false and fresh = ref false in
  let _ =
    Scheduler.run (fun () ->
        ignore (Timer.start (fun () -> stale := true) 1_000_000);
        Scheduler.sleep 10_000;
        ignore (Scheduler.stop ()))
  in
  let _ =
    Scheduler.run (fun () ->
        ignore (Timer.start (fun () -> fresh := true) 2_000_000);
        Alcotest.(check int) "only this run's entry is pending" 1
          (Wheel.pending ()))
  in
  Alcotest.(check bool) "previous run's entry never fires" false !stale;
  Alcotest.(check bool) "this run's entry fires" true !fresh

let test_wheel_all_cancelled_terminates () =
  let fired = ref 0 in
  let stats =
    Scheduler.run (fun () ->
        let timers =
          List.init 100 (fun i -> Timer.start (fun () -> incr fired) (i * 50_000))
        in
        List.iter Timer.clear timers)
  in
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check int) "nothing pending" 0 (Wheel.pending ());
  Alcotest.(check bool) "the run ends by the first alarm" true
    (stats.Scheduler.end_time < grain)

(* A cancelled entry leaves the wheel at once: its handler is garbage
   long before the deadline it was armed for. *)
let[@inline never] arm_and_cancel weak =
  let hits = ref 0 in
  let handler () = incr hits in
  Weak.set weak 0 (Some handler);
  Timer.clear (Timer.start handler 10_000_000)

let test_wheel_cancel_frees_handler () =
  let weak = Weak.create 1 in
  let _ =
    Scheduler.run (fun () ->
        arm_and_cancel weak;
        Gc.full_major ();
        Alcotest.(check bool) "handler collected before its old deadline" false
          (Weak.check weak 0);
        Alcotest.(check int) "nothing pending" 0 (Wheel.pending ()))
  in
  ()

(* A timer armed in a run that stopped early is dropped when the next run
   arms again, and the same timer can be armed in that run: it fires once,
   on the new deadline. *)
let test_wheel_rearm_across_runs () =
  let fired = ref [] in
  let t = Timer.create (fun () -> fired := Scheduler.now () :: !fired) in
  let _ =
    Scheduler.run (fun () ->
        Timer.set t 1_000_000;
        Scheduler.sleep 10_000;
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check bool) "still armed when its run stopped" true (Timer.armed t);
  let _ =
    Scheduler.run (fun () ->
        Timer.set t 5_000;
        Alcotest.(check int) "one entry pending" 1 (Wheel.pending ()))
  in
  Alcotest.(check (list int)) "fired once, at the new deadline's tick"
    [ 5 * grain ] !fired;
  Alcotest.(check bool) "not armed after firing" false (Timer.armed t)

(* Re-arming in place fires exactly like a fresh [start] per restart: the
   last deadline set wins, a clear disarms, and firing order within a
   tick is arming order. *)
let test_wheel_set_replaces_deadline () =
  let log = ref [] in
  let note name () = log := (name, Scheduler.now ()) :: !log in
  let a = Timer.create (note "a") and b = Timer.create (note "b") in
  let c = Timer.create (note "c") in
  let _ =
    Scheduler.run (fun () ->
        Timer.set a 50_000;
        Timer.set b 3_000;
        Timer.set c 3_000;
        Timer.set a 2_500;
        Timer.set b 2_900;
        Timer.clear c;
        Scheduler.sleep 10_000;
        Timer.set c 1;
        Timer.set c 100_000)
  in
  Alcotest.(check (list (pair string int)))
    "a then b in the same tick, c only at its last deadline"
    [ ("a", 3 * grain); ("b", 3 * grain); ("c", 108 * grain) ]
    (List.rev !log)

(* Regression: an alarm superseded by an earlier insert used to advance
   the wheel and re-arm when it woke, so every superseded alarm started
   a chain of its own and alarms multiplied.  The load is TCP's: a timer
   restarted every millisecond at a later deadline (the retransmission
   timer), and every tenth millisecond a short one (a delayed ACK) that
   supersedes the armed alarm. *)
let test_wheel_no_alarm_storm () =
  Wheel.reset_stats ();
  let _ =
    Scheduler.run (fun () ->
        let rto = ref (Timer.start ignore 50_000) in
        for i = 1 to 1_000 do
          Timer.clear !rto;
          rto := Timer.start ignore 50_000;
          if i mod 10 = 0 then ignore (Timer.start ignore 5_000);
          Scheduler.sleep 1_000
        done)
  in
  let scheduled = stat "scheduled" and alarms = stat "alarms" in
  Alcotest.(check bool)
    (Printf.sprintf "%d alarms for %d timers" alarms scheduled)
    true (alarms < scheduled / 2)

(* ------------------------------------------------------------------ *)
(* Cond                                                               *)
(* ------------------------------------------------------------------ *)

let test_cond_signal_then_wait () =
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Cond.signal c 7;
        got := Cond.wait c)
  in
  Alcotest.(check int) "buffered value" 7 !got

let test_cond_wait_then_signal () =
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Scheduler.fork (fun () -> got := Cond.wait c);
        Scheduler.yield ();
        Alcotest.(check int) "one waiter" 1 (Cond.waiters c);
        Cond.signal c 9)
  in
  Alcotest.(check int) "delivered" 9 !got

let test_cond_fifo_delivery () =
  let order = ref [] in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        for i = 1 to 3 do
          Scheduler.fork (fun () ->
              let v = Cond.wait c in
              order := (i, v) :: !order)
        done;
        Scheduler.yield ();
        Cond.signal c "x";
        Cond.signal c "y";
        Cond.signal c "z")
  in
  Alcotest.(check (list (pair int string)))
    "first waiter gets first value"
    [ (1, "x"); (2, "y"); (3, "z") ]
    (List.rev !order)

let test_cond_broadcast () =
  let woke = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        for _ = 1 to 5 do
          Scheduler.fork (fun () ->
              ignore (Cond.wait c);
              incr woke)
        done;
        Scheduler.yield ();
        Cond.broadcast c ())
  in
  Alcotest.(check int) "all woke" 5 !woke

let test_cond_try_wait () =
  let _ =
    Scheduler.run (fun () ->
        let c = Cond.create () in
        Alcotest.(check (option int)) "empty" None (Cond.try_wait c);
        Cond.signal c 3;
        Alcotest.(check int) "pending" 1 (Cond.pending c);
        Alcotest.(check (option int)) "take" (Some 3) (Cond.try_wait c);
        Alcotest.(check (option int)) "empty again" None (Cond.try_wait c))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Cpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_cpu_serialises () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create counters in
  let done_at = ref [] in
  let stats =
    Scheduler.run (fun () ->
        for _ = 1 to 3 do
          Scheduler.fork (fun () ->
              Cpu.charge cpu "work" 100;
              done_at := Scheduler.now () :: !done_at)
        done)
  in
  Alcotest.(check (list int)) "serialised" [ 100; 200; 300 ] (List.rev !done_at);
  Alcotest.(check int) "end" 300 stats.end_time;
  Alcotest.(check (list (triple string int int)))
    "one counter: 300 us, 3 updates"
    [ ("work", 300, 3) ]
    (Counters.dump counters)

let test_cpu_scale () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create ~scale:2.0 counters in
  let stats = Scheduler.run (fun () -> Cpu.charge cpu "w" 50) in
  Alcotest.(check int) "scaled time" 100 stats.end_time;
  Alcotest.(check (list (triple string int int))) "scaled counter"
    [ ("w", 100, 1) ] (Counters.dump counters)

let test_cpu_async_overlaps () =
  let open Fox_basis in
  let counters = Counters.create () in
  let cpu = Cpu.create counters in
  let t = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        Cpu.charge_async cpu "dma" 500;
        t := Scheduler.now ();
        (* a later synchronous charge queues behind the async work *)
        Cpu.charge cpu "cpu" 10;
        Alcotest.(check int) "queued behind dma" 510 (Scheduler.now ()))
  in
  Alcotest.(check int) "async did not block" 0 !t

let () =
  Alcotest.run "fox_sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "run to completion" `Quick test_run_to_completion;
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "equal deadlines FIFO" `Quick
            test_clock_monotone_with_equal_deadlines;
          Alcotest.test_case "start time" `Quick test_virtual_clock_starts_at;
          Alcotest.test_case "exit_thread" `Quick test_exit_thread;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "blocked counted" `Quick test_blocked_counted;
          Alcotest.test_case "deterministic" `Quick test_deterministic_stats;
          sched_sleep_sum;
          sched_parallel_max;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "realtime sleep" `Quick
            test_realtime_sleep_takes_real_time;
          Alcotest.test_case "virtual sleep is free" `Quick
            test_virtual_sleep_takes_no_real_time;
          Alcotest.test_case "idle hook injects" `Quick test_idle_hook_injects_work;
          Alcotest.test_case "idle hook timeout arg" `Quick
            test_idle_hook_sees_time_to_next_timer;
        ] );
      ( "call_at",
        [
          call_at_matches_expansion;
          Alcotest.test_case "effects unhandled" `Quick
            test_call_at_effects_unhandled;
          Alcotest.test_case "stop discards" `Quick test_call_at_stop_discards;
          Alcotest.test_case "idle hook sees a pending body" `Quick
            test_call_at_idle_hook;
        ] );
      ( "read path",
        [
          Alcotest.test_case "outside a run" `Quick test_outside_run_unhandled;
          Alcotest.test_case "nested run restores" `Quick test_nested_run_restores;
          Alcotest.test_case "two domains" `Quick test_two_domains_own_clocks;
          Alcotest.test_case "idle hook reads clock" `Quick
            test_idle_hook_reads_clock;
          Alcotest.test_case "advance seen by parked" `Quick
            test_advance_seen_by_parked;
        ] );
      ( "golden",
        [ Alcotest.test_case "20 fixed programs" `Quick test_golden_programs ] );
      ( "timer",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cleared" `Quick test_timer_cleared;
          Alcotest.test_case "clear after expiry" `Quick
            test_timer_clear_after_expiry_harmless;
          Alcotest.test_case "clear at expiry instant" `Quick
            test_timer_clear_race_same_instant;
          timer_many;
        ] );
      ( "wheel",
        [
          wheel_bounds;
          Alcotest.test_case "cancel before and after fire" `Quick
            test_wheel_cancel;
          Alcotest.test_case "cascade through levels 1-3" `Quick
            test_wheel_cascade;
          Alcotest.test_case "new run discards old entries" `Quick
            test_wheel_new_run_discards;
          Alcotest.test_case "all cancelled terminates" `Quick
            test_wheel_all_cancelled_terminates;
          Alcotest.test_case "no alarm storm" `Quick test_wheel_no_alarm_storm;
          Alcotest.test_case "cancel frees the handler" `Quick
            test_wheel_cancel_frees_handler;
          Alcotest.test_case "re-arm across runs" `Quick
            test_wheel_rearm_across_runs;
          Alcotest.test_case "set replaces the deadline" `Quick
            test_wheel_set_replaces_deadline;
        ] );
      ( "cond",
        [
          Alcotest.test_case "signal then wait" `Quick test_cond_signal_then_wait;
          Alcotest.test_case "wait then signal" `Quick test_cond_wait_then_signal;
          Alcotest.test_case "fifo delivery" `Quick test_cond_fifo_delivery;
          Alcotest.test_case "broadcast" `Quick test_cond_broadcast;
          Alcotest.test_case "try_wait" `Quick test_cond_try_wait;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serialises" `Quick test_cpu_serialises;
          Alcotest.test_case "scale" `Quick test_cpu_scale;
          Alcotest.test_case "async overlaps" `Quick test_cpu_async_overlaps;
        ] );
    ]
