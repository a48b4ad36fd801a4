(* Self-time arithmetic of the benchmark's spans, on a fake clock that
   advances only when a test says so. *)

module Scheduler = Fox_sched.Scheduler

let fake = ref 0
let work n = fake := !fake + n

let fresh () =
  Span.clock := (fun () -> !fake);
  Span.on := true;
  Span.reset ()

let self h l = Span.self_ns.(Span.slot_of h l)
let span l h f = Span.span l h (-1) f ()

let nested () =
  fresh ();
  span Span.app 0 (fun () ->
      work 10;
      span Span.tcp 0 (fun () ->
          work 5;
          span Span.ip 0 (fun () -> work 3);
          work 1);
      work 2);
  ignore (Span.finish ());
  Alcotest.(check int) "app" 12 (self 0 Span.app);
  Alcotest.(check int) "tcp" 6 (self 0 Span.tcp);
  Alcotest.(check int) "ip" 3 (self 0 Span.ip);
  Alcotest.(check int) "sched" 0 !Span.sched_ns;
  let one =
    { Span.nested_parent_ns = 1.; nested_self_ns = 1.; root_parent_ns = 1.;
      root_self_ns = 1.; effect_self_ns = 1.; effect_sched_ns = 1. }
  in
  let t = Span.totals one in
  Alcotest.(check (float 1e-9)) "app less probes" 10. t.Span.self.(Span.slot_of 0 Span.app);
  Alcotest.(check (float 1e-9)) "tcp less probes" 4. t.Span.self.(Span.slot_of 0 Span.tcp);
  Alcotest.(check (float 1e-9)) "ip less probes" 2. t.Span.self.(Span.slot_of 0 Span.ip);
  Alcotest.(check (float 1e-9)) "probe total" 5. t.Span.probe;
  Alcotest.(check int) "no effect, no hop" 0 t.Span.hops;
  Alcotest.(check int) "raw sum covers the wall" 21 t.Span.raw_sum

(* A span that blocks must not absorb what runs while it waits: neither
   another thread's unspanned work (the scheduler's share) nor its
   spans, which are roots of their own. *)
let blocking suspend () =
  fresh ();
  ignore
    (Scheduler.run (fun () ->
         Scheduler.fork (fun () ->
             work 3;
             span Span.eth 1 (fun () -> work 7));
         span Span.app 0 (fun () ->
             work 2;
             span Span.tcp 0 (fun () ->
                 work 1;
                 suspend ();
                 work 4);
             work 1)));
  ignore (Span.finish ());
  Alcotest.(check int) "app" 3 (self 0 Span.app);
  Alcotest.(check int) "tcp, blocked" 5 (self 0 Span.tcp);
  Alcotest.(check int) "eth, while tcp waits" 7 (self 1 Span.eth);
  Alcotest.(check int) "sched" 3 !Span.sched_ns;
  Alcotest.(check int) "eth is a root" 1 Span.roots.(Span.slot_of 1 Span.eth);
  let logged = !Span.logged in
  Alcotest.(check int) "spans logged" 3 logged;
  (* the one effect below the root span is tcp's; its hop comes off tcp
     and off the scheduler, and nothing else pays for it *)
  Alcotest.(check int) "tcp's effect" 1 Span.effects.(Span.slot_of 0 Span.tcp);
  let hop =
    { Span.nested_parent_ns = 0.; nested_self_ns = 0.; root_parent_ns = 0.;
      root_self_ns = 0.; effect_self_ns = 1.; effect_sched_ns = 2. }
  in
  let t = Span.totals hop in
  Alcotest.(check (float 1e-9)) "tcp less its hop" 4. t.Span.self.(Span.slot_of 0 Span.tcp);
  Alcotest.(check (float 1e-9)) "app keeps its time" 3. t.Span.self.(Span.slot_of 0 Span.app);
  Alcotest.(check (float 1e-9)) "sched less the hop" 1. t.Span.sched;
  Alcotest.(check (float 1e-9)) "hop cost" 3. t.Span.hop;
  Alcotest.(check int) "hops" 1 t.Span.hops

let raising () =
  fresh ();
  (try span Span.app 0 (fun () -> work 2; span Span.tcp 0 (fun () -> work 3; failwith "x"))
   with Failure _ -> ());
  work 4;
  ignore (Span.finish ());
  Alcotest.(check int) "app" 2 (self 0 Span.app);
  Alcotest.(check int) "tcp" 3 (self 0 Span.tcp);
  Alcotest.(check int) "sched after the raise" 4 !Span.sched_ns

let () =
  Alcotest.run "span"
    [
      ( "self time",
        [
          Alcotest.test_case "nested spans" `Quick nested;
          Alcotest.test_case "span blocked on yield" `Quick (blocking Scheduler.yield);
          Alcotest.test_case "span blocked on sleep" `Quick
            (blocking (fun () -> Scheduler.sleep 10));
          Alcotest.test_case "span left by an exception" `Quick raising;
        ] );
    ]
