(* Flight-recorder tests: the Bus rings and registries, the Histogram,
   a named Meter in a live composition, and the
   observability smoke — bus on, 1 MB over the simulated wire, event
   counts checked against what the transfer actually did.

   The bus is process-global, so every test that turns it on goes
   through [with_bus], which restores off-and-empty however the test
   exits. *)

module Bus = Fox_obs.Bus
module Histogram = Fox_obs.Histogram
module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Experiments = Fox_stack.Experiments
module Tcb = Fox_tcp.Tcb
module Check_hook = Fox_tcp.Check_hook

let with_bus ?capacity ?per_conn f =
  Bus.reset ();
  Bus.enable ?capacity ?per_conn ();
  Fun.protect f ~finally:(fun () ->
      Bus.disable ();
      Bus.reset ())

(* ------------------------------------------------------------------ *)
(* Bus unit behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_bus_off_records_nothing () =
  Bus.disable ();
  Bus.reset ();
  Alcotest.(check bool) "off" false !Bus.live;
  Bus.emit ~layer:"x" (Bus.Note "invisible");
  Alcotest.(check int) "nothing emitted" 0 (Bus.emitted ());
  Alcotest.(check int) "ring empty" 0 (List.length (Bus.events ()))

let test_bus_ring_wraparound () =
  with_bus ~capacity:4 (fun () ->
      for i = 0 to 5 do
        Bus.emit ~time:i ~layer:"t" (Bus.Note (string_of_int i))
      done;
      Alcotest.(check int) "all counted" 6 (Bus.emitted ());
      Alcotest.(check int) "overflow counted" 2 (Bus.dropped ());
      let notes =
        List.map
          (function { Bus.kind = Bus.Note n; _ } -> n | _ -> "?")
          (Bus.events ())
      in
      Alcotest.(check (list string)) "oldest evicted, order kept"
        [ "2"; "3"; "4"; "5" ] notes;
      Bus.reset ();
      Alcotest.(check int) "reset clears count" 0 (Bus.emitted ());
      Alcotest.(check int) "reset clears dropped" 0 (Bus.dropped ()))

let test_bus_conn_rings () =
  with_bus ~capacity:16 ~per_conn:2 (fun () ->
      Bus.emit ~time:1 ~layer:"t" ~conn:"b" (Bus.Note "1");
      Bus.emit ~time:2 ~layer:"t" ~conn:"a" (Bus.Note "2");
      Bus.emit ~time:3 ~layer:"t" (Bus.Note "global only");
      Bus.emit ~time:4 ~layer:"tcp" ~conn:"a"
        (Bus.Send { bytes = 512; flags = "A" });
      Bus.emit ~time:5 ~layer:"ip0" ~conn:"a" (Bus.Deliver { bytes = 40 });
      Alcotest.(check (list string)) "conn ids sorted" [ "a"; "b" ]
        (Bus.conn_ids ());
      Alcotest.(check (list string)) "a keeps the newest two, oldest first"
        [ "[       4 us] tcp send 512B [A]"; "[       5 us] ip0 deliver 40B" ]
        (Bus.dump_conn "a");
      Alcotest.(check int) "b's ring has its event" 1
        (List.length (Bus.dump_conn "b"));
      Alcotest.(check (list string)) "unknown conn has no ring" []
        (Bus.dump_conn "zz");
      Alcotest.(check int) "global ring saw everything" 5
        (List.length (Bus.events ())))

let test_bus_stats_registry () =
  let calls = ref 0 in
  Bus.register_stats ~id:"b" (fun () ->
      incr calls;
      "beta");
  Bus.register_stats ~id:"a" (fun () ->
      incr calls;
      "alpha");
  Fun.protect
    ~finally:(fun () ->
      Bus.unregister_stats ~id:"a";
      Bus.unregister_stats ~id:"b")
    (fun () ->
      Alcotest.(check int) "providers are lazy" 0 !calls;
      Alcotest.(check (list (pair string string))) "sorted snapshots"
        [ ("a", "alpha"); ("b", "beta") ]
        (Bus.stats_snapshots ());
      Bus.unregister_stats ~id:"a";
      Alcotest.(check (list (pair string string))) "unregistered"
        [ ("b", "beta") ]
        (Bus.stats_snapshots ()))

let test_histogram () =
  let h = Histogram.create ~name:"h" () in
  List.iter (Histogram.add h) [ 1; 2; 3; 1000 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check int) "sum" 1006 (Histogram.sum h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 1000 (Histogram.max_value h);
  Alcotest.(check (float 0.01)) "mean" 251.5 (Histogram.mean h);
  (* power-of-two buckets: 1 | 2,3 | 1000 *)
  Alcotest.(check (list (pair int int))) "buckets"
    [ (1, 1); (3, 2); (1023, 1) ]
    (Histogram.buckets h);
  Alcotest.(check int) "p50 bound" 3 (Histogram.percentile h 0.5);
  Alcotest.(check int) "p100 bound" 1023 (Histogram.percentile h 1.0);
  Alcotest.(check bool) "renders" true (String.length (Histogram.to_string h) > 0);
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* A named meter + bus in a live composition                          *)
(* ------------------------------------------------------------------ *)

(* Every tcp-layer event in the global ring, oldest first.  The tests
   that read a whole run enable the bus with [~capacity:max_int], so
   nothing is dropped. *)
let tcp_events () =
  Alcotest.(check int) "global ring dropped nothing" 0 (Bus.dropped ());
  List.filter (fun e -> e.Bus.layer = "tcp") (Bus.events ())

(* The paper's determinism claim, applied to the recorder: given the
   [to_do] order, the event stream is a function of the run.  Record
   every executed TCP action through [Check_hook] and every bus event
   in the global ring, then check that each connection's sequence of
   send/deliver events is exactly the sequence of send/deliver actions
   the executor drained — same events, same order. *)
let test_event_order_matches_executor () =
  let bus_seq = ref [] (* (conn, 'S'|'D') oldest first *) in
  let exec_seq = ref [] in
  with_bus ~capacity:max_int (fun () ->
      Check_hook.install (fun info ->
          let id = info.Check_hook.tcb.Tcb.obs_id in
          match info.Check_hook.action with
          | Tcb.Send_segment _ | Tcb.Send_ack -> exec_seq := (id, 'S') :: !exec_seq
          | Tcb.User_data _ -> exec_seq := (id, 'D') :: !exec_seq
          | _ -> ());
      Fun.protect ~finally:Check_hook.uninstall (fun () ->
          let _, sender, receiver = Network.pair ~engine:Network.Fox () in
          ignore
            (Experiments.Fox_run.transfer ~sender ~receiver ~bytes:20_000 ()));
      bus_seq :=
        List.filter_map
          (fun e ->
            match e.Bus.kind with
            | Bus.Send _ | Bus.Retransmit _ -> Some (e.Bus.conn, 'S')
            | Bus.Deliver _ -> Some (e.Bus.conn, 'D')
            | _ -> None)
          (tcp_events ()));
  let per_conn seq =
    List.fold_left
      (fun acc (conn, c) ->
        let prev = try List.assoc conn acc with Not_found -> "" in
        (conn, prev ^ String.make 1 c) :: List.remove_assoc conn acc)
      [] seq
    |> List.sort compare
  in
  let bus = per_conn !bus_seq and exec = per_conn (List.rev !exec_seq) in
  Alcotest.(check int) "two connections observed" 2 (List.length bus);
  Alcotest.(check (list (pair string string)))
    "bus events mirror executed actions, in order" exec bus;
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "saw sends" true (String.contains s 'S'))
    bus

(* The CI smoke from the issue: bus on, 1 MB transfer, event counts add
   up.  Delivery events must account for every payload byte (receiver
   side) plus the 8-byte request (sender side); send events for at least
   one segment per MSS of payload. *)
let test_observability_smoke () =
  let sends = ref 0 in
  let delivered = ref 0 in
  let result = ref None in
  with_bus ~capacity:max_int (fun () ->
      let _, sender, receiver = Network.pair ~engine:Network.Fox () in
      result :=
        Some
          (Experiments.Fox_run.transfer ~sender ~receiver ~bytes:1_000_000 ());
      Alcotest.(check bool) "bus recorded the run" true (Bus.emitted () > 0);
      Alcotest.(check bool) "meter histograms fed" true
        (match List.assoc_opt "ip0.send_bytes" (Bus.histograms ()) with
        | Some h -> Histogram.count h > 0
        | None -> false);
      (* only the two named IP meters register; the ARP meters pass
         no name and stay silent *)
      Alcotest.(check (list string)) "registry: the six ip histograms"
        [
          "ip0.recv_bytes"; "ip0.send_bytes"; "ip0.send_span_us";
          "ip1.recv_bytes"; "ip1.send_bytes"; "ip1.send_span_us";
        ]
        (List.map fst (Bus.histograms ()));
      List.iter
        (fun e ->
          match e.Bus.kind with
          | Bus.Send _ | Bus.Retransmit _ -> incr sends
          | Bus.Deliver { bytes } -> delivered := !delivered + bytes
          | _ -> ())
        (tcp_events ()));
  let r = Option.get !result in
  Alcotest.(check int) "payload + 8-byte request delivered" 1_000_008 !delivered;
  let segments =
    r.Experiments.sender_segments + r.Experiments.receiver_segments
  in
  Alcotest.(check bool) "a send event per segment" true (!sends >= segments);
  (* and once the recorder is off again, emission sites go quiet *)
  Bus.emit ~layer:"tcp" (Bus.Send { bytes = 1; flags = "" });
  Alcotest.(check int) "disabled bus is silent" 0 (Bus.emitted ())

let () =
  Alcotest.run "fox_obs"
    [
      ( "bus",
        [
          Alcotest.test_case "off records nothing" `Quick
            test_bus_off_records_nothing;
          Alcotest.test_case "ring wraparound" `Quick test_bus_ring_wraparound;
          Alcotest.test_case "per-conn rings" `Quick test_bus_conn_rings;
          Alcotest.test_case "stats registry" `Quick test_bus_stats_registry;
        ] );
      ("histogram", [ Alcotest.test_case "buckets" `Quick test_histogram ]);
      ( "stack",
        [
          Alcotest.test_case "event order = executor order" `Quick
            test_event_order_matches_executor;
          Alcotest.test_case "1 MB smoke" `Quick test_observability_smoke;
        ] );
    ]
