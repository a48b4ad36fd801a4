(* Tests of the chaos layer (lib/fox_check/chaos.ml) and the
   graceful-degradation machinery it exists to exercise.

   The themes:
   - chaos plans are deterministic orchestration: episodes fire at their
     virtual times, in order, without consulting the wire's rng — so the
     same plan replays bit-for-bit (fingerprint identity across runs);
   - the link chaos controls do what they claim at the frame level:
     down(hold) queues and replays, the blackhole eats only frames over
     its threshold, storms duplicate and corrupt on their own counters;
   - the engine defenses are load-bearing: the blackhole cell completes
     only with detection on (teeth), the siege is survived only with
     header deadlines on (teeth);
   - the socket read deadline and the HTTP 408/431 degradation responses
     are counted closes, not leaked exceptions;
   - the client retry helper backs off, recovers, and refuses
     non-idempotent methods;
   - the cross-shard mailbox sheds a duplicate storm as counted drops
     with no leaked packet buffers, and sharded soaks stay deterministic
     under an installed chaos plan. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Chaos = Fox_check.Chaos
module Soak = Fox_check.Soak
module Mailbox = Fox_shard.Mailbox
module Network = Fox_stack.Network
module Tcp = Fox_stack.Stack.Tcp
module Sock = Fox_stack.Stack.Tcp_socket
module Http = Fox_app.Http.Make (Sock)

(* ------------------------------------------------------------------ *)
(* Plans: ordering, the hold/replay flap, the clock jump              *)
(* ------------------------------------------------------------------ *)

let test_plan_fires_in_order () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let received = ref 0 in
  let after_jump = ref 0 in
  ignore
    (Scheduler.run (fun () ->
         (Link.port link 1).Link.set_receive (fun _ -> incr received);
         (* deliberately unsorted: install must order by [at_us] *)
         Chaos.install
           [
             { Chaos.at_us = 20_000; event = Chaos.Up };
             { Chaos.at_us = 40_000; event = Chaos.Clock_jump 500_000 };
             { Chaos.at_us = 10_000; event = Chaos.Down `Hold };
           ]
           link;
         Scheduler.fork (fun () ->
             Scheduler.sleep 12_000;
             Alcotest.(check bool) "down at t=12ms" false (Link.is_up link);
             (* two frames into the downed link: held, not delivered *)
             (Link.port link 0).Link.transmit (Packet.of_string "one");
             (Link.port link 0).Link.transmit (Packet.of_string "two");
             Scheduler.sleep 6_000;
             Alcotest.(check int) "nothing delivered while down" 0 !received;
             Scheduler.sleep 7_000;
             Alcotest.(check bool) "up again at t=25ms" true (Link.is_up link);
             (* sleep to t=45ms: the 500ms clock jump at t=40ms fires
                this timer along with everything else due inside it *)
             Scheduler.sleep 20_000;
             after_jump := Scheduler.now ())));
  Alcotest.(check int) "held frames replayed on bring_up" 2 !received;
  let s = Link.chaos_stats link in
  Alcotest.(check int) "replay counted" 2 s.Link.chaos_replayed;
  Alcotest.(check int) "nothing dropped by the hold-flap" 0
    s.Link.chaos_dropped;
  Alcotest.(check bool) "clock jumped over the sleeping timer"
    true (!after_jump >= 540_000)

let test_link_blackhole_threshold () =
  let link = Link.point_to_point Netem.perfect in
  let got = ref [] in
  ignore
    (Scheduler.run (fun () ->
         (Link.port link 1).Link.set_receive (fun p ->
             got := Packet.length p :: !got);
         Link.set_blackhole link 100;
         (Link.port link 0).Link.transmit
           (Packet.of_string (String.make 150 'B'));
         (Link.port link 0).Link.transmit
           (Packet.of_string (String.make 50 's'))));
  Alcotest.(check (list int)) "only the small frame survives" [ 50 ] !got;
  Alcotest.(check int) "the big one is a counted drop" 1
    (Link.chaos_stats link).Link.chaos_dropped

let test_link_storm_counters () =
  let link = Link.point_to_point Netem.perfect in
  let got = ref [] in
  let payload = String.make 64 'p' in
  ignore
    (Scheduler.run (fun () ->
         (Link.port link 1).Link.set_receive (fun p ->
             got := Packet.to_string p :: !got);
         Link.set_storm link ~dup_every:1 ();
         (Link.port link 0).Link.transmit (Packet.of_string payload);
         Scheduler.sleep 1_000;
         Link.set_storm link ~corrupt_every:1 ();
         (Link.port link 0).Link.transmit (Packet.of_string payload)));
  (match !got with
  | [ corrupted; dup2; dup1 ] ->
    Alcotest.(check string) "duplicate 1 intact" payload dup1;
    Alcotest.(check string) "duplicate 2 intact" payload dup2;
    Alcotest.(check bool) "corrupted frame differs" true (corrupted <> payload)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 frames, got %d" (List.length l)));
  let s = Link.chaos_stats link in
  Alcotest.(check int) "one duplicate counted" 1 s.Link.chaos_duplicated;
  Alcotest.(check int) "one corruption counted" 1 s.Link.chaos_corrupted

let test_ambient_plan_shape () =
  let plan = Chaos.ambient_plan ~span_us:1_000_000 in
  Alcotest.(check int) "five episodes" 5 (List.length plan);
  let times = List.map (fun e -> e.Chaos.at_us) plan in
  Alcotest.(check (list int)) "sorted within the span"
    (List.sort compare times) times;
  List.iter
    (fun t ->
      Alcotest.(check bool) "inside the span" true (t >= 0 && t <= 1_000_000))
    times

(* ------------------------------------------------------------------ *)
(* The matrix cells and their teeth                                   *)
(* ------------------------------------------------------------------ *)

let test_blackhole_guarded_completes () =
  let r = Chaos.run_cell ~quick:true ~cc:"reno" "mtu_blackhole" in
  Alcotest.(check bool) "transfer completes through the blackhole" true
    r.Chaos.complete;
  Alcotest.(check bool) "the detector actually fired" true
    (r.Chaos.blackhole_shrinks >= 1);
  Alcotest.(check (list string)) "invariants silent" []
    r.Chaos.invariant_faults;
  Alcotest.(check int) "no leaked buffers" 0 r.Chaos.leaked_packets

let test_blackhole_teeth_stall () =
  let r = Chaos.run_teeth_blackhole ~quick:true () in
  Alcotest.(check bool) "without detection the transfer must NOT complete"
    false r.Chaos.complete;
  Alcotest.(check bool) "dies by retransmission limit" true
    (r.Chaos.rtx_limit_aborts >= 1);
  Alcotest.(check int) "even the failure leaks nothing" 0
    r.Chaos.leaked_packets

let test_slowloris_guarded_serves_legit () =
  let r = Chaos.run_cell ~quick:true ~cc:"reno" "slowloris" in
  Alcotest.(check bool) "every legitimate client served" true r.Chaos.complete;
  Alcotest.(check bool) "the deadline defense fired (408s counted)" true
    (r.Chaos.responses_408 > 0);
  Alcotest.(check int) "no leaked buffers" 0 r.Chaos.leaked_packets

let test_slowloris_teeth_starve () =
  let r = Chaos.run_teeth_slowloris ~quick:true () in
  Alcotest.(check bool) "without deadlines the siege must win" false
    r.Chaos.complete;
  Alcotest.(check bool) "some legitimate clients starved" true
    (r.Chaos.delivered < r.Chaos.expected);
  Alcotest.(check int) "even the failure leaks nothing" 0
    r.Chaos.leaked_packets

let test_cell_fingerprint_replays () =
  let r1 = Chaos.run_cell ~quick:true ~cc:"reno" "dup_storm" in
  let r2 = Chaos.run_cell ~quick:true ~cc:"reno" "dup_storm" in
  Alcotest.(check string) "same seed, same cell, same fingerprint"
    (Chaos.fingerprint r1) (Chaos.fingerprint r2);
  Alcotest.(check bool) "the storm actually duplicated frames" true
    (r1.Chaos.chaos.Link.chaos_duplicated > 0)

(* The per-cell verdict [foxnet chaos] applies to whole and sliced runs:
   a guarded blackhole cell whose detector never fired fails it even
   though the transfer completed. *)
let test_verdict_needs_a_shrink () =
  let r = Chaos.run_cell ~quick:true ~cc:"reno" "mtu_blackhole" in
  Alcotest.(check (list string)) "the real cell passes" [] (Chaos.problems r);
  Alcotest.(check (list string)) "no shrink fails it"
    [ "mtu_blackhole/reno: blackhole detection never fired" ]
    (Chaos.problems { r with Chaos.blackhole_shrinks = 0 })

(* ------------------------------------------------------------------ *)
(* The socket read deadline                                           *)
(* ------------------------------------------------------------------ *)

let test_read_deadline_expires () =
  let _, server_host, client_host = Network.pair ~engine:Network.Fox () in
  let got_line = ref None in
  let expired = ref false in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Sock.listen (Network.fox_tcp server_host) { Tcp.local_port = 7 }
              (fun sock ->
                (* one prompt line, then silence — the peer's problem *)
                Sock.write_all sock "hello\r\n";
                Scheduler.sleep 2_000_000;
                Sock.close sock));
         let sock =
           Sock.connect
             (Network.fox_tcp client_host)
             { Tcp.peer = server_host.Network.addr; port = 7;
               local_port = None }
         in
         got_line := Sock.read_line sock;
         Sock.set_read_deadline sock (Some 100_000);
         (match Sock.read_line sock with
         | exception
             Fox_proto.Socket.Socket_error Fox_proto.Socket.Deadline_expired
           ->
           expired := true
         | _ -> ());
         Sock.abort sock;
         ignore (Scheduler.stop ())));
  Alcotest.(check (option string))
    "bytes already in flight are delivered" (Some "hello") !got_line;
  Alcotest.(check bool) "then the armed deadline fires" true !expired

(* ------------------------------------------------------------------ *)
(* HTTP degradation responses: counted closes, not leaked exceptions  *)
(* ------------------------------------------------------------------ *)

let site =
  Fox_app.Http.Site.of_pages [ ("/index.html", "text/html", "<h1>fox</h1>") ]

(* run [client] against a server with the given degradation knobs and
   return the server's stats *)
let with_server ?max_line ?header_timeout_us ?min_byte_rate client =
  let stats = Fox_app.Http.server_stats () in
  let _, server_host, client_host = Network.pair ~engine:Network.Fox () in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Sock.listen (Network.fox_tcp server_host) { Tcp.local_port = 80 }
              (Http.serve ?max_line ?header_timeout_us ?min_byte_rate ~stats
                 site));
         let connect () =
           Sock.connect
             (Network.fox_tcp client_host)
             { Tcp.peer = server_host.Network.addr; port = 80;
               local_port = None }
         in
         client connect;
         ignore (Scheduler.stop ())));
  stats

let test_431_counted_close () =
  let status = ref 0 in
  let stats =
    with_server ~max_line:64 (fun connect ->
        let sock = connect () in
        Sock.write_all sock
          ("GET /" ^ String.make 200 'a' ^ " HTTP/1.1\r\n\r\n");
        (match Http.read_response sock with
        | Some (s, _, _) -> status := s
        | None -> ());
        Sock.abort sock)
  in
  Alcotest.(check int) "431 delivered before the close" 431 !status;
  Alcotest.(check int) "counted" 1 stats.Fox_app.Http.responses_431;
  Alcotest.(check int) "not misfiled as a 400" 0
    stats.Fox_app.Http.bad_requests

let test_408_counted_close () =
  let status = ref 0 in
  let stats =
    with_server ~header_timeout_us:100_000 (fun connect ->
        let sock = connect () in
        (* a slow loris: half a request line, then nothing *)
        Sock.write_all sock "GET /inde";
        Scheduler.sleep 400_000;
        (match Http.read_response sock with
        | Some (s, _, _) -> status := s
        | None -> ());
        Sock.abort sock)
  in
  Alcotest.(check int) "408 delivered before the close" 408 !status;
  Alcotest.(check int) "counted" 1 stats.Fox_app.Http.responses_408

let test_fast_client_unaffected_by_deadline () =
  let status = ref 0 in
  let stats =
    with_server ~header_timeout_us:100_000 ~min_byte_rate:1_000
      (fun connect ->
        let sock = connect () in
        (match Http.get sock "/index.html" with
        | Some (s, _, body) ->
          status := s;
          Alcotest.(check string) "body intact" "<h1>fox</h1>" body
        | None -> ());
        Sock.close sock)
  in
  Alcotest.(check int) "served normally" 200 !status;
  Alcotest.(check int) "no 408" 0 stats.Fox_app.Http.responses_408;
  Alcotest.(check int) "one request counted" 1 stats.Fox_app.Http.requests

(* ------------------------------------------------------------------ *)
(* The retrying client                                                *)
(* ------------------------------------------------------------------ *)

let test_get_retry_recovers_from_refusals () =
  let tries = ref 0 in
  let status = ref 0 in
  let attempts_used = ref 0 in
  let t0 = ref 0 and t1 = ref 0 in
  ignore
    (with_server (fun connect ->
         let flaky_connect () =
           incr tries;
           if !tries <= 2 then
             raise (Fox_proto.Common.Connection_failed "injected refusal")
           else connect ()
         in
         t0 := Scheduler.now ();
         let r, k =
           Http.get_retry ~connect:flaky_connect ~attempts:3
             ~base_backoff_us:50_000 "/index.html"
         in
         t1 := Scheduler.now ();
         attempts_used := k;
         match r with Some (s, _, _) -> status := s | None -> ()));
  Alcotest.(check int) "served on the third attempt" 200 !status;
  Alcotest.(check int) "attempts reported" 3 !attempts_used;
  (* equal jitter: each backoff sleeps at least cap/2 — two failures
     sleep at least 25ms + 50ms of virtual time *)
  Alcotest.(check bool) "backoff actually waited" true (!t1 - !t0 >= 75_000)

let test_get_retry_gives_up () =
  let r = ref (Some (0, [], "")) in
  let attempts_used = ref 0 in
  ignore
    (with_server (fun _connect ->
         let never_connect () =
           raise (Fox_proto.Common.Connection_failed "always down")
         in
         let resp, k = Http.get_retry ~connect:never_connect ~attempts:3 "/" in
         r := resp;
         attempts_used := k));
  Alcotest.(check bool) "no response after exhausting retries" true (!r = None);
  Alcotest.(check int) "all attempts spent" 3 !attempts_used

let test_get_retry_refuses_post () =
  Alcotest.check_raises "non-idempotent methods are refused up front"
    (Invalid_argument "Http.get_retry: non-idempotent method POST")
    (fun () ->
      ignore
        (Http.get_retry ~connect:(fun () -> assert false) ~meth:"POST" "/"))

(* ------------------------------------------------------------------ *)
(* The cross-shard mailbox under a duplicate storm                    *)
(* ------------------------------------------------------------------ *)

let test_mailbox_sheds_dup_storm_without_leaks () =
  let live0 = Packet.live_packets () in
  let box = Mailbox.create ~capacity:4 in
  (* a dup_every=1 storm at the handoff: every frame arrives twice; the
     box takes the first four and refuses the rest, which the producer —
     still the owner, per the push contract — must release *)
  for i = 1 to 16 do
    let frame () = Packet.of_string (Printf.sprintf "frame-%02d" i) in
    List.iter
      (fun p -> if not (Mailbox.push box p) then Packet.release p)
      [ frame (); frame () ]
  done;
  Alcotest.(check int) "capacity accepted" 4 (Mailbox.pushed box);
  Alcotest.(check int) "the rest are counted drops" 28 (Mailbox.dropped box);
  let drained = Mailbox.drain box in
  Alcotest.(check int) "drain returns what was accepted" 4
    (List.length drained);
  List.iter Packet.release drained;
  Alcotest.(check int) "no packet buffers leaked" live0 (Packet.live_packets ())

let storm_soak shards =
  {
    Soak.default_config with
    Soak.conns = 40;
    bytes_per_conn = 512;
    flood_syns = 12;
    flood_bad_acks = 4;
    shards;
    chaos =
      [
        {
          Chaos.at_us = 5_000;
          event = Chaos.Storm { dup_every = 3; corrupt_every = 11 };
        };
      ];
  }

let test_soak_chaos_storm_deterministic () =
  let r1 = Soak.run (storm_soak 1) in
  let r2 = Soak.run (storm_soak 1) in
  Alcotest.(check string) "chaos soak replays bit-for-bit"
    r1.Soak.fingerprint r2.Soak.fingerprint;
  Alcotest.(check int) "every connection delivered through the storm" 40
    r1.Soak.completed;
  Alcotest.(check (list string)) "invariants silent" []
    r1.Soak.invariant_faults;
  Alcotest.(check int) "no leaked buffers" 0 r1.Soak.leaked_packets

let test_soak_chaos_storm_two_domains () =
  let r = Soak.run (storm_soak 2) in
  Alcotest.(check int) "both shards' connections delivered" 40
    r.Soak.completed;
  Alcotest.(check (list string)) "invariants silent on both domains" []
    r.Soak.invariant_faults;
  Alcotest.(check int) "no leaked buffers" 0 r.Soak.leaked_packets

let () =
  Alcotest.run "chaos"
    [
      ( "plans",
        [
          Alcotest.test_case "episodes fire in order" `Quick
            test_plan_fires_in_order;
          Alcotest.test_case "blackhole threshold" `Quick
            test_link_blackhole_threshold;
          Alcotest.test_case "storm counters" `Quick test_link_storm_counters;
          Alcotest.test_case "ambient plan shape" `Quick
            test_ambient_plan_shape;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "blackhole guarded completes" `Quick
            test_blackhole_guarded_completes;
          Alcotest.test_case "blackhole teeth stall" `Quick
            test_blackhole_teeth_stall;
          Alcotest.test_case "slowloris guarded serves" `Quick
            test_slowloris_guarded_serves_legit;
          Alcotest.test_case "slowloris teeth starve" `Quick
            test_slowloris_teeth_starve;
          Alcotest.test_case "cell fingerprint replays" `Quick
            test_cell_fingerprint_replays;
          Alcotest.test_case "verdict needs a shrink" `Quick
            test_verdict_needs_a_shrink;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "socket read deadline" `Quick
            test_read_deadline_expires;
          Alcotest.test_case "431 counted close" `Quick test_431_counted_close;
          Alcotest.test_case "408 counted close" `Quick test_408_counted_close;
          Alcotest.test_case "fast client unaffected" `Quick
            test_fast_client_unaffected_by_deadline;
        ] );
      ( "retry",
        [
          Alcotest.test_case "recovers from refusals" `Quick
            test_get_retry_recovers_from_refusals;
          Alcotest.test_case "gives up after attempts" `Quick
            test_get_retry_gives_up;
          Alcotest.test_case "refuses POST" `Quick test_get_retry_refuses_post;
        ] );
      ( "shards",
        [
          Alcotest.test_case "mailbox sheds dup storm" `Quick
            test_mailbox_sheds_dup_storm_without_leaks;
          Alcotest.test_case "chaos soak deterministic" `Quick
            test_soak_chaos_storm_deterministic;
          Alcotest.test_case "chaos soak on two domains" `Slow
            test_soak_chaos_storm_two_domains;
        ] );
    ]
