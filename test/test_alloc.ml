(* Allocation gate.

   Each test counts words over a fixed, deterministic workload — minor
   words allocated ([Gc.minor_words] deltas), words promoted to the major
   heap, or words a connection keeps reachable — and bounds them at
   the value measured when the gate was set plus a stated margin (see
   CHANGES.md).  A bound may only go down. *)

module Scheduler = Fox_sched.Scheduler
module Timer = Fox_sched.Timer
module Wheel = Fox_sched.Wheel
module Network = Fox_stack.Network
module Experiments = Fox_stack.Experiments
module Load = Fox_check.Load
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Ipv4_addr = Fox_ip.Ipv4_addr
module Tcb = Fox_tcp.Tcb
module Tcp_header = Fox_tcp.Tcp_header
module Action = Fox_tcp.Action
module Stack = Fox_stack.Stack
module Route = Fox_ip.Route
module Mac = Fox_eth.Mac
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
   run-queue thunk per switch (the handler's answer to a yield is built
   once per run). *)
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
  check_bound "words per switch" ~measured:7.0 ~bound:9.0
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

(* The basis the per-segment path draws on: a netem draw, the
   pseudo-header sum TCP takes twice per segment and the header field
   accessors work on immediate ints, with no box in between. *)
let zero_words label f =
  f 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    f i
  done;
  check_bound label ~measured:0. ~bound:0. (Gc.minor_words () -. w0)

let test_rng_draws () =
  let rng = Fox_basis.Rng.create 7 in
  zero_words "10 000 Rng.bool and Rng.int draws" (fun i ->
      ignore (Sys.opaque_identity (Fox_basis.Rng.bool rng 0.5));
      ignore (Sys.opaque_identity (Fox_basis.Rng.int rng (i + 1))))

let test_pseudo_header () =
  zero_words "10 000 pseudo-header sums" (fun i ->
      ignore
        (Sys.opaque_identity
           (Fox_basis.Checksum.pseudo_ipv4 ~src:(0x0A000000 + i) ~dst:0x0A000002
              ~proto:6 ~len:(20 + (i land 1023)))))

let test_wire_round_trips () =
  let b = Bytes.make 16 '\000' in
  zero_words "10 000 Wire set/get round trips" (fun i ->
      Fox_basis.Wire.set_u8 b 0 i;
      Fox_basis.Wire.set_u16 b 2 i;
      Fox_basis.Wire.set_u32 b 4 (i * 65599);
      ignore
        (Sys.opaque_identity
           (Fox_basis.Wire.get_u8 b 0 + Fox_basis.Wire.get_u16 b 2
          + Fox_basis.Wire.get_u32 b 4)))

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
  check_bound "words per segment" ~measured:180.5 ~bound:197.0
    (words /. float_of_int segments)

(* RSTs over [Metered_ip]: a host without TCP sends bare ACKs to a
   closed port of a structured engine, which answers each with an RST
   from outside any connection.  Words per RST of the whole exchange,
   both hosts and the wire, after one warm-up exchange has resolved ARP
   and built the peer's stages. *)
let test_rst () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let route = Route.local ~network:(Ipv4_addr.of_string "10.0.0.0") ~prefix:24 in
  let host engine i =
    Network.create_host ~engine link i
      ~mac:(Mac.of_string (Printf.sprintf "02:00:00:00:00:0%d" (i + 1)))
      ~addr:(Ipv4_addr.of_string (Printf.sprintf "10.0.0.%d" (i + 1)))
      ~route
  in
  let peer = host Network.Bare 0 and engine = host Network.Fox 1 in
  let n = 2_000 in
  let words = ref nan in
  ignore
    (Scheduler.run (fun () ->
         let lconn =
           Stack.Ip.connect peer.Network.ip
             (Stack.Ip_aux.lower_address ~proto:6 engine.Network.addr)
             (fun _ -> (Fox_basis.Packet.release, ignore))
         in
         let send = Stack.Ip.prepare_send lconn in
         let ack i =
           Action.externalize
             ~pseudo_for:(fun len -> Stack.Ip_aux.pseudo lconn ~proto:6 ~len)
             ~hdr:
               { (Tcp_header.basic ~src_port:4000 ~dst_port:81) with
                 Tcp_header.ack_flag = true;
                 ack = Fox_tcp.Seq.of_int i;
               }
             ~data:None
             ~allocate:(fun len ->
               Fox_basis.Packet.create
                 ~headroom:(24 + Stack.Ip.headroom lconn)
                 ~tailroom:(Stack.Ip.tailroom lconn) len)
             ~send ();
           Scheduler.sleep 1_000
         in
         ack 0;
         let w0 = Gc.minor_words () in
         for i = 1 to n do
           ack i
         done;
         words := Gc.minor_words () -. w0));
  Alcotest.(check int) "one RST per ACK" (n + 1)
    (Stack.Tcp.stats (Network.fox_tcp engine)).Fox_tcp.Tcp.rsts_sent;
  check_bound "words per RST" ~measured:148.0 ~bound:175.0
    (!words /. float_of_int n)

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

(* What one more ESTABLISHED connection's TCB keeps reachable: the words
   two quiescent TCBs (nothing on [to_do], nothing queued or in flight)
   reach together, less what the first reaches alone.  A TCB alone also
   reaches what every TCB shares — the congestion module's block, the
   placeholders filling empty ring cells, the engine's challenge cap —
   which is not a per-connection cost. *)
let quiet (tcb : Tcb.tcp_tcb) =
  tcb.Tcb.to_do_len = 0
  && tcb.Tcb.queued_bytes = 0
  && Tcb.flight_size tcb = 0
  && tcb.Tcb.bytes_in > 0
  && tcb.Tcb.bytes_out > 0

let second_tcb_words () =
  let first = ref None and words = ref None in
  Check_hook.install (fun info ->
      match (info.Check_hook.after, !first) with
      | Tcb.Estab tcb, _
        when !words = None && (not info.Check_hook.dead)
             && info.Check_hook.pending = [] && quiet tcb -> (
        match !first with
        | None -> first := Some tcb
        | Some a when a != tcb && quiet a ->
          words :=
            Some
              (Obj.reachable_words (Obj.repr (a, tcb))
              - Obj.reachable_words (Obj.repr a))
        | Some _ -> ())
      | _ -> ());
  let r =
    Fun.protect ~finally:Check_hook.uninstall (fun () ->
        Load.run { Load.default_config with Load.conns = 2; requests = 2 })
  in
  Alcotest.(check int) "every request answered" r.Load.requests_attempted
    r.Load.requests_ok;
  match !words with
  | Some w -> float_of_int w
  | None -> Alcotest.fail "no two quiescent ESTABLISHED connections"

(* A [Load]-shaped serving world: [clients] HTTP clients opened 100 µs
   apart on [Load]'s stack, one GET each and then an active close, so
   every client side parks in TIME-WAIT for [Load]'s 1 s.  [on_parked]
   gets the engines' reachable words once every client has closed and
   before the first 2·MSL ends; the result is the same count after the
   run, when every 2·MSL has expired.  With [hold], no client closes:
   each keeps its keep-alive connection open and idle, and [on_parked]
   reads the engines with every connection ESTABLISHED. *)
let serve_world ?(on_parked = ignore) ?(hold = false) ~clients () =
  let link = Link.hub ~ports:2 { Netem.gigabit with Netem.queue_frames = 4096 } in
  let client_ip = Load.make_host link 0 ~addr:(Ipv4_addr.of_string "10.2.0.1") in
  let server_ip = Load.make_host link 1 ~addr:(Ipv4_addr.of_string "10.2.0.2") in
  let server = Load.Tcp.create server_ip in
  let client = Load.Tcp.create client_ip in
  let engines = Obj.repr (server, client) in
  let site =
    Fox_app.Http.Site.of_pages
      [ ("/payload", "application/octet-stream", String.make 1024 'x') ]
  in
  let answered = ref 0 and parked = ref (-1) in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Load.Sock.listen server { Load.Tcp.local_port = Load.http_port }
              (Load.Http.serve site));
         for i = 0 to clients - 1 do
           Scheduler.fork (fun () ->
               Scheduler.sleep (i * 100);
               let sock =
                 Load.Sock.connect client
                   { Load.Tcp.peer = Ipv4_addr.of_string "10.2.0.2";
                     port = Load.http_port; local_port = None }
               in
               (match Load.Http.get sock "/payload" with
               | Some (200, _, _) -> incr answered
               | _ -> ());
               if not hold then Load.Sock.close sock)
         done;
         Scheduler.fork (fun () ->
             Scheduler.sleep ((clients * 100) + 200_000);
             parked := (Load.Tcp.stats client).Fox_tcp.Tcp.active_conns;
             on_parked (Obj.reachable_words engines))));
  Alcotest.(check int) "every client answered" clients !answered;
  Alcotest.(check int)
    (if hold then "every client still open" else "every client parked in TIME-WAIT")
    clients !parked;
  Obj.reachable_words engines

(* Once every 2·MSL has expired, the engines hold nothing for the
   connections they served.  The reference is the same world after one
   connection, which has set up everything an engine builds once (the
   listener, the IP session and its staged send).  Before the fix, the
   TIME-WAIT queue kept every connection the client closed first: 200
   clients left the engines at 55 153 words against 2 465. *)
let test_time_wait_expiry_frees () =
  let warm = serve_world ~clients:1 () in
  let served = serve_world ~clients:200 () in
  check_bound "engine words after 200 expired TIME-WAITs"
    ~measured:(float_of_int warm) ~bound:(1.05 *. float_of_int warm)
    (float_of_int served)

let test_tcb_established () =
  check_bound "words of one more ESTABLISHED TCB" ~measured:105. ~bound:110.
    (second_tcb_words ())

(* What a connection parked in TIME-WAIT costs the engines: their
   reachable words with 200 clients parked, less those of the same world
   after one connection has come and gone, per parked client.  This is
   the tombstone, its table slot, its 2·MSL timer and the status upcall
   it keeps.  The full connection, before tombstones, read 272. *)
let test_time_wait_parked () =
  let warm = serve_world ~clients:1 () in
  let parked = ref 0 in
  ignore (serve_world ~clients:200 ~on_parked:(fun w -> parked := w) ());
  check_bound "engine words per parked TIME-WAIT connection" ~measured:57.0
    ~bound:60. (float_of_int (!parked - warm) /. 200.)

(* What an idle keep-alive connection costs the engines: their reachable
   words with 200 clients holding an open connection after one GET, less
   those of the same world with one client, per client.  Both ends count:
   the client's connection and the server's. *)
let test_idle_keep_alive () =
  let idle clients =
    let words = ref 0 in
    ignore (serve_world ~hold:true ~clients ~on_parked:(fun w -> words := w) ());
    !words
  in
  let one = idle 1 in
  check_bound "engine words per idle keep-alive client" ~measured:411.6
    ~bound:415. (float_of_int (idle 200 - one) /. 199.)

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
          Alcotest.test_case "words per RST over Metered_ip" `Quick test_rst;
        ] );
      ( "basis",
        [
          Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_draws;
          Alcotest.test_case "pseudo-header sum allocates nothing" `Quick
            test_pseudo_header;
          Alcotest.test_case "wire round trips allocate nothing" `Quick
            test_wire_round_trips;
        ] );
      ( "serve",
        [
          Alcotest.test_case "promoted words per request" `Quick
            test_rpc_promoted;
          Alcotest.test_case "ESTABLISHED TCB words" `Quick
            test_tcb_established;
          Alcotest.test_case "TIME-WAIT words per parked connection" `Quick
            test_time_wait_parked;
          Alcotest.test_case "expired TIME-WAITs leave nothing" `Quick
            test_time_wait_expiry_frees;
          Alcotest.test_case "idle keep-alive words per client" `Quick
            test_idle_keep_alive;
        ] );
    ]
