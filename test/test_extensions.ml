(* Tests for the extension features: CML-style channels, the blocking
   socket veneer, the priority to_do queue, and the window-size functor
   instantiations. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Channel = Fox_sched.Channel
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Tcp_socket = Fox_stack.Stack.Tcp_socket
module Socket = Fox_proto.Socket

(* ------------------------------------------------------------------ *)
(* Channels                                                           *)
(* ------------------------------------------------------------------ *)

let test_channel_rendezvous () =
  let got = ref 0 in
  let sender_resumed_at = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        let ch = Channel.create () in
        Scheduler.fork (fun () ->
            Channel.send ch 42;
            sender_resumed_at := Scheduler.now ());
        Scheduler.sleep 100;
        got := Channel.recv ch)
  in
  Alcotest.(check int) "value" 42 !got;
  Alcotest.(check int) "sender blocked until rendezvous" 100 !sender_resumed_at

let test_channel_receiver_blocks () =
  let order = ref [] in
  let _ =
    Scheduler.run (fun () ->
        let ch = Channel.create () in
        Scheduler.fork (fun () ->
            order := `Recv_start :: !order;
            let v = Channel.recv ch in
            order := `Got v :: !order);
        Scheduler.sleep 50;
        order := `Send :: !order;
        Channel.send ch 7)
  in
  Alcotest.(check bool) "sequence" true
    (List.rev !order = [ `Recv_start; `Send; `Got 7 ])

let test_channel_fifo_pairing () =
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        let ch = Channel.create () in
        for i = 1 to 3 do
          Scheduler.fork (fun () -> Channel.send ch i)
        done;
        Scheduler.sleep 10;
        Alcotest.(check int) "three waiting" 3 (Channel.waiting_senders ch);
        for _ = 1 to 3 do
          got := Channel.recv ch :: !got
        done)
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_channel_try_ops () =
  let _ =
    Scheduler.run (fun () ->
        let ch = Channel.create () in
        Alcotest.(check bool) "try_send with no receiver" false
          (Channel.try_send ch 1);
        Alcotest.(check (option int)) "try_recv with no sender" None
          (Channel.try_recv ch);
        Scheduler.fork (fun () -> Channel.send ch 9);
        Scheduler.sleep 10;
        Alcotest.(check (option int)) "try_recv with sender" (Some 9)
          (Channel.try_recv ch))
  in
  ()

let test_channel_select () =
  let winner = ref (-1, -1) in
  let _ =
    Scheduler.run (fun () ->
        let a = Channel.create () and b = Channel.create () in
        Scheduler.fork (fun () ->
            Scheduler.sleep 100;
            Channel.send b 55);
        winner := Channel.select [ a; b ])
  in
  Alcotest.(check (pair int int)) "second channel won" (1, 55) !winner

let test_channel_select_ready_first () =
  let winner = ref (-1, -1) in
  let _ =
    Scheduler.run (fun () ->
        let a = Channel.create () and b = Channel.create () in
        Scheduler.fork (fun () -> Channel.send b 1);
        Scheduler.fork (fun () -> Channel.send a 2);
        Scheduler.sleep 10;
        (* both ready: the earliest channel in the list wins *)
        winner := Channel.select [ a; b ])
  in
  Alcotest.(check (pair int int)) "list order tie-break" (0, 2) !winner

let test_channel_pipeline () =
  (* a 3-stage pipeline: numbers -> squares -> sum *)
  let total = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let nums = Channel.create () and squares = Channel.create () in
        Scheduler.fork (fun () ->
            for i = 1 to 10 do
              Channel.send nums i
            done);
        Scheduler.fork (fun () ->
            for _ = 1 to 10 do
              let n = Channel.recv nums in
              Channel.send squares (n * n)
            done);
        for _ = 1 to 10 do
          total := !total + Channel.recv squares
        done)
  in
  Alcotest.(check int) "sum of squares" 385 !total

(* ------------------------------------------------------------------ *)
(* Sockets                                                            *)
(* ------------------------------------------------------------------ *)

let socket_pair () = Network.pair ~engine:Network.Fox ()

let test_socket_echo () =
  let _, a, b = socket_pair () in
  let reply = ref None in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_socket.listen (Network.fox_tcp b) { Stack.Tcp.local_port = 7 }
             (fun sock ->
               (* a pull-style server: read, echo, until EOF *)
               let rec loop () =
                 match Tcp_socket.recv_string sock with
                 | Some s ->
                   Tcp_socket.send_string sock ("echo:" ^ s);
                   loop ()
                 | None -> Tcp_socket.close sock
               in
               loop ()));
        let sock =
          Tcp_socket.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = b.Network.addr; port = 7; local_port = None }
        in
        Tcp_socket.send_string sock "hello";
        reply := Tcp_socket.recv_string sock;
        Tcp_socket.close sock)
  in
  Alcotest.(check (option string)) "echoed" (Some "echo:hello") !reply

let test_socket_eof () =
  let _, a, b = socket_pair () in
  let stream = ref [] and finished = ref false in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_socket.listen (Network.fox_tcp b) { Stack.Tcp.local_port = 7 }
             (fun sock ->
               let rec loop () =
                 match Tcp_socket.recv_string sock with
                 | Some s ->
                   stream := s :: !stream;
                   loop ()
                 | None ->
                   finished := true;
                   Tcp_socket.close sock
               in
               loop ()));
        let sock =
          Tcp_socket.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = b.Network.addr; port = 7; local_port = None }
        in
        Tcp_socket.send_string sock "one";
        Scheduler.sleep 50_000;
        Tcp_socket.send_string sock "two";
        Scheduler.sleep 50_000;
        Tcp_socket.close sock;
        Scheduler.sleep 500_000)
  in
  Alcotest.(check (list string)) "both messages" [ "one"; "two" ]
    (List.rev !stream);
  Alcotest.(check bool) "eof observed" true !finished

let test_socket_recv_exactly () =
  let _, a, b = socket_pair () in
  let first = ref None and second = ref None in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_socket.listen (Network.fox_tcp b) { Stack.Tcp.local_port = 7 }
             (fun sock ->
               (* length-prefixed framing over the byte stream *)
               first := Tcp_socket.recv_exactly sock 4;
               second := Tcp_socket.recv_exactly sock 6));
        let sock =
          Tcp_socket.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = b.Network.addr; port = 7; local_port = None }
        in
        (* sent as one write; the reader refragments it *)
        Tcp_socket.send_string sock "abcdefghij";
        Scheduler.sleep 200_000)
  in
  Alcotest.(check (option string)) "first frame" (Some "abcd") !first;
  Alcotest.(check (option string)) "second frame" (Some "efghij") !second

let test_socket_reset_raises () =
  let _, a, b = socket_pair () in
  let outcome = ref `Nothing in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_socket.listen (Network.fox_tcp b) { Stack.Tcp.local_port = 7 }
             (fun sock ->
               (try
                  match Tcp_socket.recv_string sock with
                  | Some _ -> ignore (Tcp_socket.recv_string sock)
                  | None -> outcome := `Eof
                with Socket.Socket_error e -> outcome := `Error e)));
        let sock =
          Tcp_socket.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = b.Network.addr; port = 7; local_port = None }
        in
        Tcp_socket.send_string sock "then die";
        Scheduler.sleep 100_000;
        Tcp_socket.abort sock;
        Scheduler.sleep 200_000)
  in
  Alcotest.(check bool) "reader saw the reset" true
    (!outcome = `Error Socket.Reset)

let test_socket_bulk_stream () =
  let _, a, b = socket_pair () in
  let payload = String.init 100_000 (fun i -> Char.chr (i * 11 land 0xff)) in
  let got = Buffer.create 1024 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_socket.listen (Network.fox_tcp b) { Stack.Tcp.local_port = 7 }
             (fun sock ->
               let rec loop () =
                 match Tcp_socket.recv_string sock with
                 | Some s ->
                   Buffer.add_string got s;
                   loop ()
                 | None -> ()
               in
               loop ()));
        let sock =
          Tcp_socket.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = b.Network.addr; port = 7; local_port = None }
        in
        let chunk = 1460 in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min chunk (String.length payload - !off) in
          Tcp_socket.send_string sock (String.sub payload !off n);
          off := !off + n
        done;
        Tcp_socket.close sock;
        Scheduler.sleep 2_000_000)
  in
  Alcotest.(check bool) "stream intact" true (Buffer.contents got = payload)

(* ------------------------------------------------------------------ *)
(* Priority to_do queue                                               *)
(* ------------------------------------------------------------------ *)

let test_priority_queue_ordering () =
  let open Fox_tcp in
  let params = { Tcb.default_params with prioritize_latency = true } in
  let tcb = Tcb.create_tcb params ~iss:Seq.zero in
  Tcb.add_to_do tcb (Tcb.User_data (Packet.of_string "x"));
  Tcb.add_to_do tcb Tcb.Send_ack;
  Tcb.add_to_do tcb Tcb.Complete_close;
  Alcotest.(check (list string)) "wire-bound first"
    [ "send-ack"; "user-data"; "complete-close" ]
    (List.map Tcb.action_name (Tcb.pending_actions tcb));
  (* FIFO within bands *)
  let tcb2 = Tcb.create_tcb params ~iss:Seq.zero in
  Tcb.add_to_do tcb2 Tcb.Send_ack;
  Tcb.add_to_do tcb2 Tcb.Complete_open;
  Tcb.add_to_do tcb2 Tcb.Send_ack;
  Alcotest.(check (list string)) "band fifo"
    [ "send-ack"; "send-ack"; "complete-open" ]
    (List.map Tcb.action_name (Tcb.pending_actions tcb2))

let test_priority_queue_disabled_is_fifo () =
  let open Fox_tcp in
  let tcb = Tcb.create_tcb Tcb.default_params ~iss:Seq.zero in
  Tcb.add_to_do tcb Tcb.Complete_close;
  Tcb.add_to_do tcb Tcb.Send_ack;
  Tcb.add_to_do tcb Tcb.Complete_close;
  Alcotest.(check (list string)) "plain fifo"
    [ "complete-close"; "send-ack"; "complete-close" ]
    (List.map Tcb.action_name (Tcb.pending_actions tcb))

(* The paper's suggested scheduler refinement as its own engine: a
   priority to_do queue that lets wire-bound actions overtake local
   deliveries. *)
module Tcp_prioritized =
  Fox_tcp.Tcp.Make (Stack.Metered_ip) (Stack.Metered_ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = { Fox_tcp.Tcb.default_params with prioritize_latency = true }
    end)

let test_prioritized_tcp_end_to_end () =
  (* the prioritized engine must still deliver correct streams *)
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = Tcp_prioritized.create a.Network.metered_ip in
  let tb = Tcp_prioritized.create b.Network.metered_ip in
  let payload = String.init 50_000 (fun i -> Char.chr (i * 3 land 0xff)) in
  let got = Buffer.create 1024 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_prioritized.start_passive tb
             { Tcp_prioritized.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string got (Packet.to_string p)), ignore)));
        let conn =
          Tcp_prioritized.connect ta
            { Tcp_prioritized.peer = b.Network.addr; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Tcp_prioritized.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Tcp_prioritized.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Tcp_prioritized.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 2_000_000)
  in
  Alcotest.(check bool) "prioritized stream intact" true
    (Buffer.contents got = payload)

(* ------------------------------------------------------------------ *)
(* Keepalive                                                          *)
(* ------------------------------------------------------------------ *)

module Tcp_ka =
  Fox_tcp.Tcp.Make (Stack.Metered_ip) (Stack.Metered_ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params =
        {
          Fox_tcp.Tcb.default_params with
          keepalive_us = 500_000;
          keepalive_probes = 3;
        }
    end)

let test_keepalive_probe_unit () =
  let open Fox_tcp in
  let params =
    { Tcb.default_params with keepalive_us = 1000; keepalive_probes = 2 }
  in
  let tcb = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 100) ~mss:1000 in
  tcb.Tcb.snd_una <- Seq.of_int 101;
  tcb.Tcb.snd_nxt <- Seq.of_int 101;
  tcb.Tcb.rcv_nxt <- Seq.of_int 501;
  tcb.Tcb.last_activity <- 0;
  (* idle past the interval: probe with snd_nxt - 1 and re-arm *)
  let state = State.timer_expired params (Tcb.Estab tcb) Tcb.Keepalive ~now:2000 in
  Alcotest.(check string) "still estab" "ESTABLISHED" (Tcb.state_name state);
  (match Tcb.pending_actions tcb with
  | [ Tcb.Send_segment ss; Tcb.Set_timer (Tcb.Keepalive, _) ] ->
    Alcotest.(check int) "probe sequence is snd_nxt-1" 100
      (Seq.to_int ss.Fox_tcp.Tcb.out_seq);
    Alcotest.(check bool) "carries ack, no data" true
      (ss.Fox_tcp.Tcb.out_ack && ss.Fox_tcp.Tcb.out_data = None)
  | actions ->
    Alcotest.failf "unexpected: %s"
      (String.concat "," (List.map Tcb.action_name actions)));
  (* drain, then exhaust the probe budget *)
  let rec drain () = match Tcb.next_to_do tcb with Some _ -> drain () | None -> () in
  drain ();
  let state = State.timer_expired params state Tcb.Keepalive ~now:4000 in
  drain ();
  let state = State.timer_expired params state Tcb.Keepalive ~now:6000 in
  Alcotest.(check string) "gave up after budget" "CLOSED" (Tcb.state_name state)

let test_keepalive_recent_activity_rearms_quietly () =
  let open Fox_tcp in
  let params =
    { Tcb.default_params with keepalive_us = 1000; keepalive_probes = 2 }
  in
  let tcb = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 100) ~mss:1000 in
  tcb.Tcb.last_activity <- 1900;
  let state = State.timer_expired params (Tcb.Estab tcb) Tcb.Keepalive ~now:2000 in
  Alcotest.(check string) "alive" "ESTABLISHED" (Tcb.state_name state);
  Alcotest.(check (list string)) "only a re-arm" [ "set-timer:keepalive" ]
    (List.map Tcb.action_name (Tcb.pending_actions tcb))

let test_keepalive_detects_dead_peer () =
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = Tcp_ka.create a.Network.metered_ip in
  let tb = Tcp_ka.create b.Network.metered_ip in
  let client_status = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_ka.start_passive tb { Tcp_ka.local_port = 80 }
             (fun _ -> (ignore, ignore)));
        let conn =
          Tcp_ka.connect ta
            { Tcp_ka.peer = b.Network.addr; port = 80; local_port = None }
            (fun _ -> (ignore, fun s -> client_status := s :: !client_status))
        in
        ignore conn;
        (* the peer silently vanishes *)
        Scheduler.sleep 100_000;
        Fox_dev.Device.down b.Network.dev;
        Scheduler.sleep 10_000_000)
  in
  Alcotest.(check bool) "keepalive detected the dead peer" true
    (List.mem Fox_proto.Status.Timed_out !client_status)

let test_keepalive_counts_unanswered_probes () =
  let open Fox_tcp in
  let params =
    { Tcb.default_params with keepalive_us = 1000; keepalive_probes = 3 }
  in
  let tcb = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 100) ~mss:1000 in
  tcb.Tcb.snd_una <- Seq.of_int 101;
  tcb.Tcb.snd_nxt <- Seq.of_int 101;
  tcb.Tcb.rcv_nxt <- Seq.of_int 501;
  tcb.Tcb.last_activity <- 0;
  let drain () =
    let rec go () = match Tcb.next_to_do tcb with Some _ -> go () | None -> () in
    go ()
  in
  let state = ref (Tcb.Estab tcb) in
  (* each unanswered expiry sends one probe and counts it *)
  for i = 1 to 3 do
    state := State.timer_expired params !state Tcb.Keepalive ~now:(2000 * i);
    drain ();
    Alcotest.(check int)
      (Printf.sprintf "probe %d counted" i)
      i tcb.Tcb.probes_sent;
    Alcotest.(check string) "still alive within budget" "ESTABLISHED"
      (Tcb.state_name !state)
  done;
  (* the budget is exhausted: the next expiry gives up *)
  state := State.timer_expired params !state Tcb.Keepalive ~now:8000;
  Alcotest.(check string) "budget exhausted kills the connection" "CLOSED"
    (Tcb.state_name !state);
  (* whereas an answer in between resets the count: a fresh tcb probed
     once, then activity, probes again from one *)
  let tcb2 = Tcb.create_tcb_with_mss params ~iss:(Seq.of_int 100) ~mss:1000 in
  tcb2.Tcb.rcv_nxt <- Seq.of_int 501;
  tcb2.Tcb.last_activity <- 0;
  ignore (State.timer_expired params (Tcb.Estab tcb2) Tcb.Keepalive ~now:2000);
  Alcotest.(check int) "one probe out" 1 tcb2.Tcb.probes_sent;
  (* the engine resets the counter on every received segment *)
  tcb2.Tcb.probes_sent <- 0;
  tcb2.Tcb.last_activity <- 2500;
  ignore (State.timer_expired params (Tcb.Estab tcb2) Tcb.Keepalive ~now:3000);
  Alcotest.(check int) "answered probe restarts the budget" 0
    tcb2.Tcb.probes_sent

(* RFC 1122 keepalive probing every 30 s of idleness, with the default
   budget of 5 probes, end-to-end: a silently-vanished peer is
   detected. *)
module Tcp_keepalive =
  Fox_tcp.Tcp.Make (Stack.Metered_ip) (Stack.Metered_ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = { Fox_tcp.Tcb.default_params with keepalive_us = 30_000_000 }
    end)

let test_stack_keepalive_detects_dead_peer () =
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = Tcp_keepalive.create a.Network.metered_ip in
  let tb = Tcp_keepalive.create b.Network.metered_ip in
  let client_status = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_keepalive.start_passive tb
             { Tcp_keepalive.local_port = 80 } (fun _ ->
               (ignore, ignore)));
        ignore
          (Tcp_keepalive.connect ta
             { Tcp_keepalive.peer = b.Network.addr;
               port = 80;
               local_port = None }
             (fun _ -> (ignore, fun s -> client_status := s :: !client_status)));
        Scheduler.sleep 1_000_000;
        Fox_dev.Device.down b.Network.dev;
        (* 30 s idle + 5 unanswered probes at 30 s each, plus slack *)
        Scheduler.sleep 400_000_000)
  in
  Alcotest.(check bool) "30 s keepalive detected the dead peer" true
    (List.mem Fox_proto.Status.Timed_out !client_status)

let test_keepalive_live_peer_survives () =
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = Tcp_ka.create a.Network.metered_ip in
  let tb = Tcp_ka.create b.Network.metered_ip in
  let client_status = ref [] in
  let state = ref "?" in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_ka.start_passive tb { Tcp_ka.local_port = 80 }
             (fun _ -> (ignore, ignore)));
        let conn =
          Tcp_ka.connect ta
            { Tcp_ka.peer = b.Network.addr; port = 80; local_port = None }
            (fun _ -> (ignore, fun s -> client_status := s :: !client_status))
        in
        (* idle across many keepalive intervals with a live peer *)
        Scheduler.sleep 5_000_000;
        state := Tcp_ka.state_of conn;
        (* keepalives re-arm forever on a live connection: end explicitly *)
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check string) "still established" "ESTABLISHED" !state;
  Alcotest.(check bool) "no timeout" true
    (not (List.mem Fox_proto.Status.Timed_out !client_status))

(* ------------------------------------------------------------------ *)
(* Window-size instantiations                                         *)
(* ------------------------------------------------------------------ *)

(* The window is a functor parameter (Figure 4): a 1 KB window is its
   own application. *)
module Tcp_w1024 =
  Fox_tcp.Tcp.Make (Stack.Metered_ip) (Stack.Metered_ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = { Fox_tcp.Tcb.default_params with initial_window = 1024 }
    end)

let test_small_window_works_and_paces () =
  let _, a, b = Network.pair ~engine:Network.Bare () in
  let ta = Tcp_w1024.create a.Network.metered_ip in
  let tb = Tcp_w1024.create b.Network.metered_ip in
  let payload = String.make 20_000 'w' in
  let got = Buffer.create 1024 in
  let max_flight = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_w1024.start_passive tb { Tcp_w1024.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string got (Packet.to_string p)), ignore)));
        let conn =
          Tcp_w1024.connect ta
            { Tcp_w1024.peer = b.Network.addr; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        Scheduler.fork (fun () ->
            (* sample the sender's window occupancy while transferring *)
            for _ = 1 to 200 do
              let s = Tcp_w1024.conn_stats conn in
              max_flight := max !max_flight s.Fox_tcp.Tcp.snd_wnd;
              Scheduler.sleep 1_000
            done);
        let mss = Tcp_w1024.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Tcp_w1024.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Tcp_w1024.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 2_000_000)
  in
  Alcotest.(check bool) "intact" true (Buffer.contents got = payload);
  Alcotest.(check bool) "peer advertised the small window" true
    (!max_flight <= 1024)

(* ------------------------------------------------------------------ *)
(* End-to-end properties                                              *)
(* ------------------------------------------------------------------ *)

let socket_stream_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10
       ~name:"socket: random writes over an adverse wire reassemble exactly"
       QCheck2.Gen.(
         pair nat (list_size (int_range 1 12) (string_size (int_range 0 3000))))
       (fun (seed, chunks) ->
         let netem =
           Fox_dev.Netem.adverse ~loss:0.03 ~reorder:0.1 ~seed
             Fox_dev.Netem.ethernet_10mbps
         in
         let _, a, b = Network.pair ~engine:Network.Fox ~netem () in
         let got = Buffer.create 256 in
         let eof = ref false in
         let _ =
           Scheduler.run (fun () ->
               ignore
                 (Tcp_socket.listen (Network.fox_tcp b)
                    { Stack.Tcp.local_port = 7 }
                    (fun sock ->
                      let rec loop () =
                        match Tcp_socket.recv_string sock with
                        | Some s ->
                          Buffer.add_string got s;
                          loop ()
                        | None -> eof := true
                      in
                      loop ()));
               let sock =
                 Tcp_socket.connect (Network.fox_tcp a)
                   { Stack.Tcp.peer = b.Network.addr; port = 7;
                     local_port = None }
               in
               List.iter (Tcp_socket.send_string sock) chunks;
               Tcp_socket.close sock;
               Scheduler.sleep 200_000_000)
         in
         !eof && Buffer.contents got = String.concat "" chunks))

let channel_conservation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"channel: N producers M consumers conserve the multiset"
       QCheck2.Gen.(pair (int_range 1 5) (int_range 1 5))
       (fun (producers, consumers) ->
         let per_producer = 12 in
         let total = producers * per_producer in
         (* distribute receives over consumers *)
         let base = total / consumers and extra = total mod consumers in
         let received = ref [] in
         let _ =
           Scheduler.run (fun () ->
               let ch = Channel.create () in
               for p = 0 to producers - 1 do
                 Scheduler.fork (fun () ->
                     for i = 1 to per_producer do
                       Channel.send ch ((p * 1000) + i)
                     done)
               done;
               for c = 0 to consumers - 1 do
                 let n = base + if c < extra then 1 else 0 in
                 Scheduler.fork (fun () ->
                     for _ = 1 to n do
                       (* bind before consing: [recv] blocks, and [!received]
                          must be read after it returns *)
                       let v = Channel.recv ch in
                       received := v :: !received
                     done)
               done)
         in
         let expected =
           List.concat_map
             (fun p -> List.init per_producer (fun i -> (p * 1000) + i + 1))
             (List.init producers Fun.id)
         in
         List.sort compare !received = List.sort compare expected))

let () =
  Alcotest.run "fox_extensions"
    [
      ( "channel",
        [
          Alcotest.test_case "rendezvous" `Quick test_channel_rendezvous;
          Alcotest.test_case "receiver blocks" `Quick test_channel_receiver_blocks;
          Alcotest.test_case "fifo pairing" `Quick test_channel_fifo_pairing;
          Alcotest.test_case "try ops" `Quick test_channel_try_ops;
          Alcotest.test_case "select" `Quick test_channel_select;
          Alcotest.test_case "select ready-first" `Quick
            test_channel_select_ready_first;
          Alcotest.test_case "pipeline" `Quick test_channel_pipeline;
        ] );
      ( "socket",
        [
          Alcotest.test_case "echo" `Quick test_socket_echo;
          Alcotest.test_case "eof" `Quick test_socket_eof;
          Alcotest.test_case "recv_exactly" `Quick test_socket_recv_exactly;
          Alcotest.test_case "reset raises" `Quick test_socket_reset_raises;
          Alcotest.test_case "bulk stream" `Quick test_socket_bulk_stream;
        ] );
      ( "priority",
        [
          Alcotest.test_case "ordering" `Quick test_priority_queue_ordering;
          Alcotest.test_case "disabled = fifo" `Quick
            test_priority_queue_disabled_is_fifo;
          Alcotest.test_case "end-to-end" `Quick test_prioritized_tcp_end_to_end;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "probe + budget (unit)" `Quick
            test_keepalive_probe_unit;
          Alcotest.test_case "recent activity re-arms" `Quick
            test_keepalive_recent_activity_rearms_quietly;
          Alcotest.test_case "unanswered probes counted" `Quick
            test_keepalive_counts_unanswered_probes;
          Alcotest.test_case "detects dead peer" `Quick
            test_keepalive_detects_dead_peer;
          Alcotest.test_case "stack instantiation detects dead peer" `Quick
            test_stack_keepalive_detects_dead_peer;
          Alcotest.test_case "live peer survives" `Quick
            test_keepalive_live_peer_survives;
        ] );
      ( "windows",
        [
          Alcotest.test_case "w=1024" `Quick test_small_window_works_and_paces;
        ] );
      ("properties", [ socket_stream_property; channel_conservation ]);
    ]
