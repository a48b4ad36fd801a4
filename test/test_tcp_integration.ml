(* Whole-stack TCP tests: two hosts with Device -> Eth -> Arp -> Ip -> Tcp
   compositions talking over the simulated Ethernet, including adverse
   links (loss, duplication, reordering, corruption), the close and reset
   paths, and the paper's non-standard TCP-directly-over-Ethernet stack. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route
module Status = Fox_proto.Status

module Eth = Fox_eth.Eth.Standard
module Arp = Fox_arp.Arp.Make (Eth)
module Ip = Fox_ip.Ip.Make (Arp) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

(* Test-friendly parameters: immediate ACKs off is the default behaviour we
   want to exercise, short TIME-WAIT to keep virtual clocks small. *)
module Tcp_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      time_wait_us = 1_000_000;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
    }
end

module Tcp = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Tcp_params)

type host = {
  dev : Device.t;
  eth : Eth.t;
  arp : Arp.t;
  ip : Ip.t;
  tcp : Tcp.t;
}

let ip_of = Ipv4_addr.of_string

let mac_of = Mac.of_string

let make_host link index ~mac ~addr =
  let dev = Device.create (Link.port link index) in
  let eth = Eth.create dev ~mac in
  let arp = Arp.create eth ~local_ip:addr () in
  let ip =
    Ip.create arp
      {
        Ip.local_ip = addr;
        route = Route.local ~network:(ip_of "10.0.0.0") ~prefix:24;
        lower_address = Fun.id;
        lower_pattern = ();
      }
  in
  let tcp = Tcp.create ip in
  { dev; eth; arp; ip; tcp }

let two_hosts ?(netem = Netem.ethernet_10mbps) () =
  let link = Link.point_to_point netem in
  let a = make_host link 0 ~mac:(mac_of "02:00:00:00:00:01") ~addr:(ip_of "10.0.0.1") in
  let b = make_host link 1 ~mac:(mac_of "02:00:00:00:00:02") ~addr:(ip_of "10.0.0.2") in
  (link, a, b)

(* Collect everything a peer receives into a buffer, recording statuses. *)
let sink () =
  let buf = Buffer.create 1024 and statuses = ref [] in
  let handler _conn =
    ( (fun packet -> Buffer.add_string buf (Packet.to_string packet)),
      fun status -> statuses := status :: !statuses )
  in
  (buf, statuses, handler)

let send_string conn s =
  let p = Tcp.allocate_send conn (String.length s) in
  Packet.blit_from_string s 0 p 0 (String.length s);
  Tcp.send conn p

(* ------------------------------------------------------------------ *)
(* Handshake and basic transfer                                       *)
(* ------------------------------------------------------------------ *)

let test_handshake_and_hello () =
  let _, a, b = two_hosts () in
  let buf, statuses, handler = sink () in
  let client_statuses = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, fun s -> client_statuses := s :: !client_statuses))
        in
        Alcotest.(check string) "client established" "ESTABLISHED"
          (Tcp.state_of conn);
        send_string conn "hello, fox";
        Scheduler.sleep 500_000)
  in
  Alcotest.(check string) "payload" "hello, fox" (Buffer.contents buf);
  Alcotest.(check bool) "server connected" true
    (List.mem Status.Connected !statuses);
  Alcotest.(check bool) "client connected" true
    (List.mem Status.Connected !client_statuses)

let test_large_transfer_clean () =
  let _, a, b = two_hosts () in
  let payload = String.init 200_000 (fun i -> Char.chr (i * 31 land 0xff)) in
  let buf, _, handler = sink () in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 2_000_000)
  in
  Alcotest.(check int) "length" (String.length payload) (Buffer.length buf);
  Alcotest.(check bool) "content" true (Buffer.contents buf = payload)

let test_no_retransmissions_on_clean_link () =
  let _, a, b = two_hosts () in
  let _, _, handler = sink () in
  let retrans = ref (-1) in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        for _ = 1 to 20 do
          send_string conn (String.make 1000 'c')
        done;
        Scheduler.sleep 2_000_000;
        retrans := (Tcp.conn_stats conn).Fox_tcp.Tcp.retransmissions)
  in
  Alcotest.(check int) "no retransmissions" 0 !retrans

let test_bidirectional_echo () =
  let _, a, b = two_hosts () in
  let echoed = Buffer.create 64 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp.start_passive b.tcp { Tcp.local_port = 7 } (fun conn ->
               ( (fun packet ->
                   (* echo straight back from inside the upcall *)
                   let r = Tcp.allocate_send conn (Packet.length packet) in
                   Packet.blit packet 0 (Packet.buffer r) (Packet.offset r)
                     (Packet.length packet);
                   Tcp.send conn r),
                 ignore )));
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 7; local_port = None }
            (fun _ ->
              ((fun packet -> Buffer.add_string echoed (Packet.to_string packet)),
               ignore))
        in
        send_string conn "ping-1";
        Scheduler.sleep 300_000;
        send_string conn "ping-2";
        Scheduler.sleep 500_000)
  in
  Alcotest.(check string) "echoed" "ping-1ping-2" (Buffer.contents echoed)

let test_two_connections_demultiplex () =
  let _, a, b = two_hosts () in
  let buf1, _, handler1 = sink () in
  let buf2, _, handler2 = sink () in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 81 } handler1);
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 82 } handler2);
        let c1 =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 81; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let c2 =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 82; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        send_string c1 "one";
        send_string c2 "two";
        send_string c1 "-more";
        Scheduler.sleep 500_000)
  in
  Alcotest.(check string) "port 81" "one-more" (Buffer.contents buf1);
  Alcotest.(check string) "port 82" "two" (Buffer.contents buf2)

(* ------------------------------------------------------------------ *)
(* Close paths                                                        *)
(* ------------------------------------------------------------------ *)

let test_graceful_close () =
  let _, a, b = two_hosts () in
  let buf, statuses, handler = sink () in
  let server_conn = ref None in
  let handler conn =
    server_conn := Some conn;
    handler conn
  in
  let final_client = ref "?" and final_server = ref "?" in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        send_string conn "goodbye";
        Scheduler.sleep 300_000;
        Tcp.close conn;
        Scheduler.sleep 300_000;
        (* the peer saw our FIN and closes its side too *)
        (match !server_conn with
        | Some sc ->
          Alcotest.(check string) "server close-wait" "CLOSE-WAIT"
            (Tcp.state_of sc);
          Tcp.close sc
        | None -> Alcotest.fail "no server connection");
        Scheduler.sleep 300_000;
        final_client := Tcp.state_of conn;
        Scheduler.sleep 2_000_000;
        final_server :=
          (match !server_conn with Some sc -> Tcp.state_of sc | None -> "?"))
  in
  Alcotest.(check string) "payload arrived" "goodbye" (Buffer.contents buf);
  Alcotest.(check bool) "remote-close seen" true
    (List.mem Status.Remote_close !statuses);
  Alcotest.(check string) "client in time-wait" "TIME-WAIT" !final_client;
  Alcotest.(check string) "server closed" "CLOSED" !final_server;
  Alcotest.(check bool) "server got closed status" true
    (List.mem Status.Closed !statuses)

let test_close_sync_roundtrip () =
  let _, a, b = two_hosts () in
  let _, _, handler = sink () in
  let reached_closed = ref false in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp.start_passive b.tcp { Tcp.local_port = 80 } (fun conn ->
               ( ignore,
                 fun status ->
                   (* close our side as soon as the peer closes theirs *)
                   if status = Status.Remote_close then Tcp.close conn )));
        ignore handler;
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        send_string conn "x";
        Scheduler.sleep 300_000;
        Tcp.close_sync conn;
        reached_closed := true)
  in
  Alcotest.(check bool) "close_sync returned" true !reached_closed

let test_abort_resets_peer () =
  let _, a, b = two_hosts () in
  let statuses = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp.start_passive b.tcp { Tcp.local_port = 80 } (fun _ ->
               (ignore, fun s -> statuses := s :: !statuses)));
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        send_string conn "about to die";
        Scheduler.sleep 300_000;
        Tcp.abort conn;
        Scheduler.sleep 300_000)
  in
  Alcotest.(check bool) "peer saw reset" true (List.mem Status.Reset !statuses)

let test_connect_to_closed_port_refused () =
  let _, a, _b = two_hosts () in
  let refused = ref false in
  let _ =
    Scheduler.run (fun () ->
        try
          ignore
            (Tcp.connect a.tcp
               { Tcp.peer = ip_of "10.0.0.2"; port = 9999; local_port = None }
               (fun _ -> (ignore, ignore)))
        with Fox_proto.Common.Connection_failed _ -> refused := true)
  in
  Alcotest.(check bool) "refused by RST" true !refused

let test_connect_to_dead_host_times_out () =
  let netem = Netem.adverse ~loss:1.0 ~seed:1 Netem.ethernet_10mbps in
  let _, a, _b = two_hosts ~netem () in
  Fox_arp.Arp.(ignore default_config);
  Arp.add_static a.arp (ip_of "10.0.0.2") (mac_of "02:00:00:00:00:02");
  let failed = ref false in
  let stats =
    Scheduler.run (fun () ->
        try
          ignore
            (Tcp.connect a.tcp
               { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
               (fun _ -> (ignore, ignore)))
        with Fox_proto.Common.Connection_failed _ -> failed := true)
  in
  Alcotest.(check bool) "gave up" true !failed;
  Alcotest.(check bool) "after backoff" true
    (stats.Scheduler.end_time > 1_000_000)

(* ------------------------------------------------------------------ *)
(* Adverse networks                                                   *)
(* ------------------------------------------------------------------ *)

let adverse_transfer ~netem ~bytes () =
  let _, a, b = two_hosts ~netem () in
  let payload = String.init bytes (fun i -> Char.chr (i * 131 land 0xff)) in
  let buf, _, handler = sink () in
  let conn_stats = ref None in
  let _ =
    Scheduler.run (fun () ->
        ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Tcp.send conn p;
          off := !off + n
        done;
        (* wait for everything to drain, with generous virtual time *)
        Scheduler.sleep 120_000_000;
        conn_stats := Some (Tcp.conn_stats conn))
  in
  (Buffer.contents buf, payload, Option.get !conn_stats)

let test_transfer_with_loss () =
  let netem = Netem.adverse ~loss:0.05 ~seed:42 Netem.ethernet_10mbps in
  let got, want, stats = adverse_transfer ~netem ~bytes:100_000 () in
  Alcotest.(check int) "all bytes arrive" (String.length want) (String.length got);
  Alcotest.(check bool) "in order and intact" true (got = want);
  Alcotest.(check bool) "retransmissions happened" true
    (stats.Fox_tcp.Tcp.retransmissions > 0)

let test_transfer_with_reordering () =
  let netem =
    Netem.adverse ~reorder:0.3 ~seed:43 Netem.ethernet_10mbps
  in
  let got, want, stats = adverse_transfer ~netem ~bytes:100_000 () in
  Alcotest.(check bool) "intact" true (got = want);
  Alcotest.(check bool) "out-of-order seen" true
    (stats.Fox_tcp.Tcp.out_of_order_segments > 0
    || stats.Fox_tcp.Tcp.duplicate_segments > 0
    || stats.Fox_tcp.Tcp.retransmissions > 0)

let test_transfer_with_duplication () =
  let netem = Netem.adverse ~duplicate:0.2 ~seed:44 Netem.ethernet_10mbps in
  let got, want, _stats = adverse_transfer ~netem ~bytes:50_000 () in
  Alcotest.(check bool) "duplicates filtered" true (got = want)

let test_transfer_with_corruption () =
  (* checksums must turn corruption into loss, and retransmission must
     recover *)
  let netem = Netem.adverse ~corrupt:0.05 ~seed:45 Netem.ethernet_10mbps in
  let got, want, _ = adverse_transfer ~netem ~bytes:50_000 () in
  Alcotest.(check bool) "corruption never reaches the user" true (got = want)

let test_transfer_with_everything () =
  let netem =
    Netem.adverse ~loss:0.03 ~duplicate:0.05 ~reorder:0.2 ~corrupt:0.02
      ~seed:46 Netem.ethernet_10mbps
  in
  let got, want, _ = adverse_transfer ~netem ~bytes:60_000 () in
  Alcotest.(check bool) "survives the lot" true (got = want)

let transfer_random_adverse =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"tcp: random adverse links never corrupt the stream"
       QCheck2.Gen.(pair nat (int_range 1 30))
       (fun (seed, kb) ->
         let netem =
           Netem.adverse ~loss:0.04 ~duplicate:0.03 ~reorder:0.15
             ~corrupt:0.01 ~seed Netem.ethernet_10mbps
         in
         let got, want, _ = adverse_transfer ~netem ~bytes:(kb * 1000) () in
         got = want))

(* ------------------------------------------------------------------ *)
(* Simultaneous open                                                  *)
(* ------------------------------------------------------------------ *)

let test_simultaneous_open_full_stack () =
  let _, a, b = two_hosts () in
  let established = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        let handler _ =
          (ignore, fun s -> if s = Status.Connected then incr established)
        in
        Scheduler.fork (fun () ->
            ignore
              (Tcp.connect a.tcp
                 { Tcp.peer = ip_of "10.0.0.2"; port = 5000;
                   local_port = Some 5001 }
                 handler));
        Scheduler.fork (fun () ->
            ignore
              (Tcp.connect b.tcp
                 { Tcp.peer = ip_of "10.0.0.1"; port = 5001;
                   local_port = Some 5000 }
                 handler));
        Scheduler.sleep 5_000_000)
  in
  Alcotest.(check int) "both sides established" 2 !established

(* ------------------------------------------------------------------ *)
(* The paper's non-standard stack: TCP directly over Ethernet          *)
(* ------------------------------------------------------------------ *)

module EthC = Fox_eth.Eth.Checked
module Eth_aux = Fox_eth.Eth_aux.Make (EthC)

module Special_tcp_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      (* rely on the (correctly implemented!) Ethernet CRC instead *)
      compute_checksums = false;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
      time_wait_us = 1_000_000;
    }
end

module Special_tcp = Fox_tcp.Tcp.Make (EthC) (Eth_aux) (Fox_tcp.Congestion.Reno) (Special_tcp_params)

let test_tcp_directly_over_ethernet () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let mac_a = mac_of "02:00:00:00:00:01" and mac_b = mac_of "02:00:00:00:00:02" in
  let eth_a = EthC.create (Device.create (Link.port link 0)) ~mac:mac_a in
  let eth_b = EthC.create (Device.create (Link.port link 1)) ~mac:mac_b in
  let tcp_a = Special_tcp.create eth_a in
  let tcp_b = Special_tcp.create eth_b in
  let buf = Buffer.create 64 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Special_tcp.start_passive tcp_b { Special_tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Special_tcp.connect tcp_a
            { Special_tcp.peer = mac_b; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let msg = "no IP, no TCP checksum, CRC32 only" in
        let p = Special_tcp.allocate_send conn (String.length msg) in
        Packet.blit_from_string msg 0 p 0 (String.length msg);
        Special_tcp.send conn p;
        Scheduler.sleep 500_000)
  in
  Alcotest.(check string) "delivered over raw ethernet"
    "no IP, no TCP checksum, CRC32 only" (Buffer.contents buf)

let test_special_stack_crc_covers_corruption () =
  (* with TCP checksums off, the Ethernet CRC is the only integrity check;
     corruption must still never reach the user *)
  let netem = Netem.adverse ~corrupt:0.05 ~seed:7 Netem.ethernet_10mbps in
  let link = Link.point_to_point netem in
  let mac_a = mac_of "02:00:00:00:00:01" and mac_b = mac_of "02:00:00:00:00:02" in
  let eth_a = EthC.create (Device.create (Link.port link 0)) ~mac:mac_a in
  let eth_b = EthC.create (Device.create (Link.port link 1)) ~mac:mac_b in
  let tcp_a = Special_tcp.create eth_a in
  let tcp_b = Special_tcp.create eth_b in
  let payload = String.init 50_000 (fun i -> Char.chr (i * 17 land 0xff)) in
  let buf = Buffer.create 1024 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Special_tcp.start_passive tcp_b { Special_tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Special_tcp.connect tcp_a
            { Special_tcp.peer = mac_b; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Special_tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Special_tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Special_tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 120_000_000)
  in
  Alcotest.(check bool) "intact despite corruption" true
    (Buffer.contents buf = payload)

(* ------------------------------------------------------------------ *)
(* Robustness: raw segment storm at the engine level                  *)
(* ------------------------------------------------------------------ *)

(* A dedicated attacker host throws raw bytes at host b's port 80 listener
   as IP protocol-6 payloads: junk, truncated headers, random flag
   combinations.  The engine must neither crash nor leak connections, and
   a normal handshake from host a must still work afterwards.  (The
   attacker is a third station because opening a raw proto-6 IP session on
   host a would claim the session TCP itself needs — the x-kernel
   session-reuse rule makes IP protocol numbers single-tenant per peer.) *)
let test_raw_segment_storm () =
  let link = Link.hub ~ports:3 Netem.ethernet_10mbps in
  let a = make_host link 0 ~mac:(mac_of "02:00:00:00:00:01") ~addr:(ip_of "10.0.0.1") in
  let b = make_host link 1 ~mac:(mac_of "02:00:00:00:00:02") ~addr:(ip_of "10.0.0.2") in
  let attacker = make_host link 2 ~mac:(mac_of "02:00:00:00:00:03") ~addr:(ip_of "10.0.0.3") in
  let rng = Fox_basis.Rng.create 1234 in
  let survived = ref false in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp.start_passive b.tcp { Tcp.local_port = 80 }
             (fun _ -> (ignore, ignore)));
        let raw =
          Ip.connect attacker.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 6 }
            (fun _ -> (ignore, ignore))
        in
        for _ = 1 to 300 do
          let len = Fox_basis.Rng.int rng 80 in
          let p = Ip.allocate_send raw len in
          for i = 0 to len - 1 do
            Packet.set_u8 p i (Fox_basis.Rng.int rng 256)
          done;
          (* half the time, aim at the listening port with a sane-ish
             header so deeper paths get exercised *)
          if len >= 20 && Fox_basis.Rng.bool rng 0.5 then begin
            Packet.set_u16 p 0 (Fox_basis.Rng.int rng 65536);
            Packet.set_u16 p 2 80;
            Packet.set_u8 p 12 (5 lsl 4);
            (* checksums are mostly wrong: most should bounce there *)
            if Fox_basis.Rng.bool rng 0.3 then Packet.set_u16 p 16 0
          end;
          Ip.send raw p
        done;
        Scheduler.sleep 5_000_000;
        (* the stack still works *)
        let conn =
          Tcp.connect a.tcp
            { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        survived := Tcp.state_of conn = "ESTABLISHED")
  in
  Alcotest.(check bool) "handshake works after the storm" true !survived;
  let s = Tcp.stats b.tcp in
  Alcotest.(check bool) "junk was rejected, not accepted" true
    (s.Fox_tcp.Tcp.bad_segments > 0 || s.Fox_tcp.Tcp.rsts_sent > 0
   || s.Fox_tcp.Tcp.unknown_dropped > 0);
  Alcotest.(check int) "no leaked connections" 1 s.Fox_tcp.Tcp.active_conns

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let test_runs_are_deterministic () =
  let round () =
    let netem = Netem.adverse ~loss:0.05 ~seed:99 Netem.ethernet_10mbps in
    let _, a, b = two_hosts ~netem () in
    let buf, _, handler = sink () in
    let stats =
      Scheduler.run (fun () ->
          ignore (Tcp.start_passive b.tcp { Tcp.local_port = 80 } handler);
          let conn =
            Tcp.connect a.tcp
              { Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
              (fun _ -> (ignore, ignore))
          in
          for _ = 1 to 30 do
            send_string conn (String.make 1000 'd')
          done;
          Scheduler.sleep 60_000_000)
    in
    (Buffer.length buf, stats.Scheduler.switches, stats.Scheduler.end_time)
  in
  let r1 = round () and r2 = round () in
  Alcotest.(check (triple int int int)) "identical runs" r1 r2

let () =
  Alcotest.run "fox_tcp_integration"
    [
      ( "basics",
        [
          Alcotest.test_case "handshake + hello" `Quick test_handshake_and_hello;
          Alcotest.test_case "200KB clean transfer" `Quick
            test_large_transfer_clean;
          Alcotest.test_case "clean link, no rtx" `Quick
            test_no_retransmissions_on_clean_link;
          Alcotest.test_case "bidirectional echo" `Quick test_bidirectional_echo;
          Alcotest.test_case "demultiplexing" `Quick
            test_two_connections_demultiplex;
        ] );
      ( "close",
        [
          Alcotest.test_case "graceful close" `Quick test_graceful_close;
          Alcotest.test_case "close_sync" `Quick test_close_sync_roundtrip;
          Alcotest.test_case "abort resets peer" `Quick test_abort_resets_peer;
          Alcotest.test_case "refused port" `Quick
            test_connect_to_closed_port_refused;
          Alcotest.test_case "dead host times out" `Quick
            test_connect_to_dead_host_times_out;
        ] );
      ( "adverse",
        [
          Alcotest.test_case "5% loss" `Quick test_transfer_with_loss;
          Alcotest.test_case "reordering" `Quick test_transfer_with_reordering;
          Alcotest.test_case "duplication" `Quick test_transfer_with_duplication;
          Alcotest.test_case "corruption" `Quick test_transfer_with_corruption;
          Alcotest.test_case "everything at once" `Quick
            test_transfer_with_everything;
          transfer_random_adverse;
        ] );
      ( "exotic",
        [
          Alcotest.test_case "simultaneous open" `Quick
            test_simultaneous_open_full_stack;
          Alcotest.test_case "tcp over raw ethernet" `Quick
            test_tcp_directly_over_ethernet;
          Alcotest.test_case "crc-only integrity" `Quick
            test_special_stack_crc_covers_corruption;
          Alcotest.test_case "determinism" `Quick test_runs_are_deterministic;
          Alcotest.test_case "raw segment storm" `Quick test_raw_segment_storm;
        ] );
    ]
