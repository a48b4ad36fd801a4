(* The overload policy, knob by knob: backlog refusal in both flavours
   (RST vs silent drop), SYN-cache promotion and expiry, the stateless
   SYN-cookie round trip (and the forged-cookie probe it must reject),
   TIME-WAIT recycling under port churn, and a miniature run of the full
   soak harness.  Each test builds the same three-host hub the soak uses
   — client, server, scripted attacker — but on a clean wire, so every
   counter value is exact rather than statistical. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route
module Status = Fox_proto.Status
module Bus = Fox_obs.Bus
module T = Fox_tcp.Tcp

module Eth = Fox_eth.Eth.Standard
module Ip = Fox_ip.Ip.Make (Eth) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)
module Flood = Fox_check.Synflood.Make (Ip) (Ip_aux)

let port = 8080

let ip_of = Ipv4_addr.of_string

let server_addr = ip_of "10.1.0.2"

let mac_of addr =
  Mac.of_string
    (Printf.sprintf "02:00:00:00:02:%02x" (Ipv4_addr.to_int addr land 0xff))

let make_host link index ~addr =
  let dev = Device.create (Link.port link index) in
  let eth = Eth.create dev ~mac:(mac_of addr) in
  Ip.create eth
    {
      Ip.local_ip = addr;
      route = Route.local ~network:(ip_of "10.1.0.0") ~prefix:24;
      lower_address =
        (fun next_hop ->
          { Fox_eth.Eth.dest = mac_of next_hop;
            proto = Fox_eth.Frame.ethertype_ipv4 });
      lower_pattern = { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 };
    }

let three_hosts () =
  let link = Link.hub ~ports:3 Netem.ethernet_10mbps in
  ( make_host link 0 ~addr:(ip_of "10.1.0.1"),
    make_host link 1 ~addr:server_addr,
    make_host link 2 ~addr:(ip_of "10.1.0.3") )

(* Short timers so half-open state converges fast under virtual time.
   rto_max also sets the SYN-cache TTL (2 x rto_max). *)
module Base_params = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      rto_initial_us = 200_000;
      rto_min_us = 100_000;
      rto_max_us = 1_000_000;
      max_retransmits = 3;
      time_wait_us = 1_000_000;
    }
end

(* ------------------------------------------------------------------ *)
(* Backlog-full refusal: RST vs silent drop                           *)
(* ------------------------------------------------------------------ *)

module Rst_params = struct
  let params =
    { Base_params.params with listen_backlog = 2; refuse_with_rst = true }
end

module Tcp_rst = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Rst_params)

let test_backlog_refusal_rst () =
  let _client_ip, server_ip, atk_ip = three_hosts () in
  let server = Tcp_rst.create server_ip in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_rst.start_passive server { Tcp_rst.local_port = port }
             (fun _ -> (ignore, ignore)));
        let fl = Flood.create atk_ip ~target:server_addr in
        for _ = 1 to 6 do
          ignore (Flood.syn fl ~dst_port:port);
          Scheduler.sleep 1_000
        done;
        Scheduler.sleep 500_000)
  in
  let s = Tcp_rst.stats server in
  (* backlog 2, 6 SYNs: exactly 4 surplus, each answered with an RST *)
  Alcotest.(check int) "refused" 4 s.T.backlog_refused;
  Alcotest.(check bool) "rsts sent" true (s.T.rsts_sent >= 4);
  Alcotest.(check int) "no silent drops" 0 s.T.syn_dropped

module Drop_params = struct
  let params =
    { Base_params.params with listen_backlog = 2; refuse_with_rst = false }
end

module Tcp_drop = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Drop_params)

let test_backlog_refusal_silent () =
  let _client_ip, server_ip, atk_ip = three_hosts () in
  let server = Tcp_drop.create server_ip in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_drop.start_passive server { Tcp_drop.local_port = port }
             (fun _ -> (ignore, ignore)));
        let fl = Flood.create atk_ip ~target:server_addr in
        for _ = 1 to 6 do
          ignore (Flood.syn fl ~dst_port:port);
          Scheduler.sleep 1_000
        done;
        Scheduler.sleep 500_000)
  in
  let s = Tcp_drop.stats server in
  Alcotest.(check int) "refused" 4 s.T.backlog_refused;
  Alcotest.(check int) "dropped silently" 4 s.T.syn_dropped;
  Alcotest.(check int) "no rsts" 0 s.T.rsts_sent

(* ------------------------------------------------------------------ *)
(* SYN cache: promotion and expiry                                    *)
(* ------------------------------------------------------------------ *)

module Cache_params = struct
  let params =
    {
      Base_params.params with
      listen_backlog = 3;
      syn_cache = true;
      refuse_with_rst = true;
    }
end

module Tcp_cache = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Cache_params)

let test_syn_cache_promotion_and_expiry () =
  let client_ip, server_ip, atk_ip = three_hosts () in
  let server = Tcp_cache.create server_ip in
  let client = Tcp_cache.create client_ip in
  let delivered = Buffer.create 64 in
  let refused = ref false in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_cache.start_passive server { Tcp_cache.local_port = port }
             (fun conn ->
               ( (fun p ->
                   Buffer.add_string delivered (Packet.to_string p);
                   Packet.release p),
                 function
                 | Status.Remote_close -> Tcp_cache.close conn
                 | _ -> () )));
        (* the attacker parks 3 half-open handshakes: cache now full *)
        let fl = Flood.create atk_ip ~target:server_addr in
        for _ = 1 to 3 do
          ignore (Flood.syn fl ~dst_port:port);
          Scheduler.sleep 1_000
        done;
        Scheduler.sleep 10_000;
        (* no cookies: a legitimate SYN is refused while the cache is
           full, and the RST fails the client's connect immediately *)
        (match
           Tcp_cache.connect client
             { Tcp_cache.peer = server_addr; port; local_port = None }
             (fun _ -> (ignore, ignore))
         with
        | (_ : Tcp_cache.connection) -> ()
        | exception Fox_proto.Common.Connection_failed _ -> refused := true);
        (* past the cache TTL (2 x rto_max = 2 s) the entries are purged
           lazily by the next SYN, which then finds room and is promoted
           into a working connection *)
        Scheduler.sleep 2_500_000;
        let conn =
          Tcp_cache.connect client
            { Tcp_cache.peer = server_addr; port; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let msg = "promoted after expiry" in
        let p = Tcp_cache.allocate_send conn (String.length msg) in
        Packet.blit_from_string msg 0 p 0 (String.length msg);
        Tcp_cache.send conn p;
        Scheduler.sleep 200_000;
        Tcp_cache.close conn;
        Scheduler.sleep 2_000_000)
  in
  let s = Tcp_cache.stats server in
  Alcotest.(check bool) "full cache refused the connect" true !refused;
  Alcotest.(check bool) "refusal counted" true (s.T.backlog_refused >= 1);
  Alcotest.(check string) "promoted conn delivers" "promoted after expiry"
    (Buffer.contents delivered)

(* ------------------------------------------------------------------ *)
(* SYN cookies: stateless round trip, forged-cookie ACK               *)
(* ------------------------------------------------------------------ *)

module Cookie_params = struct
  let params =
    {
      Base_params.params with
      listen_backlog = 1;
      syn_cache = true;
      syn_cookies = true;
    }
end

module Tcp_cookie = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Cookie_params)

let test_syn_cookie_round_trip () =
  let client_ip, server_ip, atk_ip = three_hosts () in
  let server = Tcp_cookie.create server_ip in
  let client = Tcp_cookie.create client_ip in
  let delivered = Buffer.create 64 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_cookie.start_passive server { Tcp_cookie.local_port = port }
             (fun conn ->
               ( (fun p ->
                   Buffer.add_string delivered (Packet.to_string p);
                   Packet.release p),
                 function
                 | Status.Remote_close -> Tcp_cookie.close conn
                 | _ -> () )));
        let fl = Flood.create atk_ip ~target:server_addr in
        (* one parked SYN fills the single-entry cache... *)
        ignore (Flood.syn fl ~dst_port:port);
        Scheduler.sleep 10_000;
        (* ...so this handshake is carried entirely by the cookie: the
           server holds zero state until the ACK comes back *)
        let conn =
          Tcp_cookie.connect client
            { Tcp_cookie.peer = server_addr; port; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let msg = "stateless handshake" in
        let p = Tcp_cookie.allocate_send conn (String.length msg) in
        Packet.blit_from_string msg 0 p 0 (String.length msg);
        Tcp_cookie.send conn p;
        Scheduler.sleep 200_000;
        let before = (Tcp_cookie.stats server).T.rsts_sent in
        (* a bare ACK with a forged cookie must earn an RST, never a TCB *)
        Flood.bare_ack fl ~dst_port:port;
        Scheduler.sleep 100_000;
        let after = (Tcp_cookie.stats server).T.rsts_sent in
        Alcotest.(check bool) "forged cookie earns an RST" true (after > before);
        Tcp_cookie.close conn;
        Scheduler.sleep 2_500_000)
  in
  Alcotest.(check string) "cookie conn delivers" "stateless handshake"
    (Buffer.contents delivered);
  Alcotest.(check int) "no refusals needed" 0
    (Tcp_cookie.stats server).T.backlog_refused

(* ------------------------------------------------------------------ *)
(* TIME-WAIT recycling under port reuse                               *)
(* ------------------------------------------------------------------ *)

module Tw_params = struct
  let params =
    {
      Base_params.params with
      (* long 2MSL, tiny table: only recycling can free a parked port *)
      time_wait_us = 60_000_000;
      max_time_wait = 2;
    }
end

module Tcp_tw = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Tw_params)

let test_time_wait_recycling () =
  let client_ip, server_ip, _atk_ip = three_hosts () in
  let server = Tcp_tw.create server_ip in
  let client = Tcp_tw.create client_ip in
  let reused = ref false in
  let open_close local_port =
    let conn =
      Tcp_tw.connect client
        { Tcp_tw.peer = server_addr; port; local_port = Some local_port }
        (fun _ -> (ignore, ignore))
    in
    Tcp_tw.close conn;
    (* the client is the active closer: its side parks in TIME-WAIT *)
    Scheduler.sleep 100_000
  in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_tw.start_passive server { Tcp_tw.local_port = port }
             (fun conn ->
               ( Packet.release,
                 function
                 | Status.Remote_close -> Tcp_tw.close conn
                 | _ -> () )));
        for i = 0 to 4 do
          open_close (20000 + i)
        done;
        (* five closes against a 2-slot table: the first ports were
           recycled long before their 2MSL, so reusing one succeeds *)
        (match open_close 20000 with
        | () -> reused := true
        | exception Fox_proto.Common.Connection_failed _ -> ());
        Scheduler.sleep 100_000)
  in
  let s = Tcp_tw.stats client in
  Alcotest.(check bool) "recycled early" true (s.T.time_wait_recycled >= 3);
  Alcotest.(check bool) "recycled port reusable" true !reused

(* ------------------------------------------------------------------ *)
(* Engine counters on the bus                                         *)
(* ------------------------------------------------------------------ *)

let test_engine_stats_on_bus () =
  let _client_ip, server_ip, _atk_ip = three_hosts () in
  Bus.reset ();
  let _server = Tcp_rst.create server_ip in
  let engine_lines =
    List.filter
      (fun (id, _) -> String.length id >= 10 && String.sub id 0 10 = "tcp-engine")
      (Bus.stats_snapshots ())
  in
  Alcotest.(check int) "one engine provider" 1 (List.length engine_lines);
  let _, line = List.hd engine_lines in
  Alcotest.(check bool) "line carries overload counters" true
    (String.length line > 0
    && String.sub line 0 6 = "engine")

(* ------------------------------------------------------------------ *)
(* The soak harness, miniature                                        *)
(* ------------------------------------------------------------------ *)

let test_soak_smoke () =
  let cfg =
    {
      Fox_check.Soak.default_config with
      Fox_check.Soak.conns = 25;
      bytes_per_conn = 1024;
      flood_syns = 16;
      flood_bad_acks = 8;
    }
  in
  let report, problems = Fox_check.Soak.check cfg in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "all conns complete" 25
    report.Fox_check.Soak.completed

(* Teeth for the leak census the soak and chaos harnesses assert: one
   transfer that releases every delivered buffer leaves the live count
   where it found it, and the same transfer with one delivered buffer
   kept back leaves exactly one packet live. *)
let census_after ~keep_one =
  let client_ip, server_ip, _atk_ip = three_hosts () in
  let live0 = Packet.live_packets () in
  let server = Tcp_tw.create server_ip in
  let client = Tcp_tw.create client_ip in
  let kept = ref None in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Tcp_tw.start_passive server { Tcp_tw.local_port = port }
             (fun conn ->
               ( (fun p ->
                   if keep_one && !kept = None then kept := Some p
                   else Packet.release p),
                 function
                 | Status.Remote_close -> Tcp_tw.close conn
                 | _ -> () )));
        let conn =
          Tcp_tw.connect client
            { Tcp_tw.peer = server_addr; port; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        for _ = 1 to 4 do
          Tcp_tw.send conn (Tcp_tw.allocate_send conn 512)
        done;
        Tcp_tw.close conn)
  in
  Packet.live_packets () - live0

let test_census_catches_a_leak () =
  Alcotest.(check int) "every buffer released: no leak" 0
    (census_after ~keep_one:false);
  Alcotest.(check int) "one buffer kept: one leak" 1
    (census_after ~keep_one:true)

let () =
  Alcotest.run "fox_overload"
    [
      ( "backlog",
        [
          Alcotest.test_case "refusal with RST" `Quick test_backlog_refusal_rst;
          Alcotest.test_case "silent drop" `Quick test_backlog_refusal_silent;
        ] );
      ( "syn-cache",
        [
          Alcotest.test_case "promotion and expiry" `Quick
            test_syn_cache_promotion_and_expiry;
          Alcotest.test_case "cookie round trip" `Quick
            test_syn_cookie_round_trip;
        ] );
      ( "time-wait",
        [
          Alcotest.test_case "recycling under port reuse" `Quick
            test_time_wait_recycling;
        ] );
      ( "observability",
        [
          Alcotest.test_case "engine stats on the bus" `Quick
            test_engine_stats_on_bus;
        ] );
      ( "soak",
        [
          Alcotest.test_case "miniature run" `Quick test_soak_smoke;
          Alcotest.test_case "census catches a leak" `Quick
            test_census_catches_a_leak;
        ] );
    ]
