(* Tests for the network substrate: simulated links and devices, Ethernet,
   ARP, IP (with fragmentation/reassembly), routing and ICMP. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device
module Mac = Fox_eth.Mac
module Frame = Fox_eth.Frame
module Ipv4_addr = Fox_ip.Ipv4_addr
module Ipv4_header = Fox_ip.Ipv4_header
module Route = Fox_ip.Route

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The standard protocol composition used throughout (Figure 3, standard
   stack): Device -> Eth -> Arp -> Ip. *)
module Eth = Fox_eth.Eth.Standard
module Arp = Fox_arp.Arp.Make (Eth)
module Ip = Fox_ip.Ip.Make (Arp) (Fox_ip.Ip.Default_params)
module Icmp = Fox_ip.Icmp.Make (Ip)

type host = { dev : Device.t; eth : Eth.t; arp : Arp.t; ip : Ip.t }

let ip_of = Ipv4_addr.of_string

let mac_of = Mac.of_string

let make_host link index ~mac ~addr =
  let dev = Device.create ~name:(Printf.sprintf "eth%d" index) (Link.port link index) in
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
  { dev; eth; arp; ip }

let two_hosts ?(netem = Netem.ethernet_10mbps) () =
  let link = Link.point_to_point netem in
  let a = make_host link 0 ~mac:(mac_of "02:00:00:00:00:01") ~addr:(ip_of "10.0.0.1") in
  let b = make_host link 1 ~mac:(mac_of "02:00:00:00:00:02") ~addr:(ip_of "10.0.0.2") in
  (link, a, b)

(* ------------------------------------------------------------------ *)
(* Link                                                               *)
(* ------------------------------------------------------------------ *)

let test_link_delivery_time () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let got = ref [] in
  let stats =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun p ->
            got := (Scheduler.now (), Packet.to_string p) :: !got);
        (Link.port link 0).Link.transmit (Packet.of_string (String.make 1250 'x')))
  in
  (* 1250 B at 10 Mb/s = 1000 us serialisation + 50 us propagation *)
  Alcotest.(check (list (pair int string)))
    "arrival time" [ (1050, String.make 1250 'x') ] !got;
  Alcotest.(check int) "end time" 1050 stats.Scheduler.end_time

let test_link_serialises_back_to_back () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let arrivals = ref [] in
  let _ =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun _ ->
            arrivals := Scheduler.now () :: !arrivals);
        let p = Packet.of_string (String.make 125 'y') in
        (* 125 B = 100 us of line time each *)
        (Link.port link 0).Link.transmit p;
        (Link.port link 0).Link.transmit p;
        (Link.port link 0).Link.transmit p)
  in
  Alcotest.(check (list int)) "spaced by line rate" [ 150; 250; 350 ]
    (List.rev !arrivals)

let test_link_loss_deterministic () =
  let netem = Netem.adverse ~loss:0.5 ~seed:7 Netem.perfect in
  let round () =
    let link = Link.point_to_point netem in
    let n = ref 0 in
    let _ =
      Scheduler.run (fun () ->
          (Link.port link 1).Link.set_receive (fun _ -> incr n);
          for _ = 1 to 100 do
            (Link.port link 0).Link.transmit (Packet.of_string "z")
          done)
    in
    !n
  in
  let a = round () and b = round () in
  Alcotest.(check int) "replayable" a b;
  Alcotest.(check bool) "some lost" true (a < 100);
  Alcotest.(check bool) "some delivered" true (a > 0)

let test_link_corrupt_changes_bits () =
  let netem = Netem.adverse ~corrupt:1.0 ~seed:3 Netem.perfect in
  let link = Link.point_to_point netem in
  let payload = String.make 32 '\000' in
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun p ->
            got := Packet.to_string p :: !got);
        (Link.port link 0).Link.transmit (Packet.of_string payload))
  in
  match !got with
  | [ s ] ->
    Alcotest.(check bool) "one bit flipped" true (s <> payload);
    let diff = ref 0 in
    String.iteri
      (fun i c -> if c <> payload.[i] then diff := !diff + 1)
      s;
    Alcotest.(check int) "exactly one byte differs" 1 !diff
  | _ -> Alcotest.fail "expected exactly one frame"

let test_hub_broadcast () =
  let link = Link.hub ~ports:4 Netem.perfect in
  let seen = Array.make 4 0 in
  let _ =
    Scheduler.run (fun () ->
        for i = 1 to 3 do
          (Link.port link i).Link.set_receive (fun _ -> seen.(i) <- seen.(i) + 1)
        done;
        (Link.port link 0).Link.set_receive (fun _ -> seen.(0) <- seen.(0) + 1);
        (Link.port link 0).Link.transmit (Packet.of_string "hello"))
  in
  Alcotest.(check (list int)) "all but sender" [ 0; 1; 1; 1 ]
    (Array.to_list seen)

(* A back-to-back burst on an unbounded link: every frame after the
   first waits for the medium, but nothing reads the waiting census, so
   the burst costs one delivery fork per frame and nothing else. *)
let test_link_unbounded_burst_forks () =
  let n = 8 in
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let arrivals = ref [] in
  let stats =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun p ->
            arrivals := (Scheduler.now (), Packet.to_string p) :: !arrivals);
        for i = 1 to n do
          (* 125 B = 100 us of line time each *)
          (Link.port link 0).Link.transmit
            (Packet.of_string (String.make 125 (Char.chr (96 + i))))
        done)
  in
  Alcotest.(check int) "one delivery fork per frame" n (stats.Scheduler.forks - 1);
  Alcotest.(check string) "stats"
    "switches=17 forks=9 sleeps=8 completed=9 blocked=0 end_time=850us"
    (Format.asprintf "%a" Scheduler.pp_stats stats);
  Alcotest.(check (list (pair int string)))
    "arrivals spaced by line rate"
    (List.init n (fun i -> (150 + (100 * i), String.make 125 (Char.chr (97 + i)))))
    (List.rev !arrivals)

(* A finite egress queue of [k] frames.  A burst of [k + 3] frames sends
   the first at once, queues [k] and tail-drops 2.  At 250 us two of the
   queued frames have started serialising, so two of a 3-frame burst
   fit and one is dropped.  Once the queue has drained, a [k + 3] burst
   gives the first result again. *)
let test_link_finite_queue_burst () =
  let k = 4 in
  let netem = Netem.adverse ~queue_frames:k ~seed:1 Netem.ethernet_10mbps in
  let link = Link.point_to_point netem in
  let arrivals = ref [] in
  let burst tag n =
    for i = 1 to n do
      (* 125 B = 100 us of line time each *)
      (Link.port link 0).Link.transmit
        (Packet.of_string (Printf.sprintf "%c%d" tag i ^ String.make 123 'q'))
    done
  in
  let stats =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun p ->
            arrivals := (Scheduler.now (), String.sub (Packet.to_string p) 0 2) :: !arrivals);
        burst 'a' (k + 3);
        Scheduler.sleep 250;
        burst 'b' 3;
        Scheduler.sleep 10_000;
        burst 'c' (k + 3))
  in
  Alcotest.(check int) "queue drops" 5 (Link.stats link 0).Link.queue_drops;
  (* main plus one delivery fork per frame that arrived: counting the
     frames that wait is arithmetic over their departure times and
     forks nothing *)
  Alcotest.(check string) "stats"
    "switches=27 forks=13 sleeps=14 completed=13 blocked=0 end_time=10800us"
    (Format.asprintf "%a" Scheduler.pp_stats stats);
  Alcotest.(check (list (pair int string)))
    "arrivals"
    [
      (150, "a1"); (250, "a2"); (350, "a3"); (450, "a4"); (550, "a5");
      (650, "b1"); (750, "b2");
      (10_400, "c1"); (10_500, "c2"); (10_600, "c3"); (10_700, "c4"); (10_800, "c5");
    ]
    (List.rev !arrivals)

(* The one tie in counting the frames that wait.  A frame counts as
   waiting while its departure is after [now] -- the rule [transmit]
   uses to decide that a new frame waits.  On a hub with room for one
   waiting frame: a1 departs at once, a2 waits to depart at 100 us, and
   at exactly 100 us a thread that fell asleep before a2 was sent sends
   a3.  a2 has started serialising, so the queue is empty and a3 is
   accepted.  (Had the count been kept by a thread woken at a2's
   departure, that thread would run after the earlier sleeper and a3
   would be dropped.) *)
let test_hub_census_tie () =
  let netem = Netem.adverse ~queue_frames:1 ~seed:1 Netem.ethernet_10mbps in
  let link = Link.hub ~ports:2 netem in
  let arrivals = ref [] in
  let send tag =
    (* 125 B = 100 us of line time *)
    (Link.port link 0).Link.transmit
      (Packet.of_string (tag ^ String.make 123 'q'))
  in
  let _ =
    Scheduler.run (fun () ->
        (Link.port link 1).Link.set_receive (fun p ->
            arrivals := (Scheduler.now (), String.sub (Packet.to_string p) 0 2) :: !arrivals);
        send "a1";
        send "a2";
        Scheduler.sleep 100;
        send "a3")
  in
  Alcotest.(check int) "queue drops" 0 (Link.stats link 0).Link.queue_drops;
  Alcotest.(check (list (pair int string)))
    "arrivals"
    [ (150, "a1"); (250, "a2"); (350, "a3") ]
    (List.rev !arrivals)

let test_device_counts_and_down () =
  let link = Link.point_to_point Netem.perfect in
  let dev0 = Device.create ~mtu:100 (Link.port link 0) in
  let dev1 = Device.create (Link.port link 1) in
  let received = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        Device.set_receive dev1 (fun _ -> incr received);
        Device.send dev0 (Packet.of_string "ok");
        Device.send dev0 (Packet.of_string (String.make 200 'x'));
        (* oversized *)
        Device.down dev0;
        Device.send dev0 (Packet.of_string "down");
        Device.up dev0;
        Device.send dev0 (Packet.of_string "up again"))
  in
  let s = Device.stats dev0 in
  Alcotest.(check int) "tx ok" 2 s.Device.tx_frames;
  Alcotest.(check int) "tx dropped" 2 s.Device.tx_dropped;
  Alcotest.(check int) "delivered" 2 !received

let test_pcap_capture () =
  (* capture a frame exchange and read the file back *)
  let path = Filename.temp_file "foxnet" ".pcap" in
  let cap = Fox_dev.Pcap.create path in
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let dev0 = Device.create ~tap:(Fox_dev.Pcap.tap cap) (Link.port link 0) in
  let dev1 = Device.create (Link.port link 1) in
  let _ =
    Scheduler.run (fun () ->
        Device.set_receive dev0 ignore;
        Device.set_receive dev1 (fun _ ->
            (* answer with a frame so the capture sees both directions *)
            Device.send dev1 (Packet.of_string "pong-frame........"));
        Device.send dev0 (Packet.of_string "ping-frame--------");
        Scheduler.sleep 10_000)
  in
  Fox_dev.Pcap.close cap;
  let frames = Fox_dev.Pcap.read_back path in
  Sys.remove path;
  Alcotest.(check int) "both directions captured" 2 (List.length frames);
  (match frames with
  | [ (t1, f1); (t2, f2) ] ->
    Alcotest.(check string) "tx frame" "ping-frame--------" f1;
    Alcotest.(check string) "rx frame" "pong-frame........" f2;
    Alcotest.(check bool) "timestamps nondecreasing" true (t2 >= t1);
    Alcotest.(check bool) "rx later than serialisation" true (t2 >= 64)
  | _ -> Alcotest.fail "expected two frames")

let test_pcap_of_tcp_handshake () =
  (* a full TCP exchange, captured: the file must contain the ARP request
     and the SYN, in order *)
  let path = Filename.temp_file "foxnet" ".pcap" in
  let cap = Fox_dev.Pcap.create path in
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let a =
    let dev = Device.create ~tap:(Fox_dev.Pcap.tap cap) (Link.port link 0) in
    let eth = Eth.create dev ~mac:(mac_of "02:00:00:00:00:01") in
    let arp = Arp.create eth ~local_ip:(ip_of "10.0.0.1") () in
    Ip.create arp
      { Ip.local_ip = ip_of "10.0.0.1";
        route = Route.local ~network:(ip_of "10.0.0.0") ~prefix:24;
        lower_address = Fun.id; lower_pattern = () }
  in
  let b = make_host link 1 ~mac:(mac_of "02:00:00:00:00:02") ~addr:(ip_of "10.0.0.2") in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive b.ip { Fox_ip.Ip.match_proto = 77 }
             (fun _ -> (ignore, ignore)));
        let conn =
          Ip.connect a { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 77 }
            (fun _ -> (ignore, ignore))
        in
        Ip.send conn (Ip.allocate_send conn 10))
  in
  Fox_dev.Pcap.close cap;
  let frames = Fox_dev.Pcap.read_back path in
  Sys.remove path;
  let ethertype f = (Char.code f.[12] lsl 8) lor Char.code f.[13] in
  (match frames with
  | arp_req :: rest ->
    Alcotest.(check int) "first frame is the ARP request" 0x0806
      (ethertype (snd arp_req));
    Alcotest.(check bool) "an IP frame follows" true
      (List.exists (fun (_, f) -> ethertype f = 0x0800) rest)
  | [] -> Alcotest.fail "empty capture");
  Alcotest.(check bool) "times ordered" true
    (let ts = List.map fst frames in
     List.sort compare ts = ts)

(* ------------------------------------------------------------------ *)
(* Ethernet                                                           *)
(* ------------------------------------------------------------------ *)

let test_mac_roundtrip () =
  let m = mac_of "aa:bb:cc:dd:ee:ff" in
  Alcotest.(check string) "to_string" "aa:bb:cc:dd:ee:ff" (Mac.to_string m);
  let b = Bytes.create 8 in
  Mac.write m b 1;
  Alcotest.(check bool) "wire roundtrip" true (Mac.equal m (Mac.read b 1));
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "multicast bit" true
    (Mac.is_multicast (mac_of "01:00:5e:00:00:01"));
  Alcotest.(check bool) "unicast" false (Mac.is_multicast m)

let frame_roundtrip =
  qtest "eth: frame encode/decode roundtrip"
    QCheck2.Gen.(triple nat nat (string_size (int_range 0 100)))
    (fun (dst, src, payload) ->
      let hdr =
        {
          Frame.dst = Mac.of_int dst;
          src = Mac.of_int src;
          ethertype = 0x0800;
        }
      in
      let p = Packet.of_string ~headroom:16 payload in
      Frame.encode hdr p;
      match Frame.decode p with
      | Some hdr' ->
        Mac.equal hdr.Frame.dst hdr'.Frame.dst
        && Mac.equal hdr.Frame.src hdr'.Frame.src
        && hdr'.Frame.ethertype = 0x0800
        && Packet.to_string p = payload
      | None -> false)

let test_fcs_roundtrip () =
  let p = Packet.of_string ~tailroom:4 "some payload" in
  Frame.append_fcs p;
  Alcotest.(check int) "grew" 16 (Packet.length p);
  Alcotest.(check bool) "verifies" true (Frame.check_and_strip_fcs p);
  Alcotest.(check string) "stripped" "some payload" (Packet.to_string p);
  (* now corrupt *)
  Frame.append_fcs p;
  Packet.set_u8 p 0 (Packet.get_u8 p 0 lxor 1);
  Alcotest.(check bool) "detects corruption" false (Frame.check_and_strip_fcs p)

let test_eth_end_to_end () =
  let link = Link.point_to_point Netem.perfect in
  let mac_a = mac_of "02:00:00:00:00:01" and mac_b = mac_of "02:00:00:00:00:02" in
  let eth_a = Eth.create (Device.create (Link.port link 0)) ~mac:mac_a in
  let eth_b = Eth.create (Device.create (Link.port link 1)) ~mac:mac_b in
  let got = ref [] in
  let statuses = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Eth.start_passive eth_b { Fox_eth.Eth.match_proto = 0x0800 }
             (fun conn ->
               ignore conn;
               ( (fun p -> got := Packet.to_string p :: !got),
                 fun s -> statuses := s :: !statuses )));
        let conn =
          Eth.connect eth_a
            { Fox_eth.Eth.dest = mac_b; proto = 0x0800 }
            (fun _ -> (ignore, ignore))
        in
        let p = Eth.allocate_send conn 5 in
        Packet.blit_from_string "hello" 0 p 0 5;
        Eth.send conn p;
        let p2 = Eth.allocate_send conn 5 in
        Packet.blit_from_string "world" 0 p2 0 5;
        Eth.send conn p2)
  in
  Alcotest.(check (list string)) "payloads" [ "hello"; "world" ] (List.rev !got);
  Alcotest.(check (list string)) "status" [ "connected" ]
    (List.rev_map Fox_proto.Status.to_string !statuses);
  Alcotest.(check int) "delivered stat" 2 (Eth.stats eth_b).Fox_eth.Eth.rx_delivered

let test_eth_demux_drops_unknown () =
  let link = Link.point_to_point Netem.perfect in
  let eth_a =
    Eth.create (Device.create (Link.port link 0)) ~mac:(mac_of "02:00:00:00:00:01")
  in
  let eth_b =
    Eth.create (Device.create (Link.port link 1)) ~mac:(mac_of "02:00:00:00:00:02")
  in
  let _ =
    Scheduler.run (fun () ->
        (* no listener on B for this ethertype *)
        let conn =
          Eth.connect eth_a
            { Fox_eth.Eth.dest = mac_of "02:00:00:00:00:02"; proto = 0x9999 }
            (fun _ -> (ignore, ignore))
        in
        Eth.send conn (Eth.allocate_send conn 1);
        (* and one addressed to a third station entirely *)
        let conn2 =
          Eth.connect eth_a
            { Fox_eth.Eth.dest = mac_of "02:00:00:00:00:03"; proto = 0x0800 }
            (fun _ -> (ignore, ignore))
        in
        Eth.send conn2 (Eth.allocate_send conn2 1))
  in
  let s = Eth.stats eth_b in
  Alcotest.(check int) "unknown ethertype" 1 s.Fox_eth.Eth.rx_unknown;
  Alcotest.(check int) "not mine" 1 s.Fox_eth.Eth.rx_not_mine

let test_eth_checked_rejects_corruption () =
  let module EthC = Fox_eth.Eth.Checked in
  let netem = Netem.adverse ~corrupt:1.0 ~seed:11 Netem.perfect in
  let link = Link.point_to_point netem in
  let eth_a =
    EthC.create (Device.create (Link.port link 0)) ~mac:(mac_of "02:00:00:00:00:01")
  in
  let eth_b =
    EthC.create (Device.create (Link.port link 1)) ~mac:(mac_of "02:00:00:00:00:02")
  in
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (EthC.start_passive eth_b { Fox_eth.Eth.match_proto = 0x0800 }
             (fun _ -> ((fun _ -> incr got), ignore)));
        let conn =
          EthC.connect eth_a
            { Fox_eth.Eth.dest = mac_of "02:00:00:00:00:02"; proto = 0x0800 }
            (fun _ -> (ignore, ignore))
        in
        for _ = 1 to 5 do
          EthC.send conn (EthC.allocate_send conn 64)
        done)
  in
  Alcotest.(check int) "nothing delivered" 0 !got;
  (* a flipped bit may land in the MAC header (dropped at demux) or in the
     body (caught by the FCS); either way no corrupt frame gets through *)
  let s = EthC.stats eth_b in
  Alcotest.(check bool) "FCS caught some" true (s.Fox_eth.Eth.rx_bad_crc > 0);
  Alcotest.(check int) "every frame rejected somewhere" 5
    (s.Fox_eth.Eth.rx_bad_crc + s.Fox_eth.Eth.rx_not_mine
    + s.Fox_eth.Eth.rx_unknown)

(* ------------------------------------------------------------------ *)
(* ARP                                                                *)
(* ------------------------------------------------------------------ *)

let test_arp_resolves () =
  let _, a, b = two_hosts () in
  let resolved = ref None in
  let _ =
    Scheduler.run (fun () -> resolved := Arp.resolve a.arp (ip_of "10.0.0.2"))
  in
  (match !resolved with
  | Some mac ->
    Alcotest.(check string) "mac of b" "02:00:00:00:00:02" (Mac.to_string mac)
  | None -> Alcotest.fail "resolution failed");
  Alcotest.(check int) "one request" 1 (Arp.stats a.arp).Fox_arp.Arp.requests_sent;
  Alcotest.(check int) "one reply" 1 (Arp.stats b.arp).Fox_arp.Arp.replies_sent;
  (* second resolution is a cache hit *)
  let _ =
    Scheduler.run (fun () -> ignore (Arp.resolve a.arp (ip_of "10.0.0.2")))
  in
  Alcotest.(check int) "cache hit" 1 (Arp.stats a.arp).Fox_arp.Arp.cache_hits

let test_arp_times_out () =
  let _, a, _ = two_hosts () in
  let resolved = ref (Some Mac.broadcast) in
  let stats =
    Scheduler.run (fun () ->
        (* 10.0.0.99 does not exist *)
        resolved := Arp.resolve a.arp (ip_of "10.0.0.99"))
  in
  Alcotest.(check bool) "failed" true (!resolved = None);
  Alcotest.(check int) "3 requests"
    (1 + 3) (* 1 earlier? no: fresh hosts -> 3 *)
    ((Arp.stats a.arp).Fox_arp.Arp.requests_sent + 1);
  Alcotest.(check bool) "took 3 timeouts" true
    (stats.Scheduler.end_time >= 300_000)

let test_arp_concurrent_waiters_share_one_exchange () =
  let _, a, _b = two_hosts () in
  let results = ref [] in
  let _ =
    Scheduler.run (fun () ->
        for _ = 1 to 5 do
          Scheduler.fork (fun () ->
              let r = Arp.resolve a.arp (ip_of "10.0.0.2") in
              results := r :: !results)
        done)
  in
  Alcotest.(check int) "all resolved" 5
    (List.length (List.filter Option.is_some !results));
  Alcotest.(check int) "single request" 1
    (Arp.stats a.arp).Fox_arp.Arp.requests_sent

let test_arp_cache_expires () =
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let a =
    let dev = Device.create (Link.port link 0) in
    let eth = Eth.create dev ~mac:(mac_of "02:00:00:00:00:01") in
    Arp.create eth ~local_ip:(ip_of "10.0.0.1")
      ~config:{ Fox_arp.Arp.default_config with cache_timeout_us = 1_000_000 }
      ()
  in
  let _b = make_host link 1 ~mac:(mac_of "02:00:00:00:00:02") ~addr:(ip_of "10.0.0.2") in
  let _ =
    Scheduler.run (fun () ->
        ignore (Arp.resolve a (ip_of "10.0.0.2"));
        Alcotest.(check bool) "cached" true
          (Arp.lookup a (ip_of "10.0.0.2") <> None);
        Scheduler.sleep 2_000_000;
        Alcotest.(check bool) "expired" true
          (Arp.lookup a (ip_of "10.0.0.2") = None);
        (* a new resolution re-asks the wire *)
        ignore (Arp.resolve a (ip_of "10.0.0.2")))
  in
  Alcotest.(check int) "two requests" 2 (Arp.stats a).Fox_arp.Arp.requests_sent

let test_arp_static_entry () =
  let _, a, _ = two_hosts () in
  Arp.add_static a.arp (ip_of "10.0.0.77") (mac_of "02:00:00:00:00:77");
  let resolved = ref None in
  let _ =
    Scheduler.run (fun () -> resolved := Arp.resolve a.arp (ip_of "10.0.0.77"))
  in
  Alcotest.(check bool) "static hit" true
    (match !resolved with
    | Some m -> Mac.to_string m = "02:00:00:00:00:77"
    | None -> false);
  Alcotest.(check int) "no request" 0 (Arp.stats a.arp).Fox_arp.Arp.requests_sent

(* ------------------------------------------------------------------ *)
(* IPv4 header / route / frag                                         *)
(* ------------------------------------------------------------------ *)

let header_gen =
  QCheck2.Gen.(
    let* tos = int_bound 255 in
    let* id = int_bound 0xFFFF in
    let* ttl = int_range 1 255 in
    let* proto = int_bound 255 in
    let* src = int_bound 0xFFFFFF in
    let* dst = int_bound 0xFFFFFF in
    let* mf = bool in
    let* off8 = int_bound 100 in
    let* payload = int_bound 400 in
    return (tos, id, ttl, proto, src, dst, mf, off8 * 8, payload))

let ipv4_header_roundtrip =
  qtest "ip: header roundtrip" header_gen
    (fun (tos, id, ttl, proto, src, dst, mf, off, payload) ->
      let hdr =
        {
          Ipv4_header.tos;
          total_length = payload + 20;
          id;
          dont_fragment = false;
          more_fragments = mf;
          fragment_offset = off;
          ttl;
          proto;
          src = Ipv4_addr.of_int src;
          dst = Ipv4_addr.of_int dst;
        }
      in
      let p = Packet.create ~headroom:20 payload in
      Ipv4_header.encode ~checksum:true hdr p;
      match Ipv4_header.decode ~checksum:true p with
      | Ok hdr' -> hdr' = hdr && Packet.length p = payload
      | Error _ -> false)

let test_ipv4_header_checksum_detects () =
  let hdr =
    {
      Ipv4_header.tos = 0;
      total_length = 20;
      id = 99;
      dont_fragment = true;
      more_fragments = false;
      fragment_offset = 0;
      ttl = 64;
      proto = 6;
      src = ip_of "10.0.0.1";
      dst = ip_of "10.0.0.2";
    }
  in
  let p = Packet.create ~headroom:20 0 in
  Ipv4_header.encode ~checksum:true hdr p;
  Packet.set_u8 p 8 7 (* clobber the TTL *);
  match Ipv4_header.decode ~checksum:true p with
  | Error Ipv4_header.Bad_checksum -> ()
  | _ -> Alcotest.fail "corruption not detected"

let test_route_longest_prefix () =
  let gw = ip_of "10.0.0.254" in
  let table =
    Route.create
      [
        { Route.network = ip_of "10.0.0.0"; prefix = 24; gateway = None };
        { Route.network = ip_of "10.0.0.128"; prefix = 25; gateway = Some gw };
        { Route.network = ip_of "0.0.0.0"; prefix = 0; gateway = Some (ip_of "10.0.0.1") };
      ]
  in
  Alcotest.(check (option string)) "on-link"
    (Some "10.0.0.5")
    (Option.map Ipv4_addr.to_string (Route.next_hop table (ip_of "10.0.0.5")));
  Alcotest.(check (option string)) "more specific wins"
    (Some "10.0.0.254")
    (Option.map Ipv4_addr.to_string (Route.next_hop table (ip_of "10.0.0.200")));
  Alcotest.(check (option string)) "default"
    (Some "10.0.0.1")
    (Option.map Ipv4_addr.to_string (Route.next_hop table (ip_of "8.8.8.8")));
  let empty = Route.create [] in
  Alcotest.(check bool) "no route" true
    (Route.next_hop empty (ip_of "1.2.3.4") = None)

let frag_covers =
  qtest "ip: fragments tile the payload"
    QCheck2.Gen.(pair (int_range 1 5000) (int_range 8 1500))
    (fun (size, mtu) ->
      let payload = Packet.of_string (String.init size (fun i -> Char.chr (i land 0xff))) in
      let frags = Fox_ip.Frag.fragment ~mtu ~headroom:0 payload in
      (* offsets contiguous, sizes within mtu, all-but-last have MF and
         8-aligned lengths, reassembled bytes equal original *)
      let rec check expected = function
        | [] -> expected = size
        | (p, off, more) :: rest ->
          off = expected
          && Packet.length p <= mtu
          && (not more || Packet.length p land 7 = 0)
          && (more || rest = [])
          && Packet.to_string p
             = String.sub (Packet.to_string payload) off (Packet.length p)
          && check (off + Packet.length p) rest
      in
      check 0 frags)
  

(* ------------------------------------------------------------------ *)
(* Reassembly unit behaviour                                          *)
(* ------------------------------------------------------------------ *)

let reass_key id =
  { Fox_ip.Reass.src = ip_of "10.0.0.9"; dst = ip_of "10.0.0.1"; proto = 6; id }

let test_reass_out_of_order_completion () =
  let module Reass = Fox_ip.Reass in
  let result = ref None in
  let _ =
    Scheduler.run (fun () ->
        let t = Reass.create () in
        let offer ~offset ~more s =
          Reass.offer t (reass_key 1) ~offset ~more (Packet.of_string s)
        in
        Alcotest.(check bool) "middle first" true
          (offer ~offset:8 ~more:true "BBBBBBBB" = None);
        Alcotest.(check bool) "tail second" true
          (offer ~offset:16 ~more:false "CC" = None);
        result := offer ~offset:0 ~more:true "AAAAAAAA")
  in
  (match !result with
  | Some whole ->
    Alcotest.(check string) "assembled" "AAAAAAAABBBBBBBBCC"
      (Packet.to_string whole)
  | None -> Alcotest.fail "did not complete");
  ()

let test_reass_duplicate_fragment_counted () =
  let module Reass = Fox_ip.Reass in
  let completed = ref false in
  let stats = ref None in
  let _ =
    Scheduler.run (fun () ->
        let t = Reass.create () in
        let offer ~offset ~more s =
          Reass.offer t (reass_key 2) ~offset ~more (Packet.of_string s)
        in
        ignore (offer ~offset:0 ~more:true "XXXXXXXX");
        ignore (offer ~offset:0 ~more:true "XXXXXXXX") (* duplicate *);
        completed := offer ~offset:8 ~more:false "YY" <> None;
        stats := Some (Reass.stats t))
  in
  Alcotest.(check bool) "completed despite dup" true !completed;
  match !stats with
  | Some s ->
    Alcotest.(check int) "dup counted" 1 s.Fox_ip.Reass.duplicate_fragments;
    Alcotest.(check int) "one datagram done" 1 s.Fox_ip.Reass.completed
  | None -> Alcotest.fail "no stats"

(* Overlap policy matrix: keep-first per octet.  A partial overlap is
   trimmed to its fresh bytes (counted as overlapping), while an arrival
   contributing no new octet — exact resend or fully contained — is a
   duplicate.  Either way the datagram must still complete, with the
   first-arrived copy winning every contested octet. *)
let test_reass_overlap_trimmed () =
  let module Reass = Fox_ip.Reass in
  let result = ref None in
  let stats = ref None in
  let _ =
    Scheduler.run (fun () ->
        let t = Reass.create () in
        let offer ~offset ~more s =
          Reass.offer t (reass_key 4) ~offset ~more (Packet.of_string s)
        in
        ignore (offer ~offset:0 ~more:true "AAAAAAAA");
        ignore (offer ~offset:0 ~more:true "AAAAAAAA") (* exact resend *);
        ignore (offer ~offset:2 ~more:true "zzzz") (* fully contained *);
        (* 4..12 collides with held 4..8: only 8..12 is fresh *)
        ignore (offer ~offset:4 ~more:true "bbbbbbbb");
        result := offer ~offset:12 ~more:false "CCCC";
        stats := Some (Reass.stats t))
  in
  (match !result with
  | Some whole ->
    Alcotest.(check string) "first copy wins contested octets"
      "AAAAAAAAbbbbCCCC" (Packet.to_string whole)
  | None -> Alcotest.fail "did not complete");
  match !stats with
  | Some s ->
    Alcotest.(check int) "duplicates" 2 s.Fox_ip.Reass.duplicate_fragments;
    Alcotest.(check int) "overlaps trimmed" 1
      s.Fox_ip.Reass.overlapping_fragments;
    Alcotest.(check int) "completed" 1 s.Fox_ip.Reass.completed;
    Alcotest.(check int) "table emptied" 0 s.Fox_ip.Reass.active
  | None -> Alcotest.fail "no stats"

(* A fragment spanning several held fragments fills exactly the holes
   between them — and since the tail arrived first, that trimmed arrival
   is also the one that completes the datagram. *)
let test_reass_overlap_spanning () =
  let module Reass = Fox_ip.Reass in
  let result = ref None in
  let stats = ref None in
  let _ =
    Scheduler.run (fun () ->
        let t = Reass.create () in
        let offer ~offset ~more s =
          Reass.offer t (reass_key 5) ~offset ~more (Packet.of_string s)
        in
        ignore (offer ~offset:8 ~more:false "TTTT") (* tail first *);
        ignore (offer ~offset:0 ~more:true "AA");
        ignore (offer ~offset:4 ~more:true "CC");
        (* 0..8 over held 0..2 and 4..6: contributes 2..4 and 6..8 *)
        result := offer ~offset:0 ~more:true "xxxxxxxx";
        stats := Some (Reass.stats t))
  in
  (match !result with
  | Some whole ->
    Alcotest.(check string) "holes filled, held bytes kept" "AAxxCCxxTTTT"
      (Packet.to_string whole)
  | None -> Alcotest.fail "did not complete");
  match !stats with
  | Some s ->
    Alcotest.(check int) "one trimmed arrival" 1
      s.Fox_ip.Reass.overlapping_fragments;
    Alcotest.(check int) "no duplicates" 0 s.Fox_ip.Reass.duplicate_fragments;
    Alcotest.(check int) "completed" 1 s.Fox_ip.Reass.completed
  | None -> Alcotest.fail "no stats"

let test_reass_interleaved_datagrams () =
  let module Reass = Fox_ip.Reass in
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        let t = Reass.create () in
        let offer key ~offset ~more s =
          match Reass.offer t (reass_key key) ~offset ~more (Packet.of_string s) with
          | Some whole -> got := (key, Packet.to_string whole) :: !got
          | None -> ()
        in
        offer 1 ~offset:0 ~more:true "1a1a1a1a";
        offer 2 ~offset:0 ~more:true "2a2a2a2a";
        offer 2 ~offset:8 ~more:false "2b";
        offer 1 ~offset:8 ~more:false "1b")
  in
  Alcotest.(check (list (pair int string))) "both complete independently"
    [ (2, "2a2a2a2a2b"); (1, "1a1a1a1a1b") ]
    (List.rev !got)

let reass_random_order =
  qtest ~count:60 "reass: any arrival order completes"
    QCheck2.Gen.(pair (int_range 1 8) nat)
    (fun (nfrags, seed) ->
      let module Reass = Fox_ip.Reass in
      let rng = Fox_basis.Rng.create seed in
      let frags =
        List.init nfrags (fun i ->
            (i * 8, i < nfrags - 1, String.make 8 (Char.chr (Char.code 'a' + i))))
      in
      (* shuffle deterministically *)
      let arr = Array.of_list frags in
      for i = Array.length arr - 1 downto 1 do
        let j = Fox_basis.Rng.int rng (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      let expected = String.concat "" (List.map (fun (_, _, s) -> s) frags) in
      let result = ref None in
      let _ =
        Scheduler.run (fun () ->
            let t = Reass.create () in
            Array.iter
              (fun (offset, more, s) ->
                match
                  Reass.offer t (reass_key 3) ~offset ~more (Packet.of_string s)
                with
                | Some whole -> result := Some (Packet.to_string whole)
                | None -> ())
              arr)
      in
      !result = Some expected)

(* ------------------------------------------------------------------ *)
(* IP end-to-end                                                      *)
(* ------------------------------------------------------------------ *)

let test_ip_end_to_end () =
  let _, a, b = two_hosts () in
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive b.ip { Fox_ip.Ip.match_proto = 200 }
             (fun _conn -> ((fun p -> got := Packet.to_string p :: !got), ignore)));
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 200 }
            (fun _ -> (ignore, ignore))
        in
        let p = Ip.allocate_send conn 6 in
        Packet.blit_from_string "datagr" 0 p 0 6;
        Ip.send conn p)
  in
  Alcotest.(check (list string)) "delivered" [ "datagr" ] !got;
  Alcotest.(check int) "tx count" 1 (Ip.stats a.ip).Fox_ip.Ip.tx_datagrams

let test_ip_bidirectional_reply () =
  let _, a, b = two_hosts () in
  let got_b = ref [] and got_a = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive b.ip { Fox_ip.Ip.match_proto = 200 }
             (fun conn ->
               ( (fun p ->
                   got_b := Packet.to_string p :: !got_b;
                   (* answer on the passively created connection *)
                   let r = Ip.allocate_send conn 3 in
                   Packet.blit_from_string "ack" 0 r 0 3;
                   Ip.send conn r),
                 ignore )));
        ignore
          (Ip.start_passive a.ip { Fox_ip.Ip.match_proto = 200 }
             (fun _ -> ((fun p -> got_a := Packet.to_string p :: !got_a), ignore)));
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 200 }
            (fun _ -> ((fun p -> got_a := Packet.to_string p :: !got_a), ignore))
        in
        let p = Ip.allocate_send conn 4 in
        Packet.blit_from_string "ping" 0 p 0 4;
        Ip.send conn p)
  in
  Alcotest.(check (list string)) "b got" [ "ping" ] !got_b;
  Alcotest.(check (list string)) "a got reply" [ "ack" ] !got_a

let test_ip_fragmentation_roundtrip () =
  let _, a, b = two_hosts () in
  let payload = String.init 4000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive b.ip { Fox_ip.Ip.match_proto = 201 }
             (fun _ -> ((fun p -> got := Packet.to_string p :: !got), ignore)));
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 201 }
            (fun _ -> (ignore, ignore))
        in
        let p = Ip.allocate_send conn (String.length payload) in
        Packet.blit_from_string payload 0 p 0 (String.length payload);
        Ip.send conn p)
  in
  Alcotest.(check int) "reassembled once" 1 (List.length !got);
  Alcotest.(check bool) "payload intact" true (List.hd !got = payload);
  Alcotest.(check int) "fragmented" 1 (Ip.stats a.ip).Fox_ip.Ip.tx_fragmented;
  Alcotest.(check bool) "multiple fragments on wire" true
    ((Ip.stats b.ip).Fox_ip.Ip.rx_fragments >= 3);
  Alcotest.(check int) "reassembly completed" 1
    (Ip.reassembly_stats b.ip).Fox_ip.Reass.completed

let test_ip_reassembly_timeout () =
  (* Lose some fragments forever: reassembly must give up and count it. *)
  let netem = Netem.adverse ~loss:0.4 ~seed:5 Netem.ethernet_10mbps in
  let _, a, b = two_hosts ~netem () in
  let got = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive b.ip { Fox_ip.Ip.match_proto = 201 }
             (fun _ -> ((fun _ -> incr got), ignore)));
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.2"; proto = 201 }
            (fun _ -> (ignore, ignore))
        in
        for _ = 1 to 10 do
          (try Ip.send conn (Ip.allocate_send conn 4000) with _ -> ())
        done)
  in
  let r = Ip.reassembly_stats b.ip in
  Alcotest.(check bool) "some datagrams incomplete" true
    (r.Fox_ip.Reass.timed_out > 0);
  Alcotest.(check bool) "completed + timed out <= sent" true
    (r.Fox_ip.Reass.completed + r.Fox_ip.Reass.timed_out <= 10)

let test_ip_self_delivery () =
  let _, a, _ = two_hosts () in
  let got = ref [] in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Ip.start_passive a.ip { Fox_ip.Ip.match_proto = 99 }
             (fun _ -> ((fun p -> got := Packet.to_string p :: !got), ignore)));
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "10.0.0.1"; proto = 99 }
            (fun _ -> ((fun p -> got := Packet.to_string p :: !got), ignore))
        in
        let p = Ip.allocate_send conn 4 in
        Packet.blit_from_string "self" 0 p 0 4;
        Ip.send conn p)
  in
  Alcotest.(check (list string)) "looped back" [ "self" ] !got;
  (* nothing touched the wire *)
  Alcotest.(check int) "no frames" 0 (Device.stats a.dev).Device.tx_frames

let test_ip_no_route () =
  let _, a, _ = two_hosts () in
  let raised = ref false in
  let _ =
    Scheduler.run (fun () ->
        let conn =
          Ip.connect a.ip
            { Fox_ip.Ip.dest = ip_of "192.168.9.9"; proto = 99 }
            (fun _ -> (ignore, ignore))
        in
        try Ip.send conn (Ip.allocate_send conn 1)
        with Fox_proto.Common.Send_failed _ -> raised := true)
  in
  Alcotest.(check bool) "send failed" true !raised

(* ------------------------------------------------------------------ *)
(* ICMP                                                               *)
(* ------------------------------------------------------------------ *)

let test_icmp_ping () =
  let _, a, b = two_hosts () in
  let rtt = ref None in
  let _ =
    Scheduler.run (fun () ->
        let icmp_a = Icmp.create a.ip in
        let _icmp_b = Icmp.create b.ip in
        rtt := Icmp.ping icmp_a (ip_of "10.0.0.2") ~len:56 ~timeout_us:1_000_000)
  in
  match !rtt with
  | Some us -> Alcotest.(check bool) "plausible rtt" true (us > 0 && us < 10_000)
  | None -> Alcotest.fail "ping timed out"

let test_icmp_ping_timeout () =
  let _, a, _ = two_hosts () in
  let rtt = ref (Some 1) in
  let _ =
    Scheduler.run (fun () ->
        let icmp_a = Icmp.create a.ip in
        (* no ICMP instance on b: requests die there *)
        rtt := Icmp.ping icmp_a (ip_of "10.0.0.2") ~len:8 ~timeout_us:50_000)
  in
  Alcotest.(check bool) "timed out" true (!rtt = None)

(* ------------------------------------------------------------------ *)
(* TCP demultiplexing through Figure 5's hash and equal               *)
(* ------------------------------------------------------------------ *)

module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

(* The SYN cache is on, so concurrent handshakes that differ only in the
   peer host must also be told apart by the cache lookup. *)
module Demux_params = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      syn_cache = true;
      time_wait_us = 1_000_000;
    }
end

module Tcp =
  Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno) (Demux_params)

(* An auxiliary structure whose [hash] sends every host to 0: only
   [equal] can tell two peers apart, so a table that did not consult it
   would hand both peers one TCB.  Unknown segments are dropped here, not
   answered, to cover the other arm of [handle_unknown]. *)
module Collide_aux = struct
  include Ip_aux

  let hash _ = 0
end

module Collide_tcp =
  Fox_tcp.Tcp.Make (Ip) (Collide_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params =
        { Demux_params.params with abort_unknown_connections = false }
    end)

(* What the demux scenario needs of an engine. *)
module type TCP = sig
  type t
  type connection
  type listener
  type address = { peer : Ipv4_addr.t; port : int; local_port : int option }
  type pattern = { local_port : int }
  type handler =
    connection -> (Packet.t -> unit) * (Fox_proto.Status.t -> unit)

  val create : Ip.t -> t
  val connect : t -> address -> handler -> connection
  val start_passive : t -> pattern -> handler -> listener
  val allocate_send : connection -> int -> Packet.t
  val send : connection -> Packet.t -> unit
  val endpoints : connection -> Ipv4_addr.t * int * int
  val stats : t -> Fox_tcp.Tcp.stats
end

let tcp_host link i =
  make_host link i
    ~mac:(mac_of (Printf.sprintf "02:00:00:00:00:%02x" (i + 1)))
    ~addr:(ip_of (Printf.sprintf "10.0.0.%d" (i + 1)))

module Demux (T : TCP) = struct
  let send_string conn s =
    let p = T.allocate_send conn (String.length s) in
    Packet.blit_from_string s 0 p 0 (String.length s);
    T.send conn p

  (* Server S (10.0.0.1) echoes every segment; client A (10.0.0.2) opens
     two connections from ports 5000 and 5064, client B (10.0.0.3) one
     from port 5000.  A:5000 and B:5000 differ only in the peer host,
     A:5000 and A:5064 only in one port.  Then A, from port 5000, tries
     port 144 of S: a 4-tuple one port away from a live connection.
     Ports 64 apart share a bucket of the engine's initial 64-bucket
     table, so the port comparisons of its [equal] are what separate
     those keys. *)
  let run ~answers_unknown () =
    let link = Link.hub ~ports:3 Netem.ethernet_10mbps in
    let s = T.create (tcp_host link 0).ip in
    let a = T.create (tcp_host link 1).ip in
    let b = T.create (tcp_host link 2).ip in
    let at_server = Hashtbl.create 4 and at_client = Hashtbl.create 4 in
    let append tbl k text =
      let prev = Option.value (Hashtbl.find_opt tbl k) ~default:"" in
      Hashtbl.replace tbl k (prev ^ text)
    in
    let unknown_refused = ref false in
    let server conn =
      let peer, _, remote_port = T.endpoints conn in
      ( (fun p ->
          let text = Packet.to_string p in
          append at_server (Ipv4_addr.to_string peer, remote_port) text;
          send_string conn ("echo:" ^ text)),
        ignore )
    in
    let open_and_send tcp ~name ~local_port =
      Scheduler.fork (fun () ->
          let conn =
            T.connect tcp
              { T.peer = ip_of "10.0.0.1"; port = 80;
                local_port = Some local_port }
              (fun _ -> ((fun p -> append at_client name (Packet.to_string p)),
                         ignore))
          in
          send_string conn name)
    in
    let _ =
      Scheduler.run (fun () ->
          ignore (T.start_passive s { T.local_port = 80 } server);
          open_and_send a ~name:"a5000" ~local_port:5000;
          open_and_send b ~name:"b5000" ~local_port:5000;
          open_and_send a ~name:"a5064" ~local_port:5064;
          Scheduler.sleep 500_000;
          Scheduler.fork (fun () ->
              match
                T.connect a
                  { T.peer = ip_of "10.0.0.1"; port = 144;
                    local_port = Some 5000 }
                  (fun _ -> (ignore, ignore))
              with
              | _ -> ()
              | exception Fox_proto.Common.Connection_failed _ ->
                unknown_refused := true);
          Scheduler.sleep 500_000;
          ignore (Scheduler.stop ()))
    in
    let server_got peer port =
      Option.value (Hashtbl.find_opt at_server (peer, port)) ~default:"<none>"
    in
    List.iter
      (fun (name, peer, port) ->
        Alcotest.(check string) (name ^ " at server") name
          (server_got peer port))
      [ ("a5000", "10.0.0.2", 5000); ("b5000", "10.0.0.3", 5000);
        ("a5064", "10.0.0.2", 5064) ];
    List.iter
      (fun name ->
        Alcotest.(check string) (name ^ " echo") ("echo:" ^ name)
          (Option.value (Hashtbl.find_opt at_client name) ~default:"<none>"))
      [ "a5000"; "b5000"; "a5064" ];
    let st = T.stats s in
    Alcotest.(check int) "three TCBs" 3 st.Fox_tcp.Tcp.active_conns;
    if answers_unknown then begin
      Alcotest.(check bool) "unknown 4-tuple refused" true !unknown_refused;
      Alcotest.(check int) "one RST" 1 st.Fox_tcp.Tcp.rsts_sent
    end
    else begin
      Alcotest.(check int) "no RST" 0 st.Fox_tcp.Tcp.rsts_sent;
      Alcotest.(check bool) "unknown SYNs dropped" true
        (st.Fox_tcp.Tcp.unknown_dropped > 0)
    end
end

let test_tcp_demux () =
  let module D = Demux (Tcp) in
  D.run ~answers_unknown:true ()

let test_tcp_demux_colliding_hash () =
  let module D = Demux (Collide_tcp) in
  D.run ~answers_unknown:false ()

(* ------------------------------------------------------------------ *)
(* TCP executor: an upcall that raises                                 *)
(* ------------------------------------------------------------------ *)

exception Upcall_raised

(* IP with TCP's receive upcall guarded: an exception that escapes TCP
   stops at the IP boundary instead of ending the scheduler run, so the
   connection's next segment can show whether the executor recovered. *)
module Guarded_ip = struct
  include Ip

  let escaped = ref 0

  let guard (h : Ip.handler) : Ip.handler =
   fun conn ->
    let data, status = h conn in
    ((fun p -> try data p with Upcall_raised -> incr escaped), status)

  let connect t a h = Ip.connect t a (guard h)
  let start_passive t p h = Ip.start_passive t p (guard h)
end

module Guarded_tcp =
  Fox_tcp.Tcp.Make (Guarded_ip) (Ip_aux) (Fox_tcp.Congestion.Reno)
    (Demux_params)

(* The server's [raise_in] upcall raises once; the client then sends a
   second segment, which the server must still receive. *)
let upcall_raises_once raise_in () =
  Guarded_ip.escaped := 0;
  let link = Link.point_to_point Netem.ethernet_10mbps in
  let s = Guarded_tcp.create (tcp_host link 0).ip in
  let c = Guarded_tcp.create (tcp_host link 1).ip in
  let got = Buffer.create 16 and raised = ref false in
  let raise_once () =
    if not !raised then begin
      raised := true;
      raise Upcall_raised
    end
  in
  let server _ =
    ( (fun p ->
        Buffer.add_string got (Packet.to_string p);
        if raise_in = `Data then raise_once ()),
      fun status ->
        if raise_in = `Status && status = Fox_proto.Status.Connected then
          raise_once () )
  in
  let module D = Demux (Guarded_tcp) in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Guarded_tcp.start_passive s { Guarded_tcp.local_port = 80 } server);
        let conn =
          Guarded_tcp.connect c
            { Guarded_tcp.peer = ip_of "10.0.0.1"; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        D.send_string conn "one";
        Scheduler.sleep 200_000;
        D.send_string conn "two";
        Scheduler.sleep 200_000;
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check int) "the upcall raised once" 1 !Guarded_ip.escaped;
  Alcotest.(check string) "later segments still processed" "onetwo"
    (Buffer.contents got)

let () =
  Alcotest.run "fox_net"
    [
      ( "link",
        [
          Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "serialisation" `Quick test_link_serialises_back_to_back;
          Alcotest.test_case "deterministic loss" `Quick test_link_loss_deterministic;
          Alcotest.test_case "corruption" `Quick test_link_corrupt_changes_bits;
          Alcotest.test_case "hub broadcast" `Quick test_hub_broadcast;
          Alcotest.test_case "unbounded burst forks" `Quick
            test_link_unbounded_burst_forks;
          Alcotest.test_case "finite queue burst" `Quick
            test_link_finite_queue_burst;
          Alcotest.test_case "hub census tie" `Quick test_hub_census_tie;
          Alcotest.test_case "device" `Quick test_device_counts_and_down;
          Alcotest.test_case "pcap capture" `Quick test_pcap_capture;
          Alcotest.test_case "pcap of tcp handshake" `Quick
            test_pcap_of_tcp_handshake;
        ] );
      ( "eth",
        [
          Alcotest.test_case "mac" `Quick test_mac_roundtrip;
          frame_roundtrip;
          Alcotest.test_case "fcs" `Quick test_fcs_roundtrip;
          Alcotest.test_case "end to end" `Quick test_eth_end_to_end;
          Alcotest.test_case "demux drops" `Quick test_eth_demux_drops_unknown;
          Alcotest.test_case "checked rejects corruption" `Quick
            test_eth_checked_rejects_corruption;
        ] );
      ( "arp",
        [
          Alcotest.test_case "resolves" `Quick test_arp_resolves;
          Alcotest.test_case "times out" `Quick test_arp_times_out;
          Alcotest.test_case "waiters share exchange" `Quick
            test_arp_concurrent_waiters_share_one_exchange;
          Alcotest.test_case "static entry" `Quick test_arp_static_entry;
          Alcotest.test_case "cache expiry" `Quick test_arp_cache_expires;
        ] );
      ( "ip-codec",
        [
          ipv4_header_roundtrip;
          Alcotest.test_case "checksum detects" `Quick
            test_ipv4_header_checksum_detects;
          Alcotest.test_case "route" `Quick test_route_longest_prefix;
          frag_covers;
        ] );
      ( "reass",
        [
          Alcotest.test_case "out of order" `Quick
            test_reass_out_of_order_completion;
          Alcotest.test_case "duplicates" `Quick
            test_reass_duplicate_fragment_counted;
          Alcotest.test_case "overlap trimmed" `Quick test_reass_overlap_trimmed;
          Alcotest.test_case "overlap spanning" `Quick
            test_reass_overlap_spanning;
          Alcotest.test_case "interleaved" `Quick test_reass_interleaved_datagrams;
          reass_random_order;
        ] );
      ( "ip",
        [
          Alcotest.test_case "end to end" `Quick test_ip_end_to_end;
          Alcotest.test_case "bidirectional" `Quick test_ip_bidirectional_reply;
          Alcotest.test_case "fragmentation" `Quick test_ip_fragmentation_roundtrip;
          Alcotest.test_case "reassembly timeout" `Quick test_ip_reassembly_timeout;
          Alcotest.test_case "self delivery" `Quick test_ip_self_delivery;
          Alcotest.test_case "no route" `Quick test_ip_no_route;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "ping" `Quick test_icmp_ping;
          Alcotest.test_case "ping timeout" `Quick test_icmp_ping_timeout;
        ] );
      ( "tcp-demux",
        [
          Alcotest.test_case "host and port both key" `Quick test_tcp_demux;
          Alcotest.test_case "colliding hash uses equal" `Quick
            test_tcp_demux_colliding_hash;
        ] );
      ( "tcp-executor",
        [
          Alcotest.test_case "data upcall raises once" `Quick
            (upcall_raises_once `Data);
          Alcotest.test_case "status upcall raises once" `Quick
            (upcall_raises_once `Status);
        ] );
    ]
