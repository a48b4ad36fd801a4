(* Stack-level tests: fox <-> baseline interoperability, the metering
   virtual protocol, the cost model, and the experiment harness itself. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Experiments = Fox_stack.Experiments
module Cost_model = Fox_stack.Cost_model
module Ipv4_addr = Fox_ip.Ipv4_addr
module Netem = Fox_dev.Netem

let ip_of = Ipv4_addr.of_string

(* ------------------------------------------------------------------ *)
(* Interoperability: the two engines speak the same TCP               *)
(* ------------------------------------------------------------------ *)

(* A mixed pair: host a runs the structured engine, host b the baseline. *)
let mixed_pair () =
  let link = Fox_dev.Link.point_to_point Netem.ethernet_10mbps in
  let route =
    Fox_ip.Route.local ~network:(ip_of "10.0.0.0") ~prefix:24
  in
  let a =
    Network.create_host ~engine:Network.Fox link 0
      ~mac:(Fox_eth.Mac.of_string "02:00:00:00:00:01")
      ~addr:(ip_of "10.0.0.1") ~route
  in
  let b =
    Network.create_host ~engine:Network.Baseline link 1
      ~mac:(Fox_eth.Mac.of_string "02:00:00:00:00:02")
      ~addr:(ip_of "10.0.0.2") ~route
  in
  (a, b)

let test_fox_client_baseline_server () =
  let a, b = mixed_pair () in
  let buf = Buffer.create 64 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Baseline_tcp.start_passive (Network.baseline_tcp b)
             { Stack.Baseline_tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Stack.Tcp.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let msg = "structured client, monolithic server" in
        let p = Stack.Tcp.allocate_send conn (String.length msg) in
        Packet.blit_from_string msg 0 p 0 (String.length msg);
        Stack.Tcp.send conn p;
        Scheduler.sleep 1_000_000)
  in
  Alcotest.(check string) "interop payload"
    "structured client, monolithic server" (Buffer.contents buf)

let test_baseline_client_fox_server () =
  let a, b = mixed_pair () in
  let buf = Buffer.create 1024 in
  let payload = String.init 30_000 (fun i -> Char.chr (i * 13 land 0xff)) in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Tcp.start_passive (Network.fox_tcp a)
             { Stack.Tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Stack.Baseline_tcp.connect (Network.baseline_tcp b)
            { Stack.Baseline_tcp.peer = ip_of "10.0.0.1"; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Stack.Baseline_tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Stack.Baseline_tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Stack.Baseline_tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 5_000_000)
  in
  Alcotest.(check bool) "bulk interop intact" true (Buffer.contents buf = payload)

let test_interop_under_loss () =
  let link =
    Fox_dev.Link.point_to_point
      (Netem.adverse ~loss:0.05 ~seed:17 Netem.ethernet_10mbps)
  in
  let route = Fox_ip.Route.local ~network:(ip_of "10.0.0.0") ~prefix:24 in
  let a =
    Network.create_host ~engine:Network.Fox link 0
      ~mac:(Fox_eth.Mac.of_string "02:00:00:00:00:01")
      ~addr:(ip_of "10.0.0.1") ~route
  in
  let b =
    Network.create_host ~engine:Network.Baseline link 1
      ~mac:(Fox_eth.Mac.of_string "02:00:00:00:00:02")
      ~addr:(ip_of "10.0.0.2") ~route
  in
  let buf = Buffer.create 1024 in
  let payload = String.init 40_000 (fun i -> Char.chr (i * 19 land 0xff)) in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Baseline_tcp.start_passive (Network.baseline_tcp b)
             { Stack.Baseline_tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Stack.Tcp.connect (Network.fox_tcp a)
            { Stack.Tcp.peer = ip_of "10.0.0.2"; port = 80; local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Stack.Tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Stack.Tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Stack.Tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 200_000_000)
  in
  Alcotest.(check bool) "interop survives loss" true
    (Buffer.contents buf = payload)

(* ------------------------------------------------------------------ *)
(* The monolithic baseline on its own                                 *)
(* ------------------------------------------------------------------ *)

let baseline_pair () = Network.pair ~engine:Network.Baseline ()

let test_baseline_pair_transfer_and_close () =
  let _, a, b = baseline_pair () in
  let buf = Buffer.create 1024 in
  let statuses = ref [] in
  let payload = String.init 60_000 (fun i -> Char.chr (i * 29 land 0xff)) in
  let final_state = ref "?" in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Baseline_tcp.start_passive (Network.baseline_tcp b)
             { Stack.Baseline_tcp.local_port = 80 }
             (fun conn ->
               ( (fun p -> Buffer.add_string buf (Packet.to_string p)),
                 fun s ->
                   statuses := s :: !statuses;
                   if s = Fox_proto.Status.Remote_close then
                     Stack.Baseline_tcp.close conn )));
        let conn =
          Stack.Baseline_tcp.connect (Network.baseline_tcp a)
            { Stack.Baseline_tcp.peer = ip_of "10.0.0.2"; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Stack.Baseline_tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Stack.Baseline_tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Stack.Baseline_tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 2_000_000;
        Stack.Baseline_tcp.close conn;
        Scheduler.sleep 200_000_000 (* through TIME-WAIT *);
        final_state := Stack.Baseline_tcp.state_of conn)
  in
  Alcotest.(check bool) "payload intact" true (Buffer.contents buf = payload);
  Alcotest.(check bool) "peer saw the close" true
    (List.mem Fox_proto.Status.Remote_close !statuses);
  Alcotest.(check string) "initiator fully closed" "CLOSED" !final_state

let test_baseline_recovers_from_loss () =
  let link_cfg =
    Netem.adverse ~loss:0.05 ~seed:23 Netem.ethernet_10mbps
  in
  let _, a, b = Network.pair ~engine:Network.Baseline ~netem:link_cfg () in
  let buf = Buffer.create 1024 in
  let payload = String.init 50_000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let rtx = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Baseline_tcp.start_passive (Network.baseline_tcp b)
             { Stack.Baseline_tcp.local_port = 80 }
             (fun _ ->
               ((fun p -> Buffer.add_string buf (Packet.to_string p)), ignore)));
        let conn =
          Stack.Baseline_tcp.connect (Network.baseline_tcp a)
            { Stack.Baseline_tcp.peer = ip_of "10.0.0.2"; port = 80;
              local_port = None }
            (fun _ -> (ignore, ignore))
        in
        let mss = Stack.Baseline_tcp.max_packet_size conn in
        let off = ref 0 in
        while !off < String.length payload do
          let n = min mss (String.length payload - !off) in
          let p = Stack.Baseline_tcp.allocate_send conn n in
          Packet.blit_from_string payload !off p 0 n;
          Stack.Baseline_tcp.send conn p;
          off := !off + n
        done;
        Scheduler.sleep 200_000_000;
        rtx := Stack.Baseline_tcp.retransmissions_of conn)
  in
  Alcotest.(check bool) "intact" true (Buffer.contents buf = payload);
  Alcotest.(check bool) "recovered via retransmission" true (!rtx > 0)

let test_baseline_refuses_closed_port () =
  let _, a, _b = baseline_pair () in
  let refused = ref false in
  let _ =
    Scheduler.run (fun () ->
        try
          ignore
            (Stack.Baseline_tcp.connect (Network.baseline_tcp a)
               { Stack.Baseline_tcp.peer = ip_of "10.0.0.2"; port = 4242;
                 local_port = None }
               (fun _ -> (ignore, ignore)))
        with Fox_proto.Common.Connection_failed _ -> refused := true)
  in
  Alcotest.(check bool) "refused" true !refused

(* ------------------------------------------------------------------ *)
(* The metering virtual protocol                                      *)
(* ------------------------------------------------------------------ *)

let test_meter_counts_bytes () =
  (* run a transfer on a costed pair and confirm every Table 2 component
     accumulated charge on both hosts *)
  let _, sender, receiver =
    Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
  in
  let result =
    Experiments.Fox_run.transfer ~sender ~receiver ~bytes:50_000 ()
  in
  Alcotest.(check bool) "elapsed positive" true (result.Experiments.elapsed_us > 0);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " charged on sender") true
        (Counters.total sender.Network.counters name > 0);
      Alcotest.(check bool) (name ^ " charged on receiver") true
        (Counters.total receiver.Network.counters name > 0))
    (Cost_model.rows Cost_model.fox);
  Alcotest.(check bool) "counter overhead estimated" true
    (Counters.total sender.Network.counters "counters (est.)" > 0)

let test_silent_meter_costs_nothing () =
  let _, sender, receiver = Network.pair ~engine:Network.Fox () in
  let result =
    Experiments.Fox_run.transfer ~sender ~receiver ~bytes:50_000 ()
  in
  Alcotest.(check int) "no virtual charges" 0
    (Counters.grand_total sender.Network.counters);
  (* an uncosted 50 KB at 10 Mb/s is on the order of 50 ms *)
  Alcotest.(check bool) "fast without cost model" true
    (result.Experiments.elapsed_us < 1_000_000)

(* ------------------------------------------------------------------ *)
(* The experiment harness                                             *)
(* ------------------------------------------------------------------ *)

let test_transfer_result_consistency () =
  let _, sender, receiver = Network.pair ~engine:Network.Fox () in
  let r = Experiments.Fox_run.transfer ~sender ~receiver ~bytes:100_000 () in
  Alcotest.(check int) "bytes" 100_000 r.Experiments.bytes;
  Alcotest.(check bool) "throughput consistent" true
    (abs_float
       (r.Experiments.throughput_mbps
       -. (800_000.0 /. float_of_int r.Experiments.elapsed_us))
    < 0.01);
  Alcotest.(check bool) "sender sent enough segments" true
    (r.Experiments.sender_segments >= 100_000 / 1460)

let test_table1_shape () =
  (* the headline result: the monolithic baseline outperforms the
     structured implementation under the calibrated cost models, with
     throughput ratio and RTT ratio in the paper's direction *)
  let fox_tp, fox_rtt, base_tp, base_rtt =
    Experiments.table1 ~bytes:200_000 ()
  in
  Alcotest.(check bool) "baseline faster" true
    (base_tp.Experiments.throughput_mbps
    > 2.0 *. fox_tp.Experiments.throughput_mbps);
  Alcotest.(check bool) "fox RTT much larger" true
    (fox_rtt.Experiments.mean_rtt_us > 3 * base_rtt.Experiments.mean_rtt_us);
  Alcotest.(check bool) "fox rtt tens of ms" true
    (fox_rtt.Experiments.mean_rtt_us > 10_000
    && fox_rtt.Experiments.mean_rtt_us < 100_000)

(* Table 1 at its published size, pinned exactly: every Section 5
   transfer in the harness goes through [Experiments.Run.transfer], so a
   change to that loop, to either engine or to the cost models that
   moves a single segment or microsecond shows here.  (ARP holds the
   fox row's SYN on the pending entry instead of blocking its sender,
   so TCP stamps it before the ARP exchange and its first RTT sample
   spans that exchange; the transfer takes 124 us more than when the
   sender waited.) *)
let test_table1_pinned () =
  let fox_tp, fox_rtt, base_tp, base_rtt = Experiments.table1 () in
  let pin name (tp : Experiments.transfer_result)
      (rtt : Experiments.rtt_result) ~elapsed_us ~segs ~rtx ~rtt_us =
    Alcotest.(check int) (name ^ " elapsed_us") elapsed_us
      tp.Experiments.elapsed_us;
    Alcotest.(check int) (name ^ " sender segments") segs
      tp.Experiments.sender_segments;
    Alcotest.(check int) (name ^ " retransmissions") rtx
      tp.Experiments.retransmissions;
    Alcotest.(check int) (name ^ " mean rtt") rtt_us
      rtt.Experiments.mean_rtt_us
  in
  pin "fox" fox_tp fox_rtt ~elapsed_us:18_182_664 ~segs:687 ~rtx:1
    ~rtt_us:33_553;
  pin "baseline" base_tp base_rtt ~elapsed_us:3_589_887 ~segs:686 ~rtx:0
    ~rtt_us:4_979

let test_table2_shape () =
  let result, sender_pct, _receiver_pct = Experiments.table2 ~bytes:200_000 () in
  Alcotest.(check bool) "ran" true (result.Experiments.elapsed_us > 0);
  let pct name =
    match List.find_opt (fun (n, _, _) -> n = name) sender_pct with
    | Some (_, p, _) -> p
    | None -> 0.0
  in
  (* the paper's ordering: TCP dominates; IP, eth and data-touching are
     each mid-single-digits to low-teens; everything well under 100 *)
  Alcotest.(check bool) "tcp is the largest row" true
    (List.for_all
       (fun (n, p, _) -> n = "TCP" || p <= pct "TCP")
       sender_pct);
  Alcotest.(check bool) "tcp > 10%" true (pct "TCP" > 10.0);
  Alcotest.(check bool) "copy > checksum" true (pct "copy" > pct "checksum");
  Alcotest.(check bool) "sane total" true
    (List.fold_left (fun acc (_, p, _) -> acc +. p) 0.0 sender_pct < 110.0)

let test_lan_hosts_talk () =
  let _, hosts = Network.lan ~hosts:4 ~engine:Network.Fox () in
  match hosts with
  | h1 :: rest ->
    let served = ref 0 in
    let _ =
      Scheduler.run (fun () ->
          ignore
            (Stack.Tcp.start_passive (Network.fox_tcp h1)
               { Stack.Tcp.local_port = 80 }
               (fun _ -> ((fun _ -> incr served), ignore)));
          List.iter
            (fun h ->
              Scheduler.fork (fun () ->
                  let conn =
                    Stack.Tcp.connect (Network.fox_tcp h)
                      { Stack.Tcp.peer = h1.Network.addr; port = 80;
                        local_port = None }
                      (fun _ -> (ignore, ignore))
                  in
                  let p = Stack.Tcp.allocate_send conn 5 in
                  Packet.blit_from_string "hello" 0 p 0 5;
                  Stack.Tcp.send conn p))
            rest;
          Scheduler.sleep 2_000_000)
    in
    Alcotest.(check int) "three clients served" 3 !served
  | [] -> Alcotest.fail "no hosts"

let () =
  Alcotest.run "fox_stack"
    [
      ( "interop",
        [
          Alcotest.test_case "fox -> baseline" `Quick
            test_fox_client_baseline_server;
          Alcotest.test_case "baseline -> fox bulk" `Quick
            test_baseline_client_fox_server;
          Alcotest.test_case "interop under loss" `Quick test_interop_under_loss;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "transfer and close" `Quick
            test_baseline_pair_transfer_and_close;
          Alcotest.test_case "loss recovery" `Quick
            test_baseline_recovers_from_loss;
          Alcotest.test_case "refuses closed port" `Quick
            test_baseline_refuses_closed_port;
        ] );
      ( "meter",
        [
          Alcotest.test_case "charges all components" `Quick
            test_meter_counts_bytes;
          Alcotest.test_case "silent is free" `Quick
            test_silent_meter_costs_nothing;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "result consistency" `Quick
            test_transfer_result_consistency;
          Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
          Alcotest.test_case "table 2 shape" `Quick test_table2_shape;
          Alcotest.test_case "4-host lan" `Quick test_lan_hosts_talk;
          Alcotest.test_case "table 1 pinned" `Quick test_table1_pinned;
        ] );
    ]
