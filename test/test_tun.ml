(* Interoperability with the real Linux kernel over a TAP device: ARP,
   ICMP and TCP against the kernel's own stack.  Skipped (as a passing
   no-op) when /dev/net/tun is unavailable or we lack CAP_NET_ADMIN. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Device = Fox_dev.Device
module Stack = Fox_stack.Stack
module Tun = Fox_tun.Tun
module Ipv4_addr = Fox_ip.Ipv4_addr

let kernel_ip = "10.98.0.1"

let fox_ip = "10.98.0.2"

let tap_available =
  lazy
    (try
       let t = Tun.open_tap () in
       Tun.close t;
       true
     with _ -> false)

type kernel_host = {
  tap : Tun.t;
  arp : Stack.Arp.t;
  icmp : Stack.Icmp.t;
  tcp : Stack.Tcp.t;
}

let build_stack () =
  let tap = Tun.open_tap () in
  Tun.configure tap ~ip:kernel_ip ~prefix:24;
  let dev = Device.create ~mtu:1514 (Tun.port tap) in
  let eth =
    Stack.Eth.create dev ~mac:(Fox_eth.Mac.of_string "02:f0:0d:00:00:42")
  in
  let arp = Stack.Arp.create eth ~local_ip:(Ipv4_addr.of_string fox_ip) () in
  let marp = Stack.Metered_arp.create arp Fox_proto.Meter.silent in
  let ip =
    Stack.Ip.create marp
      {
        Stack.Ip.local_ip = Ipv4_addr.of_string fox_ip;
        route =
          Fox_ip.Route.local ~network:(Ipv4_addr.of_string "10.98.0.0")
            ~prefix:24;
        lower_address = Fun.id;
        lower_pattern = ();
      }
  in
  let mip =
    Stack.Metered_ip.create ~probe:"ip.tun" ip Fox_proto.Meter.silent
  in
  let icmp = Stack.Icmp.create ip in
  let tcp = Stack.Tcp.create mip in
  { tap; arp; icmp; tcp }

let with_tap f () =
  if not (Lazy.force tap_available) then ()
  else begin
    let host = build_stack () in
    Fun.protect ~finally:(fun () -> Tun.close host.tap) (fun () -> f host)
  end

let test_arp_resolves_kernel host =
  let resolved = ref None in
  let _ =
    Scheduler.run ~realtime:true ~idle:(Tun.idle_hook host.tap) (fun () ->
        Tun.start host.tap;
        resolved := Stack.Arp.resolve host.arp (Ipv4_addr.of_string kernel_ip);
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check bool) "kernel's MAC learned" true (!resolved <> None)

let test_icmp_pings_kernel host =
  let rtts = ref [] in
  let _ =
    Scheduler.run ~realtime:true ~idle:(Tun.idle_hook host.tap) (fun () ->
        Tun.start host.tap;
        for _ = 1 to 3 do
          match
            Stack.Icmp.ping host.icmp
              (Ipv4_addr.of_string kernel_ip)
              ~len:32 ~timeout_us:2_000_000
          with
          | Some rtt -> rtts := rtt :: !rtts
          | None -> ()
        done;
        ignore (Scheduler.stop ()))
  in
  Alcotest.(check int) "all pings answered by the kernel" 3
    (List.length !rtts)

let test_tcp_talks_to_kernel_socket host =
  let port = 8098 in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string kernel_ip, port));
  Unix.listen sock 1;
  Unix.set_nonblock sock;
  let kernel_got = Buffer.create 64 in
  let echoed = ref None in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      let _ =
        Scheduler.run ~realtime:true ~idle:(Tun.idle_hook host.tap) (fun () ->
            Tun.start host.tap;
            (* the kernel side: poll-accept, read, echo, in a thread *)
            Scheduler.fork (fun () ->
                let rec accept_loop () =
                  match Unix.accept sock with
                  | client, _ ->
                    Unix.set_nonblock client;
                    let buf = Bytes.create 4096 in
                    let rec read_loop () =
                      match Unix.read client buf 0 4096 with
                      | 0 -> Unix.close client
                      | n ->
                        Buffer.add_subbytes kernel_got buf 0 n;
                        ignore (Unix.write client buf 0 n);
                        read_loop ()
                      | exception
                          Unix.Unix_error
                            ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                        Scheduler.sleep 5_000;
                        read_loop ()
                    in
                    read_loop ()
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                    Scheduler.sleep 5_000;
                    accept_loop ()
                in
                accept_loop ());
            let reply = Fox_sched.Cond.create () in
            let conn =
              Stack.Tcp.connect host.tcp
                { Stack.Tcp.peer = Ipv4_addr.of_string kernel_ip; port;
                  local_port = None }
                (fun _ ->
                  ( (fun packet ->
                      Fox_sched.Cond.signal reply (Packet.to_string packet)),
                    ignore ))
            in
            let msg = "fox->kernel" in
            let p = Stack.Tcp.allocate_send conn (String.length msg) in
            Packet.blit_from_string msg 0 p 0 (String.length msg);
            Stack.Tcp.send conn p;
            echoed := Some (Fox_sched.Cond.wait reply);
            Stack.Tcp.close conn;
            Scheduler.sleep 100_000;
            ignore (Scheduler.stop ()))
      in
      Alcotest.(check string) "kernel received our bytes" "fox->kernel"
        (Buffer.contents kernel_got);
      Alcotest.(check (option string)) "kernel echo came back"
        (Some "fox->kernel") !echoed)

let () =
  if not (Lazy.force tap_available) then begin
    print_endline
      "test_tun: TAP devices unavailable (need root/CAP_NET_ADMIN) — skipped";
    exit 0
  end;
  Alcotest.run "fox_tun"
    [
      ( "kernel-interop",
        [
          Alcotest.test_case "arp resolves the kernel" `Quick
            (with_tap test_arp_resolves_kernel);
          Alcotest.test_case "icmp pings the kernel" `Quick
            (with_tap test_icmp_pings_kernel);
          Alcotest.test_case "tcp to a kernel socket" `Quick
            (with_tap test_tcp_talks_to_kernel_socket);
        ] );
    ]
