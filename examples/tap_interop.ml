(* The Fox Net stack against the real Linux kernel, over a TAP device.

     dune exec examples/tap_interop.exe        (needs root / CAP_NET_ADMIN)

   The kernel gets one side of a TAP interface (10.99.0.1/24); our OCaml
   stack — the same Eth/Arp/Ip/Icmp/Tcp composition the simulations use —
   owns the other side as 10.99.0.2.  ARP resolution, ICMP echo and a full
   TCP connection then run against Linux's own networking:

     1. our ICMP pings the kernel;
     2. our TCP connects to a real kernel listening socket, sends a
        message, and receives the kernel's echo back.

   The scheduler runs in realtime mode with the TAP pump as its idle hook,
   so protocol timers share a timebase with the kernel. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Device = Fox_dev.Device
module Stack = Fox_stack.Stack
module Tun = Fox_tun.Tun
module Ipv4_addr = Fox_ip.Ipv4_addr

let kernel_ip = "10.99.0.1"

let fox_ip = "10.99.0.2"

let tcp_port = 8099

(* a real kernel TCP server: accept one connection, echo what it reads —
   polled non-blockingly from a scheduler thread *)
let kernel_echo_server () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string kernel_ip, tcp_port));
  Unix.listen sock 1;
  Unix.set_nonblock sock;
  let serve () =
    let rec accept_loop () =
      match Unix.accept sock with
      | client, _ ->
        Unix.set_nonblock client;
        let buf = Bytes.create 4096 in
        let rec echo_loop () =
          match Unix.read client buf 0 4096 with
          | 0 -> Unix.close client
          | n ->
            ignore (Unix.write client buf 0 n);
            echo_loop ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            Scheduler.sleep 5_000;
            echo_loop ()
        in
        echo_loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Scheduler.sleep 5_000;
        accept_loop ()
    in
    accept_loop ()
  in
  (sock, serve)

let () =
  let tap =
    try Tun.open_tap ()
    with Failure msg ->
      Printf.printf "cannot open a TAP device (%s); this example needs root.\n"
        msg;
      exit 0
  in
  Printf.printf "TAP interface: %s (kernel %s, fox stack %s)\n" (Tun.name tap)
    kernel_ip fox_ip;
  Tun.configure tap ~ip:kernel_ip ~prefix:24;

  (* the usual composition, on the real device *)
  let dev = Device.create ~name:(Tun.name tap) ~mtu:1514 (Tun.port tap) in
  let eth = Stack.Eth.create dev ~mac:(Fox_eth.Mac.of_string "02:f0:0d:00:00:02") in
  let arp = Stack.Arp.create eth ~local_ip:(Ipv4_addr.of_string fox_ip) () in
  let marp = Stack.Metered_arp.create arp Fox_proto.Meter.silent in
  let ip =
    Stack.Ip.create marp
      {
        Stack.Ip.local_ip = Ipv4_addr.of_string fox_ip;
        route =
          Fox_ip.Route.local ~network:(Ipv4_addr.of_string "10.99.0.0")
            ~prefix:24;
        lower_address = Fun.id;
        lower_pattern = ();
      }
  in
  let mip =
    Stack.Metered_ip.create ~probe:"ip.tap" ip Fox_proto.Meter.silent
  in
  let icmp = Stack.Icmp.create ip in
  let tcp = Stack.Tcp.create mip in

  let listener, serve = kernel_echo_server () in

  let _ =
    Scheduler.run ~realtime:true ~idle:(Tun.idle_hook tap) (fun () ->
        Tun.start tap;
        Scheduler.fork serve;

        (* 1: ICMP against the kernel *)
        print_endline "\n-- ICMP echo against the Linux kernel --";
        for seq = 1 to 3 do
          match
            Stack.Icmp.ping icmp
              (Ipv4_addr.of_string kernel_ip)
              ~len:56 ~timeout_us:2_000_000
          with
          | Some rtt ->
            Printf.printf "64 bytes from %s: icmp_seq=%d time=%.3f ms\n"
              kernel_ip seq
              (float_of_int rtt /. 1000.)
          | None -> Printf.printf "icmp_seq=%d timed out\n" seq
        done;

        (* 2: TCP against a real kernel socket *)
        print_endline "\n-- TCP against a Linux kernel socket --";
        let reply = Fox_sched.Cond.create () in
        let conn =
          Stack.Tcp.connect tcp
            { Stack.Tcp.peer = Ipv4_addr.of_string kernel_ip; port = tcp_port;
              local_port = None }
            (fun _ ->
              ( (fun packet ->
                  Fox_sched.Cond.signal reply (Packet.to_string packet)),
                ignore ))
        in
        Printf.printf "connected to %s:%d (%s)\n" kernel_ip tcp_port
          (Stack.Tcp.state_of conn);
        let msg = "hello from the Fox Net, dear kernel" in
        let p = Stack.Tcp.allocate_send conn (String.length msg) in
        Packet.blit_from_string msg 0 p 0 (String.length msg);
        Stack.Tcp.send conn p;
        let echoed = Fox_sched.Cond.wait reply in
        Printf.printf "kernel echoed: %S\n" echoed;
        Stack.Tcp.close conn;
        Scheduler.sleep 100_000;
        ignore (Scheduler.stop ()))
  in
  Unix.close listener;
  let rx, tx = Tun.stats tap in
  Printf.printf "\nTAP frames: %d received from kernel, %d sent by the stack\n"
    rx tx;
  Tun.close tap
