(** Host construction and two-host networks.

    A host is one complete instance of the standard stack on one wire
    port, optionally running the {!Cost_model} on a virtual CPU: every
    packet crossing a metered boundary then charges the corresponding
    Table 2 component (and the per-update counter overhead), so the run's
    virtual-time dilation {e is} the modelled machine's slowness. *)

open Fox_basis
module Cpu = Fox_sched.Cpu
module Device = Fox_dev.Device
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Pcap = Fox_dev.Pcap
module Bus = Fox_obs.Bus
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route

(** Which TCP engine a host runs (one per host: both claim IP proto 6).
    [Bare] builds no transport, leaving the metered IP free for ablation
    variants of the TCP functor. *)
type engine = Fox | Baseline | Bare

type host = {
  index : int;
  mac : Mac.t;
  addr : Ipv4_addr.t;
  dev : Device.t;
  eth : Stack.Eth.t;
  arp : Stack.Arp.t;
  ip : Stack.Ip.t;
  metered_ip : Stack.Metered_ip.t;
  udp : Stack.Udp.t;
  icmp : Stack.Icmp.t;
  tcp : Stack.Tcp.t option;  (** when [engine = Fox] *)
  baseline : Stack.Baseline_tcp.t option;  (** when [engine = Baseline] *)
  counters : Counters.t;
  cpu : Cpu.t;
  pcap : Pcap.t option;
      (** capture-on-demand: frames are written only while the
          {!Fox_obs.Bus} is live *)
}

let fox_tcp host = Option.get host.tcp

let baseline_tcp host = Option.get host.baseline

(* Build a charging callback for one cost component. *)
let charger cpu (cm : Cost_model.t) name component bytes =
  Cpu.charge cpu name (Cost_model.cost component ~bytes);
  (* each profiled region pays the counter start/stop pair, the paper's
     "counters (est.)" row *)
  Cpu.charge_async cpu "counters (est.)" cm.Cost_model.counter_update_us

let multi chargers bytes = List.iter (fun f -> f bytes) chargers

(** [create_host ~engine ?cost ?pcap link port_index ~mac ~addr ~route]
    builds a full stack on port [port_index] of [link].  [pcap] opens a
    capture file on the device tap; frames are written only while the
    flight-recorder bus is live, so toggling the bus toggles the capture
    ([foxnet trace --pcap]).  Close it with {!close_pcap}. *)
let create_host ~engine ?cost ?pcap link port_index ~mac ~addr ~route =
  let counters = Counters.create () in
  let cpu = Cpu.create counters in
  let dev_hooks, ip_meter, transport_meter =
    match cost with
    | None -> ((None, None), Fox_proto.Meter.silent, Fox_proto.Meter.silent)
    | Some cm ->
      let c name comp = charger cpu cm name comp in
      ( ( Some
            (multi
               [
                 c "eth, Mach interf." cm.Cost_model.eth_mach;
                 c "Mach send" cm.Cost_model.mach_send;
               ]),
          Some
            (multi
               [
                 c "eth, Mach interf." cm.Cost_model.eth_mach;
                 c "packet wait" cm.Cost_model.packet_wait;
               ]) ),
        {
          Fox_proto.Meter.on_send = c "IP" cm.Cost_model.ip;
          on_receive = c "IP" cm.Cost_model.ip;
        },
        {
          Fox_proto.Meter.on_send =
            multi
              [
                c "TCP" cm.Cost_model.tcp;
                c "checksum" cm.Cost_model.checksum;
                c "copy" cm.Cost_model.copy;
                c "g. c." cm.Cost_model.gc;
                c "misc." cm.Cost_model.misc;
              ];
          on_receive =
            multi
              [
                c "TCP" cm.Cost_model.tcp;
                c "checksum" cm.Cost_model.checksum;
                c "copy" cm.Cost_model.copy;
                c "g. c." cm.Cost_model.gc;
                c "misc." cm.Cost_model.misc;
              ];
        } )
  in
  let on_send, on_receive = dev_hooks in
  let cap = Option.map Pcap.create pcap in
  let tap =
    Option.map (fun cap frame -> if !Bus.live then Pcap.tap cap frame) cap
  in
  let dev =
    Device.create
      ~name:(Printf.sprintf "eth%d" port_index)
      ?on_send ?on_receive ?tap
      (Link.port link port_index)
  in
  let eth = Stack.Eth.create dev ~mac in
  let arp = Stack.Arp.create eth ~local_ip:addr () in
  let metered_arp = Stack.Metered_arp.create arp ip_meter in
  let ip =
    Stack.Ip.create metered_arp
      { Stack.Ip.local_ip = addr; route; lower_address = Fun.id;
        lower_pattern = () }
  in
  let metered_ip =
    Stack.Metered_ip.create
      ~probe:(Printf.sprintf "ip%d" port_index)
      ip transport_meter
  in
  let udp = Stack.Udp.create ip in
  let icmp = Stack.Icmp.create ip in
  let tcp, baseline =
    match engine with
    | Fox -> (Some (Stack.Tcp.create metered_ip), None)
    | Baseline -> (None, Some (Stack.Baseline_tcp.create metered_ip))
    | Bare -> (None, None)
  in
  {
    index = port_index;
    mac;
    addr;
    dev;
    eth;
    arp;
    ip;
    metered_ip;
    udp;
    icmp;
    tcp;
    baseline;
    counters;
    cpu;
    pcap = cap;
  }

(** [close_pcap host] flushes and closes the host's capture, if any. *)
let close_pcap host = Option.iter Pcap.close host.pcap

(** [pair ~engine ?cost ?netem ?pcap_prefix ()] is the paper's testbed:
    two hosts on an isolated (simulated) 10 Mb/s Ethernet.  [pcap_prefix]
    opens bus-gated captures [<prefix>-0.pcap] and [<prefix>-1.pcap]. *)
let pair ~engine ?cost ?(netem = Netem.ethernet_10mbps) ?pcap_prefix () =
  let link = Link.point_to_point netem in
  let route = Route.local ~network:(Ipv4_addr.of_string "10.0.0.0") ~prefix:24 in
  let pcap i =
    Option.map (fun p -> Printf.sprintf "%s-%d.pcap" p i) pcap_prefix
  in
  let a =
    create_host ~engine ?cost ?pcap:(pcap 0) link 0
      ~mac:(Mac.of_string "02:00:00:00:00:01")
      ~addr:(Ipv4_addr.of_string "10.0.0.1")
      ~route
  in
  let b =
    create_host ~engine ?cost ?pcap:(pcap 1) link 1
      ~mac:(Mac.of_string "02:00:00:00:00:02")
      ~addr:(Ipv4_addr.of_string "10.0.0.2")
      ~route
  in
  (link, a, b)

(** [lan ~hosts ~engine ?cost ?netem ()] is a shared hub with [hosts]
    stations at 10.0.0.1… — for the multi-host examples. *)
let lan ~hosts ~engine ?cost ?(netem = Netem.ethernet_10mbps) () =
  if hosts < 2 then invalid_arg "Network.lan";
  let link = Link.hub ~ports:hosts netem in
  let route = Route.local ~network:(Ipv4_addr.of_string "10.0.0.0") ~prefix:24 in
  let make i =
    create_host ~engine ?cost link i
      ~mac:(Mac.of_string (Printf.sprintf "02:00:00:00:00:%02x" (i + 1)))
      ~addr:(Ipv4_addr.of_string (Printf.sprintf "10.0.0.%d" (i + 1)))
      ~route
  in
  (link, List.init hosts make)
