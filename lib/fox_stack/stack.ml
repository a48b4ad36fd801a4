(** The assembled protocol stacks (Figure 3).

    This module is the paper's "link phase": every stack in the repository
    is produced here by functor application, and the compiler checks each
    composition.  Two main lines are built:

    - the {b standard} stack,
      [Device → Eth → Arp → (meter) → Ip → (meter) → {Tcp, Udp, Icmp}],
      with metering shims (x-kernel-style virtual protocols) at the IP and
      transport boundaries so the benchmark harness can charge the
      DECstation cost model without touching protocol code — a silent
      meter costs two closure calls per packet;
    - the {b special} stack of Figure 3, TCP directly over (CRC-checked)
      Ethernet with TCP checksums off.

    Both the structured TCP and the monolithic baseline are applied to the
    same metered IP, so Table 1 compares exactly the implementations and
    not the plumbing. *)

module Eth = Fox_eth.Eth.Standard
module Eth_checked = Fox_eth.Eth.Checked
module Arp = Fox_arp.Arp.Make (Eth)

(** Metering shim between ARP and IP: charges the "IP" row. *)
module Metered_arp = Fox_proto.Meter.Make (Arp)

module Ip = Fox_ip.Ip.Make (Metered_arp) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)
module Icmp = Fox_ip.Icmp.Make (Ip)

(** Flight-recorder probe at the IP/transport boundary: every packet
    crossing it reports to {!Fox_obs.Bus} (send/deliver events, size and
    latency histograms) — silent but for one flag check while the bus is
    off.  It sits {e under} the meter so probe spans measure IP and below,
    not the metering shim itself. *)
module Probed_ip = Fox_proto.Probe.Make (Ip)

(** Metering shim between IP and the transports: charges the "TCP",
    "checksum" and "copy" rows. *)
module Metered_ip = Fox_proto.Meter.Make (Probed_ip)

module Metered_ip_aux = Metered_ip.Lift_aux (Probed_ip.Lift_aux (Ip_aux))

module Udp =
  Fox_udp.Udp.Make (Ip) (Ip_aux)
    (struct
      let compute_checksums = true
    end)

(** The structured TCP over the standard stack — the paper's
    [Standard_Tcp], with the benchmark's 4096-byte window (the library
    default) and the paper-era Reno congestion control.  The congestion
    algorithm and the settings record are functor arguments (DESIGN §12,
    Figure 4): any other configuration is one more application, made where
    it is used (the benchmark's ablations, the check harnesses, tests). *)
module Tcp = Fox_tcp.Tcp.Make (Metered_ip) (Metered_ip_aux) (Fox_tcp.Congestion.Reno) (Fox_tcp.Tcp.Default_params)

(** The monolithic baseline over the very same lower layers. *)
module Baseline_tcp =
  Fox_baseline.Tcp_monolithic.Make (Metered_ip) (Metered_ip_aux)
    (Fox_baseline.Tcp_monolithic.Default_params)

(** Figure 3's [Special_Tcp]: structured TCP straight over CRC-checked
    Ethernet, no IP, no TCP checksums. *)
module Eth_aux = Fox_eth.Eth_aux.Make (Eth_checked)

module Special_tcp =
  Fox_tcp.Tcp.Make (Eth_checked) (Eth_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = { Fox_tcp.Tcb.default_params with compute_checksums = false }
    end)

(** Blocking socket-style interfaces over the transports (the pull-style
    veneer of {!Fox_proto.Socket}). *)

module Tcp_socket = Fox_proto.Socket.Make (struct
  include Tcp

  type address_pattern = pattern
end)

module Udp_socket = Fox_proto.Socket.Make (struct
  include Udp

  type address_pattern = pattern
end)
