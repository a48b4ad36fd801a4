(* The sharded execution harness.

   A shard is one deterministic world: one scheduler run on one domain,
   with its own timing wheel, live-packet census and engines (all of
   which are domain-local — see {!Fox_sched.Wheel}, {!Fox_basis.Packet}).
   The engine's determinism story survives sharding unchanged because it
   was never about the process, it was about the executor: given the
   order of its own [to_do] queue, each shard replays bit-for-bit, so a
   sharded run's identity is the *vector* of per-shard fingerprints
   rather than one scalar.  [shards = 1] does not spawn at all — the thunk runs
   inline on the calling domain, which is exactly the pre-sharding
   single-threaded execution, so single-shard digests reproduce the
   historical ones to the bit.

   Shared structures follow the coarse-then-measured rule: the flight
   recorder is mutex-guarded ({!Fox_obs.Bus}), hooks stay plain refs
   installed before spawn, and everything hot is shard-local. *)

open Fox_basis

(* [split ~total ~shards ~shard] is the index subset shard [shard] owns:
   round-robin (i mod shards), so staggered workloads (client [i] opens
   at [i * spacing]) interleave across shards instead of front-loading
   shard 0. *)
let split ~total ~shards ~shard =
  List.init total Fun.id |> List.filter (fun i -> i mod shards = shard)

(* [run ~shards f] runs [f k] for every shard [k] and returns the results
   in shard order.  One domain per shard; [shards = 1] runs inline. *)
let run ~shards f =
  if shards < 1 then invalid_arg "Shard.run";
  if shards = 1 then [| f 0 |]
  else
    Array.init shards (fun k -> Domain.spawn (fun () -> f k))
    |> Array.map Domain.join

(* ------------------------------------------------------------------ *)
(* Frame classification (the demux handoff)                            *)
(* ------------------------------------------------------------------ *)

(* Where a received Ethernet frame belongs.  TCP frames go to the shard
   owning their 4-tuple; everything else ([All]: ARP, ICMP, non-IPv4)
   goes to every shard — each shard runs a full stack with its own ARP
   cache, and broadcast control traffic is rare enough that duplicating
   it is cheaper than any shared-cache locking. *)
type dest = Shard of int | All

let ethertype_ipv4 = 0x0800
let eth_header = 14

(* Parse just enough of an Ethernet/IPv4/TCP frame to route it; anything
   short, fragmented or non-TCP is [All].  Offsets are relative to the
   packet window, which for a received frame starts at the Ethernet
   header. *)
let classify ~shards p =
  if shards <= 1 then Shard 0
  else if Packet.length p < eth_header + 20 then All
  else if Packet.get_u16 p 12 <> ethertype_ipv4 then All
  else begin
    let ihl = (Packet.get_u8 p eth_header land 0x0f) * 4 in
    let proto = Packet.get_u8 p (eth_header + 9) in
    let frag = Packet.get_u16 p (eth_header + 6) land 0x3fff in
    if
      proto <> 6 (* TCP *)
      || frag <> 0 (* non-first fragments carry no ports *)
      || Packet.length p < eth_header + ihl + 4
    then All
    else begin
      let src_addr = Packet.get_u32 p (eth_header + 12) in
      let dst_addr = Packet.get_u32 p (eth_header + 16) in
      let src_port = Packet.get_u16 p (eth_header + ihl) in
      let dst_port = Packet.get_u16 p (eth_header + ihl + 2) in
      Shard (Tuple.shard_of ~shards ~src_addr ~src_port ~dst_addr ~dst_port)
    end
  end
