(* The sharded engine: 4-tuple router, cross-shard mailbox, frame
   classifier, and the end-to-end shard harnesses.

   The determinism contract under test: [--shards 1] runs inline on the
   calling domain and must reproduce the single-threaded engine's digests
   bit-for-bit (the pinned fuzz digests re-asserted here guard exactly
   that), while a multi-shard run must be deterministic as an ordered
   vector of per-shard fingerprints — same seed, same vector, run after
   run, with the TCB invariant checker silent on every domain. *)

open Fox_basis
module Tuple = Fox_shard.Tuple
module Mailbox = Fox_shard.Mailbox
module Shard = Fox_shard.Shard
module Soak = Fox_check.Soak
module Load = Fox_check.Load
module Fuzz = Fox_check.Fuzz

(* ------------------------------------------------------------------ *)
(* The 4-tuple router                                                 *)
(* ------------------------------------------------------------------ *)

let test_router_symmetry () =
  let rng = Rng.create 0x4add in
  for _ = 1 to 1_000 do
    let a_addr = Rng.int rng 0x1000000 and a_port = Rng.int rng 65536 in
    let b_addr = Rng.int rng 0x1000000 and b_port = Rng.int rng 65536 in
    let shards = 1 + Rng.int rng 8 in
    let fwd =
      Tuple.shard_of ~shards ~src_addr:a_addr ~src_port:a_port
        ~dst_addr:b_addr ~dst_port:b_port
    in
    let rev =
      Tuple.shard_of ~shards ~src_addr:b_addr ~src_port:b_port
        ~dst_addr:a_addr ~dst_port:a_port
    in
    Alcotest.(check int) "both directions land on the same shard" fwd rev;
    Alcotest.(check bool) "shard in range" true (fwd >= 0 && fwd < shards);
    (* stability: the router is a pure function *)
    Alcotest.(check int) "same tuple, same shard" fwd
      (Tuple.shard_of ~shards ~src_addr:a_addr ~src_port:a_port
         ~dst_addr:b_addr ~dst_port:b_port)
  done

let test_router_distribution () =
  let shards = 4 in
  let counts = Array.make shards 0 in
  let rng = Rng.create 0xd157 in
  let n = 4_000 in
  for _ = 1 to n do
    let k =
      Tuple.shard_of ~shards ~src_addr:(Rng.int rng 0x1000000)
        ~src_port:(1024 + Rng.int rng 60000)
        ~dst_addr:0x0a010002 ~dst_port:7777
    in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d holds a fair share (%d of %d)" k c n)
        true
        (c > n / shards / 2 && c < n * 2 / shards))
    counts

(* ------------------------------------------------------------------ *)
(* The bounded MPSC mailbox                                           *)
(* ------------------------------------------------------------------ *)

let test_mailbox_overflow () =
  let mb = Mailbox.create ~capacity:4 in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "push %d accepted" i)
      true
      (Mailbox.push mb i)
  done;
  for i = 5 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "push %d refused (full)" i)
      false
      (Mailbox.push mb i)
  done;
  Alcotest.(check int) "pushed" 4 (Mailbox.pushed mb);
  Alcotest.(check int) "dropped" 2 (Mailbox.dropped mb);
  Alcotest.(check (list int)) "drained in arrival order" [ 1; 2; 3; 4 ]
    (Mailbox.drain mb);
  Alcotest.(check int) "empty after drain" 0 (Mailbox.length mb);
  (* room again after the drain *)
  Alcotest.(check bool) "push after drain accepted" true (Mailbox.push mb 7);
  Alcotest.(check (list int)) "new element arrives" [ 7 ] (Mailbox.drain mb)

let test_mailbox_cross_domain () =
  let mb = Mailbox.create ~capacity:64 in
  let n = 500 in
  let producer =
    Domain.spawn (fun () ->
        let pushed = ref 0 in
        while !pushed < n do
          if Mailbox.push mb !pushed then incr pushed
          else Unix.sleepf 0.0005 (* full: the consumer will catch up *)
        done)
  in
  let received = ref [] in
  let missing = ref n in
  while !missing > 0 do
    match Mailbox.pop_timeout mb ~timeout_us:1_000_000 with
    | Some v ->
      received := v :: !received;
      decr missing
    | None -> Alcotest.fail "consumer timed out waiting for producer"
  done;
  Domain.join producer;
  Alcotest.(check (list int))
    "single producer's order preserved across the domain boundary"
    (List.init n Fun.id) (List.rev !received)

(* ------------------------------------------------------------------ *)
(* The frame classifier                                               *)
(* ------------------------------------------------------------------ *)

(* A minimal Ethernet/IPv4/TCP frame: 14B Ethernet + 20B IPv4 + 20B TCP,
   just the fields the classifier reads. *)
let tcp_frame ~src_addr ~src_port ~dst_addr ~dst_port =
  let p = Packet.create 54 in
  for i = 0 to 53 do
    Packet.set_u8 p i 0
  done;
  Packet.set_u16 p 12 0x0800;
  (* ethertype IPv4 *)
  Packet.set_u8 p 14 0x45;
  (* version 4, IHL 5 *)
  Packet.set_u8 p 23 6;
  (* protocol TCP *)
  Packet.set_u32 p 26 src_addr;
  Packet.set_u32 p 30 dst_addr;
  Packet.set_u16 p 34 src_port;
  Packet.set_u16 p 36 dst_port;
  p

let test_classify_routes_tcp () =
  let shards = 4 in
  let syn =
    tcp_frame ~src_addr:0x0a630001 ~src_port:43210 ~dst_addr:0x0a630002
      ~dst_port:8080
  in
  let reply =
    tcp_frame ~src_addr:0x0a630002 ~src_port:8080 ~dst_addr:0x0a630001
      ~dst_port:43210
  in
  (match (Shard.classify ~shards syn, Shard.classify ~shards reply) with
  | Shard.Shard a, Shard.Shard b ->
    Alcotest.(check int) "SYN and its reply route to the same shard" a b
  | _ -> Alcotest.fail "TCP frames must classify to a specific shard");
  Packet.release syn;
  Packet.release reply

let test_classify_broadcasts_non_tcp () =
  (* an ARP request: ethertype 0x0806 — every shard needs it *)
  let arp = Packet.create 42 in
  for i = 0 to 41 do
    Packet.set_u8 arp i 0
  done;
  Packet.set_u16 arp 12 0x0806;
  Alcotest.(check bool) "ARP goes to every shard" true
    (Shard.classify ~shards:4 arp = Shard.All);
  Packet.release arp;
  (* a runt frame: too short to carry ports *)
  let runt = Packet.create 20 in
  for i = 0 to 19 do
    Packet.set_u8 runt i 0
  done;
  Alcotest.(check bool) "runt goes to every shard" true
    (Shard.classify ~shards:4 runt = Shard.All);
  Packet.release runt;
  (* one shard: no classification needed at all *)
  let any = tcp_frame ~src_addr:1 ~src_port:2 ~dst_addr:3 ~dst_port:4 in
  Alcotest.(check bool) "shards=1 short-circuits" true
    (Shard.classify ~shards:1 any = Shard.Shard 0);
  Packet.release any

(* ------------------------------------------------------------------ *)
(* --shards 1 digest identity                                         *)
(* ------------------------------------------------------------------ *)

(* The pinned single-thread Reno fuzz digests (test_congestion's
   baseline), re-asserted from the shard suite: the sharding refactor
   must leave the single-threaded execution bit-for-bit intact. *)
let pinned_fuzz_digests =
  [
    (0, "9e9e1facdcbe3cb4c1ae4230178cc771");
    (1, "e4e8a6d405e5326bcad41a64f925174e");
    (2, "a43d888836743c93975d93fd63e4848d");
  ]

let test_shards1_pinned_digests () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d single-thread digest survives sharding" seed)
        expected
        (Digest.to_hex (Digest.string (Fuzz.trace_of_seed ~seed))))
    pinned_fuzz_digests

let small_soak shards =
  {
    Soak.default_config with
    Soak.conns = 40;
    bytes_per_conn = 512;
    flood_syns = 12;
    flood_bad_acks = 4;
    shards;
  }

let test_soak_shards1_identity () =
  let r1 = Soak.run (small_soak 1) in
  let r2 = Soak.run (small_soak 1) in
  Alcotest.(check string) "shards=1 soak is deterministic" r1.Soak.fingerprint
    r2.Soak.fingerprint;
  Alcotest.(check (list string))
    "one shard: the vector is the scalar fingerprint"
    [ r1.Soak.fingerprint ] r1.Soak.shard_fingerprints;
  Alcotest.(check int) "every connection delivered" 40 r1.Soak.completed

(* ------------------------------------------------------------------ *)
(* Two-domain smoke, invariants installed                             *)
(* ------------------------------------------------------------------ *)

let test_soak_two_domain_smoke () =
  let r1 = Soak.run (small_soak 2) in
  Alcotest.(check int) "both shards' connections delivered" 40
    r1.Soak.completed;
  Alcotest.(check (list string)) "invariants silent on both domains" []
    r1.Soak.invariant_faults;
  Alcotest.(check int) "no leaked buffers" 0 r1.Soak.leaked_packets;
  Alcotest.(check int) "two per-shard fingerprints" 2
    (List.length r1.Soak.shard_fingerprints);
  (* the vector is the determinism identity: same seed, same vector *)
  let r2 = Soak.run (small_soak 2) in
  Alcotest.(check (list string)) "per-shard fingerprint vector replays"
    r1.Soak.shard_fingerprints r2.Soak.shard_fingerprints

let test_load_two_domain_smoke () =
  let cfg =
    { Load.default_config with Load.conns = 24; requests = 2; shards = 2 }
  in
  let r, problems = Load.check cfg in
  Alcotest.(check (list string)) "sharded serve passes its own contract" []
    problems;
  Alcotest.(check int) "all requests served" (24 * 2) r.Load.requests_ok

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "symmetry and stability" `Quick
            test_router_symmetry;
          Alcotest.test_case "distribution" `Quick test_router_distribution;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "bounded overflow" `Quick test_mailbox_overflow;
          Alcotest.test_case "cross-domain handoff" `Quick
            test_mailbox_cross_domain;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "tcp routes by tuple" `Quick
            test_classify_routes_tcp;
          Alcotest.test_case "non-tcp broadcasts" `Quick
            test_classify_broadcasts_non_tcp;
        ] );
      ( "digests",
        [
          Alcotest.test_case "pinned single-thread fuzz digests" `Quick
            test_shards1_pinned_digests;
          Alcotest.test_case "soak shards=1 identity" `Quick
            test_soak_shards1_identity;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "soak on two domains" `Quick
            test_soak_two_domain_smoke;
          Alcotest.test_case "serve on two domains" `Quick
            test_load_two_domain_smoke;
        ] );
    ]
