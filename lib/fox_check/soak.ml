(** The deterministic overload soak.

    One virtual network, three hosts: a server whose structured TCP runs
    with every overload defense enabled (SYN cache, SYN cookies, bounded
    backlog, out-of-order and to_do caps, a bounded TIME-WAIT table), a
    client that opens hundreds of staggered connections and pushes a
    distinct payload down each, and an attacker that fires a scripted SYN
    flood (plus forged-cookie ACKs) into the middle of the run.  The wire
    is an adverse {!Fox_dev.Netem} shared hub with a finite egress queue,
    so the flood contends with the real traffic for the same medium.

    The soak asserts the graceful-degradation contract:
    - every client connection delivers its full payload and closes, flood
      or no flood — the defenses starve attackers, not established work;
    - the flood never completes a handshake (forged-cookie ACKs earn
      RSTs, half-open SYNs stay in the compact cache or become stateless
      cookies and expire);
    - {!Tcb_invariants} stays silent across every executed action;
    - no packet buffer leaks: {!Fox_basis.Packet.live_packets} returns to
      its pre-run value once the network drains;
    - the whole run is a pure function of the seed — {!check} runs it
      twice and compares fingerprints.

    Under virtual time the hundreds of connections and the flood cost
    little real time, so the soak doubles as a CI smoke test
    ([foxnet soak]). *)

module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem

(* ------------------------------------------------------------------ *)
(* The stack under soak: plain layers, adversity comes from the wire  *)
(* ------------------------------------------------------------------ *)

(* Every overload knob is live, sized so a few hundred connections push
   each one past its limit: a small backlog the flood saturates in its
   first milliseconds, a TIME-WAIT table two orders smaller than the
   number of closes, and tight queue caps.  Short TIME-WAIT and RTO
   floors keep the virtual span small; the machinery exercised is the
   same. *)
module Soak_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      time_wait_us = 500_000;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
      rto_max_us = 10_000_000;
      listen_backlog = 16;
      syn_cache = true;
      syn_cookies = true;
      max_ooo_bytes = 16384;
      max_to_do = 256;
      max_time_wait = 16;
      max_connections = 4096;
      (* secure ISNs with a pinned boot secret: the soak exercises the
         RFC 6528 path while its run-twice fingerprint check (and the
         per-shard fingerprint vector) stays bit-for-bit reproducible *)
      isn_secret = Some (0x5eed_0f0c_5ed1, 0x1234_5678_9abc);
    }
end

module Flood = Synflood.Make (World.Ip) (World.Ip_aux)

(* ------------------------------------------------------------------ *)
(* Configuration and report                                           *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  conns : int;  (** client connections, staggered over the run *)
  bytes_per_conn : int;
  spacing_us : int;  (** inter-connection stagger *)
  flood_at_us : int;  (** when the SYN flood starts *)
  flood_syns : int;
  flood_bad_acks : int;  (** forged-cookie bare ACKs *)
  loss : float;
  cc : string;  (** congestion-control algorithm for both endpoints *)
  shards : int;
      (** engine shards: connection [i] soaks in shard [i mod shards],
          each shard a full three-host world (with its own flood) on its
          own domain.  [1] runs inline — the historical behavior. *)
  chaos : Chaos.plan;
      (** timed path faults injected into every shard's wire (empty =
          none); the graceful-degradation contract must hold through
          them, and the run stays deterministic — chaos never consults
          the wire's rng *)
}

let default_config =
  {
    seed = 42;
    conns = 500;
    bytes_per_conn = 2048;
    spacing_us = 2_000;
    flood_at_us = 150_000;
    flood_syns = 64;
    flood_bad_acks = 16;
    loss = 0.01;
    cc = "reno";
    shards = 1;
    chaos = [];
  }

type report = {
  conns : int;  (** connections the client attempted *)
  shards : int;
  completed : int;  (** client connections that delivered every byte *)
  connect_failures : int;
  delivery_mismatches : int;  (** streams delivered wrong or truncated *)
  invariant_faults : string list;
  leaked_packets : int;  (** live-buffer delta across the run *)
  end_time : int;  (** virtual µs at quiescence *)
  flood_sent : int;  (** attacker segments on the wire *)
  server_accepts : int;
  backlog_refused : int;
  syn_dropped : int;
  time_wait_recycled : int;
  to_do_shed : int;
  rsts_sent : int;
  wire_queue_drops : int;  (** finite-egress-queue tail drops, all ports *)
  shard_fingerprints : string list;
      (** one fingerprint per shard, in shard order — the determinism
          identity of a sharded run is this ordered vector *)
  fingerprint : string;
      (** digest of everything above + stream digests; with one shard
          this is that shard's fingerprint (bit-for-bit the historical
          single-threaded value), otherwise the digest of the vector *)
}

let pp_report fmt r =
  Format.fprintf fmt
    "completed %d/%d conns over %d shard%s (%d connect failures, %d stream \
     mismatches), %d invariant faults, %d leaked buffers, quiescent at \
     %.3fs virtual@\n\
     flood: %d segments sent, server accepted %d, refused %d, dropped %d \
     SYNs, sent %d RSTs@\n\
     pressure: %d TIME-WAIT recycled, %d segments shed, %d wire queue \
     drops@\n\
     fingerprint %s"
    r.completed r.conns r.shards
    (if r.shards = 1 then "" else "s")
    r.connect_failures r.delivery_mismatches
    (List.length r.invariant_faults)
    r.leaked_packets
    (float_of_int r.end_time /. 1e6)
    r.flood_sent r.server_accepts r.backlog_refused r.syn_dropped r.rsts_sent
    r.time_wait_recycled r.to_do_shed r.wire_queue_drops r.fingerprint;
  if r.shards > 1 then
    Format.fprintf fmt "@\nper-shard fingerprints: %s"
      (String.concat " " r.shard_fingerprints)

let report_to_string r = Format.asprintf "%a" pp_report r

(* The payload of connection [i] is a pure function of the seed, so the
   server can match delivered streams against expectations by digest. *)
let payload_for cfg i =
  World.payload ~seed:(cfg.seed lxor (i * 7919) lxor 0x5a5a) cfg.bytes_per_conn

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

(* The soak is generic in the congestion-control algorithm: the
   graceful-degradation contract (full delivery, starved flood, silent
   invariants, no leaks, determinism) must hold whichever algorithm
   drives the windows, so the same harness runs once per instance. *)
module Make_engine (Cc : Fox_tcp.Congestion.S) = struct
  include World.Stack (Cc) (Soak_params)

  (* [run_world cfg ~shard ~indices] soaks one complete three-host world
     — own hub, hosts, engines, scheduler, and its own flood — serving
     exactly the client connections in [indices] (original fleet
     indices, so payloads and staggers match the unsharded run).
     Everything it touches is domain-local, the leak census included;
     the caller owns the invariant hook.  Its report has [shards = 1]
     and empty [invariant_faults] — the wrapper fills those in. *)
  let run_world ?(log = fun _ -> ()) cfg ~shard ~indices =
    let netem =
      Netem.adverse ~loss:cfg.loss ~reorder:0.02 ~queue_frames:64
        ~seed:(cfg.seed lxor 0x50a lxor (shard * 0x5a17))
        Netem.ethernet_10mbps
    in
    let link = Link.hub ~ports:3 netem in
    let atk_ip = World.host ~subnet:1 link 2 ~addr:(World.addr ~subnet:1 3) in
    let flood_sent = ref 0 in
    let perturb () =
      if cfg.chaos <> [] then Chaos.install ~log cfg.chaos link;
      (* the flood: scripted, mid-run, while early connections are still
         transferring and later ones are still arriving; a third of its
         handshakes are later abandoned, covering the RST-clears-cache-
         entry path *)
      Flood.script ~wait_us:cfg.flood_at_us atk_ip
        ~target:(World.addr ~subnet:1 2) ~dst_port:World.port
        ~syns:cfg.flood_syns ~bad_acks:cfg.flood_bad_acks ~gap_us:200
        ~abandon:(fun i -> i mod 3 = 0)
        ~rst_gap_us:200
        ~on_done:(fun sent ->
          flood_sent := sent;
          log
            (Printf.sprintf "t=%d flood done: %d segments" (Scheduler.now ())
               sent))
    in
    (* the client fleet: this shard's slice, keeping each connection's
       original stagger slot *)
    let run =
      World.checked ~census:true
        (transfer ~log ~perturb ~stagger_us:cfg.spacing_us ~link ~subnet:1
           ~bytes:cfg.bytes_per_conn ~payload:(payload_for cfg) indices)
    in
    let t = run.World.value in
    let end_time = t.World.end_time in
    (* score the delivered streams against this shard's expected
       multiset *)
    let expected =
      List.map (fun i -> Digest.string (payload_for cfg i)) indices
      |> List.sort compare
    in
    let got =
      List.map (fun (stream, _) -> Digest.string stream) t.World.streams
      |> List.sort compare
    in
    let rec matches exp got =
      match (exp, got) with
      | [], _ | _, [] -> 0
      | e :: erest, g :: grest ->
        if String.equal e g then 1 + matches erest grest
        else if e < g then matches erest got
        else matches exp grest
    in
    let completed = matches expected got in
    let delivery_mismatches = List.length got - completed in
    let s = Tcp.stats t.World.server in
    let c = Tcp.stats t.World.client in
    let wire_queue_drops =
      List.fold_left
        (fun acc i -> acc + (Link.stats link i).Link.queue_drops)
        0 [ 0; 1; 2 ]
    in
    let leaked_packets = run.World.leaked in
    let fingerprint =
      Digest.to_hex
        (Digest.string
           (String.concat "|"
              (got
              @ [
                  string_of_int end_time;
                  string_of_int completed;
                  string_of_int t.World.connect_failures;
                  string_of_int leaked_packets;
                  string_of_int s.Fox_tcp.Tcp.accepts;
                  string_of_int s.Fox_tcp.Tcp.backlog_refused;
                  string_of_int s.Fox_tcp.Tcp.syn_dropped;
                  string_of_int s.Fox_tcp.Tcp.rsts_sent;
                  string_of_int c.Fox_tcp.Tcp.time_wait_recycled;
                  string_of_int
                    (s.Fox_tcp.Tcp.to_do_shed + c.Fox_tcp.Tcp.to_do_shed);
                  string_of_int wire_queue_drops;
                ])))
    in
    {
      conns = List.length indices;
      shards = 1;
      completed;
      connect_failures = t.World.connect_failures;
      delivery_mismatches;
      invariant_faults = [];
      leaked_packets;
      end_time;
      flood_sent = !flood_sent;
      server_accepts = s.Fox_tcp.Tcp.accepts;
      backlog_refused = s.Fox_tcp.Tcp.backlog_refused;
      syn_dropped = s.Fox_tcp.Tcp.syn_dropped;
      time_wait_recycled =
        s.Fox_tcp.Tcp.time_wait_recycled + c.Fox_tcp.Tcp.time_wait_recycled;
      to_do_shed = s.Fox_tcp.Tcp.to_do_shed + c.Fox_tcp.Tcp.to_do_shed;
      rsts_sent = s.Fox_tcp.Tcp.rsts_sent;
      wire_queue_drops;
      shard_fingerprints = [ fingerprint ];
      fingerprint;
    }

end

(* One world builder per algorithm, built once. *)
let worlds =
  World.per_cc (fun (module Cc : Fox_tcp.Congestion.S) ->
      let module E = Make_engine (Cc) in
      E.run_world)

(** [run cfg] dispatches on [cfg.cc] (unknown names raise
    [Invalid_argument]).  It owns the process-wide invariant hook,
    installed before any domain spawns and removed after the join, and
    fans the fleet out over [cfg.shards] worlds and merges.  One shard
    returns its world report unchanged (the historical single-threaded
    run, fingerprint included); more shards sum the counters and
    fingerprint the ordered per-shard vector. *)
let run ?log (cfg : config) =
  let run_world = World.by_cc ~who:"Soak.run" worlds cfg.cc in
  if cfg.shards < 1 then invalid_arg "Soak.run: shards must be >= 1";
  let run =
    World.checked ~invariants:true (fun () ->
        Fox_shard.Shard.run ~shards:cfg.shards (fun shard ->
            run_world ?log cfg ~shard
              ~indices:
                (Fox_shard.Shard.split ~total:cfg.conns ~shards:cfg.shards
                   ~shard)))
  in
  let worlds = run.World.value and invariant_faults = run.World.faults in
  match worlds with
  | [| w |] -> { w with invariant_faults }
  | _ ->
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 worlds in
    let shard_fingerprints =
      Array.to_list (Array.map (fun w -> w.fingerprint) worlds)
    in
    {
      conns = cfg.conns;
      shards = cfg.shards;
      completed = sum (fun w -> w.completed);
      connect_failures = sum (fun w -> w.connect_failures);
      delivery_mismatches = sum (fun w -> w.delivery_mismatches);
      invariant_faults;
      leaked_packets = sum (fun w -> w.leaked_packets);
      end_time = Array.fold_left (fun acc w -> max acc w.end_time) 0 worlds;
      flood_sent = sum (fun w -> w.flood_sent);
      server_accepts = sum (fun w -> w.server_accepts);
      backlog_refused = sum (fun w -> w.backlog_refused);
      syn_dropped = sum (fun w -> w.syn_dropped);
      time_wait_recycled = sum (fun w -> w.time_wait_recycled);
      to_do_shed = sum (fun w -> w.to_do_shed);
      rsts_sent = sum (fun w -> w.rsts_sent);
      wire_queue_drops = sum (fun w -> w.wire_queue_drops);
      shard_fingerprints;
      fingerprint =
        Digest.to_hex (Digest.string (String.concat "|" shard_fingerprints));
    }

(* ------------------------------------------------------------------ *)
(* The verdict                                                        *)
(* ------------------------------------------------------------------ *)

(** [check cfg] runs the soak twice and returns the first run's report
    plus the problems found (empty = pass): non-determinism between the
    two runs, incomplete connections, a flood handshake that slipped
    through, invariant violations, or leaked buffers. *)
let check ?log cfg =
  let r1 = run ?log cfg in
  let r2 = run ?log cfg in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  if not (String.equal r1.fingerprint r2.fingerprint) then
    problem "non-deterministic: fingerprints %s vs %s differ" r1.fingerprint
      r2.fingerprint;
  if r1.completed <> cfg.conns then
    problem "%d of %d connections did not deliver their payload"
      (cfg.conns - r1.completed) cfg.conns;
  if r1.connect_failures > 0 then
    problem "%d connects failed outright" r1.connect_failures;
  if r1.delivery_mismatches > 0 then
    problem "%d streams delivered wrong bytes" r1.delivery_mismatches;
  List.iter (fun f -> problem "invariant violation: %s" f) r1.invariant_faults;
  if r1.leaked_packets <> 0 then
    problem "%d packet buffers leaked" r1.leaked_packets;
  if r1.server_accepts > cfg.conns then
    problem "flood completed %d handshakes (accepts %d > %d legit conns)"
      (r1.server_accepts - cfg.conns)
      r1.server_accepts cfg.conns;
  if
    cfg.flood_syns + cfg.flood_bad_acks > 0
    && r1.rsts_sent + r1.backlog_refused + r1.syn_dropped = 0
  then problem "flood ran but left no trace on the defenses (inert?)";
  (r1, List.rev !problems)

(** [check_matrix cfg] runs the soak contract once per congestion-control
    algorithm, returning [(cc, report, problems)] rows. *)
let check_matrix ?log cfg =
  List.map
    (fun cc ->
      let r, problems = check ?log { cfg with cc } in
      (cc, r, problems))
    Fox_tcp.Congestion.names
