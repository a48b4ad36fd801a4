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

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route

(* ------------------------------------------------------------------ *)
(* The stack under soak: plain layers, adversity comes from the wire  *)
(* ------------------------------------------------------------------ *)

module Eth = Fox_eth.Eth.Standard
module Ip = Fox_ip.Ip.Make (Eth) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

(* Every overload knob is live, sized so a few hundred connections push
   each one past its limit: a small backlog the flood saturates in its
   first milliseconds, a TIME-WAIT table two orders smaller than the
   number of closes, and tight queue caps.  Short TIME-WAIT and RTO
   floors keep the virtual span small; the machinery exercised is the
   same. *)
module Soak_params : Fox_tcp.Tcp.PARAMS = struct
  include Fox_tcp.Tcp.Default_params

  let time_wait_us = 500_000
  let rto_min_us = 50_000
  let rto_initial_us = 200_000
  let rto_max_us = 10_000_000
  let listen_backlog = 16
  let syn_cache = true
  let syn_cookies = true
  let max_ooo_bytes = 16384
  let max_to_do = 256
  let max_time_wait = 16
  let max_connections = 4096

  (* secure ISNs with a pinned boot secret: the soak exercises the
     RFC 6528 path while its run-twice fingerprint check (and the
     per-shard fingerprint vector) stays bit-for-bit reproducible *)
  let isn_secret = Some (0x5eed_0f0c_5ed1, 0x1234_5678_9abc)
end

module Flood = Synflood.Make (Ip) (Ip_aux)

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

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let port = 7777

let mac_of addr =
  Mac.of_string
    (Printf.sprintf "02:00:00:00:01:%02x" (Ipv4_addr.to_int addr land 0xff))

let make_host link index ~addr =
  let dev = Device.create (Link.port link index) in
  let eth = Eth.create dev ~mac:(mac_of addr) in
  Ip.create eth
    {
      Ip.local_ip = addr;
      route = Route.local ~network:(Ipv4_addr.of_string "10.1.0.0") ~prefix:24;
      lower_address =
        (fun next_hop ->
          { Fox_eth.Eth.dest = mac_of next_hop;
            proto = Fox_eth.Frame.ethertype_ipv4 });
      lower_pattern = { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 };
    }

(* The payload of connection [i] is a pure function of the seed, so the
   server can match delivered streams against expectations by digest. *)
let payload_for cfg i =
  Bytes.to_string
    (Rng.bytes (Rng.create (cfg.seed lxor (i * 7919) lxor 0x5a5a))
       cfg.bytes_per_conn)

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

(* The soak is generic in the congestion-control algorithm: the
   graceful-degradation contract (full delivery, starved flood, silent
   invariants, no leaks, determinism) must hold whichever algorithm
   drives the windows, so the same harness runs once per instance. *)
module Make_engine (Cc : Fox_tcp.Congestion.S) = struct
  module Tcp = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Cc) (Soak_params)

  (* [run_world cfg ~shard ~indices] soaks one complete three-host world
     — own hub, hosts, engines, scheduler, and its own flood — serving
     exactly the client connections in [indices] (original fleet
     indices, so payloads and staggers match the unsharded run).
     Everything it touches is domain-local; the caller owns the
     invariant hook.  Its report has [shards = 1] and empty
     [invariant_faults] — the wrapper fills those in. *)
  let run_world ?(log = fun _ -> ()) cfg ~shard ~indices =
    let netem =
      Netem.adverse ~loss:cfg.loss ~reorder:0.02 ~queue_frames:64
        ~seed:(cfg.seed lxor 0x50a lxor (shard * 0x5a17))
        Netem.ethernet_10mbps
    in
    let link = Link.hub ~ports:3 netem in
    let client_ip = make_host link 0 ~addr:(Ipv4_addr.of_string "10.1.0.1") in
    let server_ip = make_host link 1 ~addr:(Ipv4_addr.of_string "10.1.0.2") in
    let atk_ip = make_host link 2 ~addr:(Ipv4_addr.of_string "10.1.0.3") in
    let server_addr = Ipv4_addr.of_string "10.1.0.2" in
    let live_before = Packet.live_packets () in
    let server_t = Tcp.create server_ip in
    let client_t = Tcp.create client_ip in
    let streams = ref [] in
    let connect_failures = ref 0 in
    let flood_sent = ref 0 in
    let stats =
          Scheduler.run (fun () ->
              if cfg.chaos <> [] then Chaos.install ~log cfg.chaos link;
              ignore
                (Tcp.start_passive server_t { Tcp.local_port = port }
                   (fun conn ->
                     let buf = Buffer.create cfg.bytes_per_conn in
                     streams := buf :: !streams;
                     ( (fun packet ->
                         Buffer.add_string buf (Packet.to_string packet);
                         Packet.release packet),
                       (* close our half when the peer closes theirs, so the
                          passive side tears down and the client (the active
                          closer) carries the TIME-WAIT load *)
                       function
                       | Fox_proto.Status.Remote_close -> Tcp.close conn
                       | _ -> () )));
              (* the flood: scripted, mid-run, while early connections are
                 still transferring and later ones are still arriving *)
              if cfg.flood_syns > 0 || cfg.flood_bad_acks > 0 then
                Scheduler.fork (fun () ->
                    Scheduler.sleep cfg.flood_at_us;
                    let flood = Flood.create atk_ip ~target:server_addr in
                    let ports = ref [] in
                    for _ = 1 to cfg.flood_syns do
                      ports := Flood.syn flood ~dst_port:port :: !ports;
                      Scheduler.sleep 200
                    done;
                    for _ = 1 to cfg.flood_bad_acks do
                      Flood.bare_ack flood ~dst_port:port;
                      Scheduler.sleep 200
                    done;
                    (* a third of the flood handshakes are later abandoned,
                       covering the RST-clears-cache-entry path *)
                    List.iteri
                      (fun i src_port ->
                        if i mod 3 = 0 then begin
                          Flood.rst flood ~src_port ~dst_port:port;
                          Scheduler.sleep 200
                        end)
                      (List.rev !ports);
                    flood_sent := Flood.sent flood;
                    log
                      (Printf.sprintf "t=%d flood done: %d segments"
                         (Scheduler.now ()) !flood_sent));
              (* the client fleet: this shard's slice, keeping each
                 connection's original stagger slot *)
              List.iter (fun i ->
                Scheduler.fork (fun () ->
                    Scheduler.sleep (i * cfg.spacing_us);
                    match
                      Tcp.connect client_t
                        { Tcp.peer = server_addr; port; local_port = None }
                        (fun _conn -> (ignore, ignore))
                    with
                    | exception Fox_proto.Common.Connection_failed msg ->
                      incr connect_failures;
                      log (Printf.sprintf "conn %d failed to open: %s" i msg)
                    | conn ->
                      let payload = payload_for cfg i in
                      let p = Tcp.allocate_send conn (String.length payload) in
                      Packet.blit_from_string payload 0 p 0
                        (String.length payload);
                      (match Tcp.send conn p with
                      | () -> ()
                      | exception Fox_proto.Common.Send_failed msg ->
                        log (Printf.sprintf "conn %d send failed: %s" i msg));
                      Tcp.close conn)
              ) indices)
        in
        let end_time = stats.Scheduler.end_time in
        (* score the delivered streams against this shard's expected
           multiset *)
        let expected =
          List.map (fun i -> Digest.string (payload_for cfg i)) indices
          |> List.sort compare
        in
        let got =
          List.map (fun b -> Digest.string (Buffer.contents b)) !streams
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
        let s = Tcp.stats server_t in
        let c = Tcp.stats client_t in
        let wire_queue_drops =
          List.fold_left
            (fun acc i -> acc + (Link.stats link i).Link.queue_drops)
            0 [ 0; 1; 2 ]
        in
        let leaked_packets = Packet.live_packets () - live_before in
        let fingerprint =
          Digest.to_hex
            (Digest.string
               (String.concat "|"
                  (got
                  @ [
                      string_of_int end_time;
                      string_of_int completed;
                      string_of_int !connect_failures;
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
          connect_failures = !connect_failures;
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

  (* [run cfg] owns the process-wide invariant hook, installed before
     any domain spawns and removed after the join, then fans the fleet
     out over [cfg.shards] worlds and merges.  One shard returns its world report
     unchanged (the historical single-threaded run, fingerprint
     included); more shards sum the counters and fingerprint the ordered
     per-shard vector. *)
  let run ?log (cfg : config) =
    if cfg.shards < 1 then invalid_arg "Soak.run: shards must be >= 1";
    let faults = ref [] in
    let faults_lock = Mutex.create () in
    Tcb_invariants.install
      ~on_violation:(fun info msgs ->
        let tagged =
          List.map
            (Printf.sprintf "t=%d after %s: %s" info.Fox_tcp.Check_hook.now
               (Fox_tcp.Tcb.action_name info.Fox_tcp.Check_hook.action))
            msgs
        in
        Mutex.lock faults_lock;
        faults := !faults @ tagged;
        Mutex.unlock faults_lock)
      ();
    Fun.protect ~finally:Tcb_invariants.uninstall
      (fun () ->
        let worlds =
          Fox_shard.Shard.run ~shards:cfg.shards (fun shard ->
              run_world ?log cfg ~shard
                ~indices:
                  (Fox_shard.Shard.split ~total:cfg.conns ~shards:cfg.shards
                     ~shard))
        in
        let invariant_faults = !faults in
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
            end_time =
              Array.fold_left (fun acc w -> max acc w.end_time) 0 worlds;
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
              Digest.to_hex
                (Digest.string (String.concat "|" shard_fingerprints));
          })

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
end

(* ------------------------------------------------------------------ *)
(* Per-algorithm dispatch                                             *)
(* ------------------------------------------------------------------ *)

module Reno_engine = Make_engine (Fox_tcp.Congestion.Reno)
module Newreno_engine = Make_engine (Fox_tcp.Congestion.Newreno)
module Cubic_engine = Make_engine (Fox_tcp.Congestion.Cubic)
module Bbr_engine = Make_engine (Fox_tcp.Congestion.Bbr_lite)

let engine_names = [ "reno"; "newreno"; "cubic"; "bbr" ]

(** [run cfg] / [check cfg] dispatch on [cfg.cc]; unknown names raise
    [Invalid_argument]. *)
let run ?log cfg =
  match cfg.cc with
  | "reno" -> Reno_engine.run ?log cfg
  | "newreno" -> Newreno_engine.run ?log cfg
  | "cubic" -> Cubic_engine.run ?log cfg
  | "bbr" -> Bbr_engine.run ?log cfg
  | other -> invalid_arg ("Soak.run: unknown congestion control " ^ other)

let check ?log cfg =
  match cfg.cc with
  | "reno" -> Reno_engine.check ?log cfg
  | "newreno" -> Newreno_engine.check ?log cfg
  | "cubic" -> Cubic_engine.check ?log cfg
  | "bbr" -> Bbr_engine.check ?log cfg
  | other -> invalid_arg ("Soak.check: unknown congestion control " ^ other)

(** [check_matrix cfg] runs the soak contract once per congestion-control
    algorithm, returning [(cc, report, problems)] rows. *)
let check_matrix ?log cfg =
  List.map
    (fun cc ->
      let r, problems = check ?log { cfg with cc } in
      (cc, r, problems))
    engine_names
