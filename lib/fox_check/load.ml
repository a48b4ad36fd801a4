(** The multi-connection serving load generator.

    One virtual network, two hosts: a server running a {!Fox_app}
    service (HTTP/1.1, echo, chargen or discard) behind the socket
    veneer, and a client that opens a fleet of concurrent connections
    and drives request/response exchanges down each, timing every
    exchange on the virtual clock.  The run reports throughput
    (requests/second over the active window) and the latency
    distribution (p50/p95/p99/max) — the standing serving benchmark
    next to [table1] — plus correctness counts: every response is
    checked byte-for-byte, so the load generator doubles as an
    application-level conformance test under concurrency.

    Everything runs under virtual time on a deterministic seed: a
    thousand concurrent connections cost milliseconds of real time, and
    two runs of the same config produce identical reports. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Ipv4_addr = Fox_ip.Ipv4_addr

(* ------------------------------------------------------------------ *)
(* The stack under load                                               *)
(* ------------------------------------------------------------------ *)

(* Serving posture: room for a thousand concurrent handshakes (SYN
   cache on, backlog above the fleet size), short TIME-WAIT and RTO
   floors to keep the virtual span tight, and Nagle off — the
   applications write whole framed responses with [write_all], so
   coalescing buys nothing and (for chargen's 74-byte lines) a Nagle ×
   delayed-ACK interlock would serialize the stream at the delayed-ACK
   clock.  Real servers set TCP_NODELAY for the same reason. *)
module Serve_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      nagle = false;
      time_wait_us = 1_000_000;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
      rto_max_us = 10_000_000;
      listen_backlog = 2048;
      syn_cache = true;
      max_connections = 8192;
      (* secure ISNs under a pinned secret: the serve benchmark measures
         the RFC 6528 path and stays reproducible run to run *)
      isn_secret = Some (0x10ad_5ec4_e7a1, 0x0bad_cafe_f00d);
    }
end

include World.Stack (Fox_tcp.Congestion.Reno) (Serve_params)
module Classic = Fox_app.Classic.Make (Sock)

(* ------------------------------------------------------------------ *)
(* Configuration and result                                           *)
(* ------------------------------------------------------------------ *)

type app = Http_app | Echo | Chargen | Discard

let app_of_string = function
  | "http" -> Some Http_app
  | "echo" -> Some Echo
  | "chargen" -> Some Chargen
  | "discard" -> Some Discard
  | _ -> None

let app_to_string = function
  | Http_app -> "http"
  | Echo -> "echo"
  | Chargen -> "chargen"
  | Discard -> "discard"

type config = {
  seed : int;
  app : app;
  conns : int;  (** concurrent connections *)
  requests : int;  (** request/response exchanges per connection *)
  payload : int;  (** response (or echoed) bytes per exchange *)
  ramp_us : int;  (** inter-connection open stagger *)
  loss : float;  (** frame loss on the shared hub *)
  reorder : float;  (** reordering probability on the hub *)
  gigabit : bool;  (** 1 Gb/s wire (vs the paper's 10 Mb/s ethernet) *)
  shards : int;
      (** engine shards: connection [i] belongs to shard [i mod shards],
          each shard a full client/server world on its own domain.
          [1] runs inline (no domains) — the historical behavior. *)
  chaos : Chaos.plan;
      (** timed path faults injected into every shard's wire (empty =
          none) *)
}

let default_config =
  {
    seed = 7;
    app = Http_app;
    conns = 100;
    requests = 4;
    payload = 1024;
    ramp_us = 100;
    loss = 0.0;
    reorder = 0.0;
    gigabit = true;
    shards = 1;
    chaos = [];
  }

type result = {
  app : string;
  conns : int;
  shards : int;
  requests_attempted : int;
  requests_ok : int;  (** exchanges that returned the exact expected bytes *)
  conn_errors : int;  (** connections lost to connect/reset/timeout *)
  bytes_received : int;
  max_concurrent : int;  (** peak simultaneously-open client connections,
                             summed across shards *)
  accepts : int;  (** server-side completed handshakes *)
  elapsed_us : int;
      (** first open to last completed exchange, virtual; with shards,
          the max over shards (the critical path) *)
  wall_s : float;  (** real seconds spent executing the run *)
  reqs_per_sec : float;
      (** total ok / virtual elapsed — per-shard virtual clocks advance
          concurrently, so this is the aggregate serving rate *)
  p50_us : int;
  p95_us : int;
  p99_us : int;
  max_us : int;
}

let pp_result fmt r =
  Format.fprintf fmt
    "%s: %d/%d requests over %d conns x %d shard%s (%d conn errors, peak \
     %d concurrent, %d accepts)@\n\
     %.0f req/s over %.3fs virtual (%.2fs wall); latency p50 %d us, p95 %d \
     us, p99 %d us, max %d us"
    r.app r.requests_ok r.requests_attempted r.conns r.shards
    (if r.shards = 1 then "" else "s")
    r.conn_errors r.max_concurrent r.accepts r.reqs_per_sec
    (float_of_int r.elapsed_us /. 1e6)
    r.wall_s r.p50_us r.p95_us r.p99_us r.max_us

let result_to_string r = Format.asprintf "%a" pp_result r

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let http_port = 8080

(* The serving world shares subnet 10.2.0.0/24 with the scenario matrix. *)
let mac_of = World.mac ~subnet:2

let make_host = World.host ~subnet:2

(* The echo payload for exchange [r] of connection [i]: a pure function
   of the seed, so the client can verify the echo byte-for-byte. *)
let payload_for cfg i r =
  Bytes.to_string
    (Rng.bytes
       (Rng.create (cfg.seed lxor (i * 7919) lxor (r * 104729)))
       cfg.payload)

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0
  | n -> sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

(* What one shard's world reports back across the domain join. *)
type world = {
  w_ok : int;
  w_errors : int;
  w_bytes : int;
  w_max_concurrent : int;
  w_accepts : int;
  w_elapsed : int;
  w_latencies : int list;
}

(* [run_world cfg ~shard ~indices] runs one complete client/server world
   — own hub, hosts, engines, scheduler — serving exactly the
   connections in [indices] (their original fleet indices, so payloads
   and open staggers match the unsharded run).  Deterministic per shard:
   everything it touches is domain-local. *)
let run_world ?(log = fun _ -> ()) cfg ~shard ~indices =
  let base = if cfg.gigabit then Netem.gigabit else Netem.ethernet_10mbps in
  let seed = cfg.seed lxor 0x10ad lxor (shard * 0x51ab) in
  let netem =
    if cfg.loss > 0.0 || cfg.reorder > 0.0 then
      Netem.adverse ~loss:cfg.loss ~reorder:cfg.reorder ~queue_frames:4096
        ~seed base
    else { base with Netem.queue_frames = 4096; seed }
  in
  let link = Link.hub ~ports:2 netem in
  let client_ip = make_host link 0 ~addr:(Ipv4_addr.of_string "10.2.0.1") in
  let server_ip = make_host link 1 ~addr:(Ipv4_addr.of_string "10.2.0.2") in
  let server_addr = Ipv4_addr.of_string "10.2.0.2" in
  let server_t = Tcp.create server_ip in
  let client_t = Tcp.create client_ip in
  let site =
    Fox_app.Http.Site.of_pages
      [
        ("/index.html", "text/html",
         "<html><body><h1>foxnet</h1></body></html>\n");
        ("/payload", "application/octet-stream", String.make cfg.payload 'x');
      ]
  in
  let requests_ok = ref 0 in
  let conn_errors = ref 0 in
  let bytes_received = ref 0 in
  let latencies = ref [] in
  let open_conns = ref 0 in
  let max_concurrent = ref 0 in
  let last_done = ref 0 in
  let serve sock =
    match cfg.app with
    | Http_app -> Http.serve site sock
    | Echo -> Classic.echo sock
    | Discard -> Classic.discard sock
    | Chargen ->
      Classic.chargen ~limit_bytes:(cfg.requests * cfg.payload) sock
  in
  let client_exchange sock i r =
    (* one timed request/response; true iff the response was exact *)
    match cfg.app with
    | Http_app -> (
      match Http.get sock "/payload" with
      | Some (200, _, body) when String.length body = cfg.payload ->
        bytes_received := !bytes_received + String.length body;
        true
      | Some _ | None -> false)
    | Echo -> (
      let payload = payload_for cfg i r in
      Sock.write_all sock payload;
      match Sock.read_exactly sock cfg.payload with
      | Some echoed when String.equal echoed payload ->
        bytes_received := !bytes_received + cfg.payload;
        true
      | Some _ | None -> false)
    | Chargen -> (
      (* the server streams; an "exchange" is the next [payload] bytes
         arriving intact *)
      match Sock.read_exactly sock cfg.payload with
      | Some chunk ->
        let expected =
          Fox_app.Classic.chargen_bytes ((r + 1) * cfg.payload)
        in
        bytes_received := !bytes_received + cfg.payload;
        String.equal chunk
          (String.sub expected (r * cfg.payload) cfg.payload)
      | None -> false)
    | Discard ->
      (* timed on the send side: how long until flow control accepts
         the whole write *)
      Sock.write_all sock (payload_for cfg i r);
      true
  in
  ignore
    (Scheduler.run (fun () ->
         if cfg.chaos <> [] then Chaos.install ~log cfg.chaos link;
         ignore (Sock.listen server_t { Tcp.local_port = http_port } serve);
         List.iter (fun i ->
           Scheduler.fork (fun () ->
               Scheduler.sleep (i * cfg.ramp_us);
               match
                 Sock.connect client_t
                   { Tcp.peer = server_addr; port = http_port;
                     local_port = None }
               with
               | exception Fox_proto.Common.Connection_failed msg ->
                 incr conn_errors;
                 log (Printf.sprintf "conn %d: connect failed: %s" i msg)
               | sock -> (
                 incr open_conns;
                 if !open_conns > !max_concurrent then
                   max_concurrent := !open_conns;
                 match
                   for r = 0 to cfg.requests - 1 do
                     let t0 = Scheduler.now () in
                     let ok = client_exchange sock i r in
                     let t1 = Scheduler.now () in
                     latencies := (t1 - t0) :: !latencies;
                     if ok then incr requests_ok;
                     if t1 > !last_done then last_done := t1
                   done
                 with
                 | () ->
                   decr open_conns;
                   Sock.close sock
                 | exception
                     ( Fox_proto.Socket.Socket_error _
                     | Fox_proto.Common.Send_failed _ ) ->
                   incr conn_errors;
                   decr open_conns;
                   Sock.abort sock))
         ) indices));
  {
    w_ok = !requests_ok;
    w_errors = !conn_errors;
    w_bytes = !bytes_received;
    w_max_concurrent = !max_concurrent;
    w_accepts = (Tcp.stats server_t).Fox_tcp.Tcp.accepts;
    w_elapsed = !last_done;
    w_latencies = !latencies;
  }

(* [run cfg] partitions the fleet over [cfg.shards] worlds (one domain
   each; inline when 1) and merges: counters sum, latency percentiles
   come from the merged distribution, and the virtual elapsed is the max
   over shards — the shards run concurrently, so the slowest one is the
   wall the fleet waits on. *)
let run ?log (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Load.run: shards must be >= 1";
  let wall0 = Unix.gettimeofday () in
  let worlds =
    Fox_shard.Shard.run ~shards:cfg.shards (fun shard ->
        run_world ?log cfg ~shard
          ~indices:
            (Fox_shard.Shard.split ~total:cfg.conns ~shards:cfg.shards
               ~shard))
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 worlds in
  let requests_ok = sum (fun w -> w.w_ok) in
  let elapsed_us =
    max 1 (Array.fold_left (fun acc w -> max acc w.w_elapsed) 0 worlds)
  in
  let latencies =
    Array.fold_left (fun acc w -> List.rev_append w.w_latencies acc) [] worlds
  in
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  {
    app = app_to_string cfg.app;
    conns = cfg.conns;
    shards = cfg.shards;
    requests_attempted = cfg.conns * cfg.requests;
    requests_ok;
    conn_errors = sum (fun w -> w.w_errors);
    bytes_received = sum (fun w -> w.w_bytes);
    max_concurrent = sum (fun w -> w.w_max_concurrent);
    accepts = sum (fun w -> w.w_accepts);
    elapsed_us;
    wall_s;
    reqs_per_sec =
      float_of_int requests_ok /. (float_of_int elapsed_us /. 1e6);
    p50_us = percentile sorted 0.50;
    p95_us = percentile sorted 0.95;
    p99_us = percentile sorted 0.99;
    max_us = percentile sorted 1.0;
  }

(** [check cfg] runs the load and returns the result plus the problems
    found (empty = pass): lost connections, inexact responses, or an
    idle server (nothing accepted). *)
let check ?log cfg =
  let r = run ?log cfg in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  if r.conn_errors > 0 then problem "%d connections errored" r.conn_errors;
  if r.requests_ok <> r.requests_attempted then
    problem "%d of %d requests failed or returned wrong bytes"
      (r.requests_attempted - r.requests_ok)
      r.requests_attempted;
  if r.accepts < r.conns then
    problem "server accepted %d of %d connections" r.accepts r.conns;
  (r, List.rev !problems)
