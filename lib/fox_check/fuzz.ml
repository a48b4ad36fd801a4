(** The differential fuzz driver.

    A seeded generator produces {e event schedules} — payload chunks with
    inter-send delays, an adverse {!Fox_dev.Netem} preset, fault rates for
    two {!Faulty} layers (below Ethernet's IP client and below TCP), and a
    final user event (close or abort).  Each schedule runs twice under
    virtual time, once through the structured TCP
    ([Tcp(Faulty(Ip(Faulty(Eth)))))] and once through the monolithic
    baseline over the same faulty composition, with
    {!Tcb_invariants.check} installed for the structured run.  The two
    executions must deliver the same byte stream and end in compatible
    states; a schedule that does not is reported with its seed and a
    replayable, minimized event trace.

    Everything — payload bytes, link randomness, fault decisions — derives
    from the schedule seed, so a failure reproduces byte-for-byte from
    [foxnet fuzz --seed N --iters 1]. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Ipv4_addr = Fox_ip.Ipv4_addr
module Status = Fox_proto.Status

(* ------------------------------------------------------------------ *)
(* The faulty stack: Tcp(Faulty(Ip(Faulty(Eth))))                     *)
(* ------------------------------------------------------------------ *)

module Eth = World.Eth
module Feth = Faulty.Make (Eth)
module Ip = Fox_ip.Ip.Make (Feth) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)
module Fip = Faulty.Make (Ip)
module Faux = Fip.Lift_aux (Ip_aux)

(* Short TIME-WAIT and RTO floors keep each schedule's virtual span small;
   the machinery exercised is the same.  The overload defenses run hot in
   every schedule: the structured engine holds half-open handshakes in its
   SYN cache (falling back to cookies when the small backlog fills) and
   bounds its queues, the baseline caps half-open TCBs per listener — so
   the scripted SYN floods below stress both engines' refusal paths while
   the differential oracle checks the real transfer still agrees. *)
module Tcp_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      time_wait_us = 1_000_000;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
      listen_backlog = 8;
      syn_cache = true;
      syn_cookies = true;
      max_ooo_bytes = 32768;
      max_to_do = 512;
      (* the fuzzer's pinned digests (and the differential against the
         baseline engine, which keeps the clock+salt scheme) predate the
         RFC 6528 / per-connection-budget fixes: run with the legacy ISNs
         and the engine-wide budget only *)
      secure_isn = false;
      challenge_ack_conn_limit = 0;
    }
end

module Baseline_params : Fox_baseline.Tcp_monolithic.PARAMS = struct
  include Fox_baseline.Tcp_monolithic.Default_params

  let time_wait_us = 1_000_000
  let rto_min_us = 50_000
  let rto_initial_us = 200_000
  let listen_backlog = 4
end

module Engines = World.Engines (Fip) (Faux)
module Flood = Synflood.Make (Fip) (Faux)

(* ------------------------------------------------------------------ *)
(* Schedules                                                          *)
(* ------------------------------------------------------------------ *)

type user_event = Close | Abort

type schedule = {
  seed : int;
  chunks : int list;  (** payload sizes, sent in order *)
  delay_us : int;  (** inter-chunk user delay *)
  loss : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  eth_drop : float;  (** silent drop below Ethernet clients *)
  ip_drop : float;  (** silent drop below TCP *)
  ip_fail : float;  (** [Send_failed] below TCP *)
  connect_fail : int;  (** transient lower connect failures (client) *)
  syn_flood : int;  (** scripted half-open SYNs from the attacker host *)
  flood_rst : bool;  (** the attacker later abandons each SYN with an RST *)
  bad_acks : int;  (** forged-cookie bare ACKs from the attacker *)
  finale : user_event;
}

let pp_user_event = function Close -> "close" | Abort -> "abort"

let pp_schedule fmt s =
  Format.fprintf fmt
    "{seed=%d; chunks=[%s]; delay=%dus; loss=%.3f; dup=%.3f; reorder=%.3f; \
     corrupt=%.3f; eth_drop=%.3f; ip_drop=%.3f; ip_fail=%.3f; \
     connect_fail=%d; syn_flood=%d%s; bad_acks=%d; finale=%s}"
    s.seed
    (String.concat ";" (List.map string_of_int s.chunks))
    s.delay_us s.loss s.duplicate s.reorder s.corrupt s.eth_drop s.ip_drop
    s.ip_fail s.connect_fail s.syn_flood
    (if s.flood_rst then "+rst" else "")
    s.bad_acks (pp_user_event s.finale)

let schedule_to_string s = Format.asprintf "%a" pp_schedule s

(* Small preset palettes: most schedules are mostly benign so the
   differential oracle stays strict, with enough adversity mixed in to
   reach the recovery paths. *)
let generate ~seed =
  let rng = Rng.create (seed * 2654435761) in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let n_chunks = 1 + Rng.int rng 6 in
  {
    seed;
    chunks = List.init n_chunks (fun _ -> 1 + Rng.int rng 2500);
    delay_us = Rng.int rng 5_000;
    loss = pick [| 0.0; 0.0; 0.0; 0.02; 0.05; 0.1 |];
    duplicate = pick [| 0.0; 0.0; 0.02 |];
    reorder = pick [| 0.0; 0.0; 0.1 |];
    corrupt = pick [| 0.0; 0.0; 0.02 |];
    eth_drop = pick [| 0.0; 0.0; 0.05 |];
    ip_drop = pick [| 0.0; 0.0; 0.05 |];
    ip_fail = pick [| 0.0; 0.0; 0.05 |];
    connect_fail = (if Rng.bool rng 0.1 then 1 else 0);
    syn_flood = pick [| 0; 0; 0; 6; 12 |];
    flood_rst = Rng.bool rng 0.3;
    bad_acks = pick [| 0; 0; 0; 3 |];
    finale = (if Rng.bool rng 0.15 then Abort else Close);
  }

(* The payload is a pure function of the schedule seed, shared by both
   engine runs. *)
let payload_of s =
  let total = List.fold_left ( + ) 0 s.chunks in
  Bytes.to_string (Rng.bytes (Rng.create (s.seed lxor 0x5eed)) total)

let netem_of s =
  Netem.adverse ~loss:s.loss ~duplicate:s.duplicate ~reorder:s.reorder
    ~corrupt:s.corrupt ~seed:(s.seed lxor 0x11ce)
    Netem.ethernet_10mbps

(* ------------------------------------------------------------------ *)
(* Hosts                                                              *)
(* ------------------------------------------------------------------ *)

type fuzz_host = { addr : Ipv4_addr.t; fip : Fip.t }

(* Client, server and attacker share one wire, so the flood contends for
   the same medium the real transfer uses. *)
let n_ports = 3

module Ip_config = World.Ip_config (Ip)

(* No ARP in this stack: IP next hops map to MACs statically, so the
   [Faulty] layer under IP sits directly on Ethernet. *)
let hosts_for s ~engine_salt =
  let link = Link.hub ~ports:n_ports (netem_of s) in
  let host n ~eth_cfg ~ip_cfg =
    let addr = World.addr ~subnet:0 n in
    let dev = Fox_dev.Device.create (Link.port link (n - 1)) in
    let eth = Eth.create dev ~mac:(World.mac ~subnet:0 addr) in
    let ip = Ip.create (Feth.create eth eth_cfg) (Ip_config.make ~subnet:0 addr) in
    { addr; fip = Fip.create ip ip_cfg }
  in
  let cfg seed' ~connect_fail ~allow_fail =
    { Faulty.passthrough with
      rng = Rng.create seed';
      send_fail = (if allow_fail then s.ip_fail else 0.0);
      send_drop = (if allow_fail then s.ip_drop else s.eth_drop);
      connect_fail;
    }
  in
  let salt = (s.seed * 31) + engine_salt in
  let a =
    host 1
      ~eth_cfg:(cfg (salt lxor 0xe1) ~connect_fail:0 ~allow_fail:false)
      ~ip_cfg:(cfg (salt lxor 0x1a) ~connect_fail:s.connect_fail ~allow_fail:true)
  in
  let b =
    host 2
      ~eth_cfg:(cfg (salt lxor 0xe2) ~connect_fail:0 ~allow_fail:false)
      ~ip_cfg:(cfg (salt lxor 0x1b) ~connect_fail:0 ~allow_fail:true)
  in
  (* the attacker's own layers are fault-free: its frames face only the
     shared medium's adversity, so the flood's shape is schedule-driven *)
  let clean seed' = { Faulty.passthrough with rng = Rng.create seed' } in
  let atk =
    host 3 ~eth_cfg:(clean (salt lxor 0xe3)) ~ip_cfg:(clean (salt lxor 0x1c))
  in
  (a, b, atk)

(* ------------------------------------------------------------------ *)
(* Engines                                                            *)
(* ------------------------------------------------------------------ *)

(* The structured engine is built per congestion-control algorithm: the
   differential oracle (delivery, prefix-on-abort, connect agreement) is
   algorithm-independent, so the same schedules can fuzz Reno against the
   baseline and then re-run under NewReno/CUBIC/BBR with only the
   invariants and the oracle — the baseline always runs its own fixed
   congestion control.  The fuzz and the per-algorithm schedule matrix
   share these instances. *)
let fox_engines = Engines.fox_table (module Tcp_params)

module Fox_engine = (val List.assoc "reno" fox_engines)
module Baseline_engine = Engines.Baseline (Baseline_params)

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

type run_result = {
  delivered : string;  (** bytes the server's handler received, in order *)
  connect_failed : bool;  (** the (retried) active open never completed *)
  end_time : int;  (** virtual time at quiescence *)
  invariant_faults : string list;  (** structured engine only *)
  events : string list;  (** deterministic event log, oldest first *)
  flight : string list;
      (** the engine's flight-recorder ring (rendered), oldest first *)
}

let port = 7777

let run_engine (module E : Engines.S) s ~engine_salt ~with_invariants =
  let payload = payload_of s in
  let a, b, atk = hosts_for s ~engine_salt in
  let delivered = Buffer.create (String.length payload) in
  let events = ref [] in
  let event fmt =
    Printf.ksprintf
      (fun msg ->
        events := Printf.sprintf "t=%d %s" (Scheduler.now ()) msg :: !events)
      fmt
  in
  let connect_failed = ref false in
  (* The structured engine runs under the invariants and the differential
     shadow of the header prediction; the flight recorder runs for every
     engine, so a failing verdict can dump each engine's ring. *)
  let run =
    World.checked ~invariants:with_invariants ~shadow:with_invariants
      ~flight:true (fun () ->
        let server_t = E.create b.fip in
        let client_t = E.create a.fip in
        let stats =
          Scheduler.run (fun () ->
              E.listen server_t ~port
                ~on_data:(fun packet ->
                  Buffer.add_string delivered (Packet.to_string packet);
                  Packet.release packet)
                ~on_status:(fun status ->
                  event "server status %s" (Status.to_string status));
              let conn =
                let attempt () =
                  E.connect client_t ~peer:b.addr ~port ~on_status:(fun status ->
                      event "client status %s" (Status.to_string status))
                in
                match attempt () with
                | conn -> Some conn
                | exception Fox_proto.Common.Connection_failed msg ->
                  event "connect failed (%s), retrying" msg;
                  (* the injected failure is transient: one retry *)
                  Scheduler.sleep 10_000;
                  (match attempt () with
                  | conn -> Some conn
                  | exception Fox_proto.Common.Connection_failed msg ->
                    event "connect failed again (%s)" msg;
                    connect_failed := true;
                    None)
              in
              match conn with
              | None -> ()
              | Some conn ->
                (* the flood starts once the real connection is up, so the
                   oracle checks established transfers survive it; refusal
                   during connect is the soak harness's territory.  Its
                   half-open SYNs are optionally abandoned with RSTs, the
                   path that clears a SYN-cache entry early. *)
                Flood.script atk.fip ~target:b.addr ~dst_port:port
                  ~syns:s.syn_flood ~bad_acks:s.bad_acks ~gap_us:700
                  ~abandon:(fun _ -> s.flood_rst)
                  ~rst_gap_us:300
                  ~on_done:(event "flood done (%d segments)");
                let offset = ref 0 in
                List.iteri
                  (fun i size ->
                    Scheduler.sleep s.delay_us;
                    let chunk = String.sub payload !offset size in
                    offset := !offset + size;
                    match E.send_string conn chunk with
                    | () -> event "sent chunk %d (%dB)" i size
                    | exception Fox_proto.Common.Send_failed msg ->
                      event "send of chunk %d failed (%s)" i msg)
                  s.chunks;
                Scheduler.sleep s.delay_us;
                (match s.finale with
                | Close ->
                  event "user close";
                  E.close conn
                | Abort ->
                  event "user abort";
                  E.abort conn);
                event "client finale issued")
        in
        (stats.Scheduler.end_time, client_t, server_t))
  in
  let end_time, client_t, server_t = run.World.value in
  {
    delivered = Buffer.contents delivered;
    connect_failed = !connect_failed;
    end_time;
    invariant_faults = run.World.faults;
    flight = run.World.ring;
    events =
      List.rev
        (Printf.sprintf "t=%d quiescent; client %s; server %s" end_time
           (E.stats_line client_t) (E.stats_line server_t)
        :: !events);
  }

(* ------------------------------------------------------------------ *)
(* Differential verdict                                               *)
(* ------------------------------------------------------------------ *)

type verdict = {
  schedule : schedule;
  problems : string list;  (** empty = schedule passed *)
  trace : string;  (** deterministic, byte-for-byte reproducible *)
}

let is_prefix p whole =
  String.length p <= String.length whole
  && String.equal p (String.sub whole 0 (String.length p))

(** [check_schedule ?engine s] runs [s] through the structured engine
    ([engine], default Reno) and the baseline, returning the differential
    verdict plus the combined event trace. *)
let check_schedule ?(engine = (module Fox_engine : Engines.S)) s =
  let (module Fox : Engines.S) = engine in
  let fox = run_engine (module Fox) s ~engine_salt:1 ~with_invariants:true in
  let base =
    run_engine (module Baseline_engine) s ~engine_salt:2 ~with_invariants:false
  in
  let payload = payload_of s in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  List.iter
    (fun f -> problem "invariant violation: %s" f)
    fox.invariant_faults;
  if fox.connect_failed <> base.connect_failed then
    problem "connect outcomes diverge: fox=%b baseline=%b" fox.connect_failed
      base.connect_failed;
  if not (fox.connect_failed || base.connect_failed) then begin
    match s.finale with
    | Close ->
      (* a graceful close after reliable sends must deliver everything *)
      if not (String.equal fox.delivered payload) then
        problem "fox delivered %d of %d bytes (or wrong bytes)"
          (String.length fox.delivered)
          (String.length payload);
      if not (String.equal base.delivered payload) then
        problem "baseline delivered %d of %d bytes (or wrong bytes)"
          (String.length base.delivered)
          (String.length payload)
    | Abort ->
      (* an abort may cut the stream anywhere, but never corrupt it *)
      if not (is_prefix fox.delivered payload) then
        problem "fox delivered bytes that are not a payload prefix";
      if not (is_prefix base.delivered payload) then
        problem "baseline delivered bytes that are not a payload prefix"
  end;
  let problems = List.rev !problems in
  (* On failure the report carries both engines' flight-recorder rings
     (capped per engine; the oldest events are elided, not the newest). *)
  let flight_dump label lines =
    Printf.sprintf "[%s-flight] %d events:" label (List.length lines)
    :: List.map
         (fun l -> Printf.sprintf "[%s-flight] %s" label l)
         (World.tail ~cap:120 lines)
  in
  let flights =
    if problems = [] then []
    else flight_dump "fox" fox.flight @ flight_dump "baseline" base.flight
  in
  let trace =
    String.concat "\n"
      (("schedule " ^ schedule_to_string s)
      :: (List.map (fun e -> "[fox] " ^ e) fox.events
         @ List.map (fun e -> "[baseline] " ^ e) base.events
         @ flights
         @ [
             Printf.sprintf "delivered fox=%dB(%s) baseline=%dB(%s)"
               (String.length fox.delivered)
               (Digest.to_hex (Digest.string fox.delivered))
               (String.length base.delivered)
               (Digest.to_hex (Digest.string base.delivered));
           ]))
  in
  { schedule = s; problems; trace }

(* ------------------------------------------------------------------ *)
(* Minimization                                                       *)
(* ------------------------------------------------------------------ *)

(* Greedy shrink: drop or halve chunks and zero fault knobs while the
   schedule still fails, within a bounded number of re-runs. *)
let minimize ?engine s0 =
  let fails s = (check_schedule ?engine s).problems <> [] in
  let candidates s =
    let n = List.length s.chunks in
    let drop_chunk i = List.filteri (fun j _ -> j <> i) s.chunks in
    let halve_chunk i =
      List.mapi (fun j c -> if j = i then max 1 (c / 2) else c) s.chunks
    in
    List.concat
      [
        (if n > 1 then List.init n (fun i -> { s with chunks = drop_chunk i })
         else []);
        List.filteri
          (fun i _ -> List.nth s.chunks i > 64)
          (List.init n (fun i -> { s with chunks = halve_chunk i }));
        (if s.loss > 0.0 then [ { s with loss = 0.0 } ] else []);
        (if s.duplicate > 0.0 then [ { s with duplicate = 0.0 } ] else []);
        (if s.reorder > 0.0 then [ { s with reorder = 0.0 } ] else []);
        (if s.corrupt > 0.0 then [ { s with corrupt = 0.0 } ] else []);
        (if s.eth_drop > 0.0 then [ { s with eth_drop = 0.0 } ] else []);
        (if s.ip_drop > 0.0 then [ { s with ip_drop = 0.0 } ] else []);
        (if s.ip_fail > 0.0 then [ { s with ip_fail = 0.0 } ] else []);
        (if s.connect_fail > 0 then [ { s with connect_fail = 0 } ] else []);
        (if s.syn_flood > 0 then [ { s with syn_flood = 0 } ] else []);
        (if s.flood_rst then [ { s with flood_rst = false } ] else []);
        (if s.bad_acks > 0 then [ { s with bad_acks = 0 } ] else []);
        (if s.delay_us > 0 then [ { s with delay_us = 0 } ] else []);
      ]
  in
  let budget = ref 40 in
  let rec go s =
    let rec try_candidates = function
      | [] -> s
      | c :: rest ->
        if !budget <= 0 then s
        else begin
          decr budget;
          if fails c then go c else try_candidates rest
        end
    in
    try_candidates (candidates s)
  in
  go s0

(* ------------------------------------------------------------------ *)
(* The driver                                                         *)
(* ------------------------------------------------------------------ *)

type failure = { seed : int; minimized : schedule; report : string }

(** [run_seeds ~seed ~iters ()] fuzzes schedules for seeds
    [seed .. seed+iters-1] and returns the failures, each with a
    minimized, replayable schedule.  [log] observes every verdict;
    [engine] selects the structured engine (default Reno). *)
let run_seeds ?(log = fun _ -> ()) ?engine ~seed ~iters () =
  let failures = ref [] in
  for i = 0 to iters - 1 do
    let s = generate ~seed:(seed + i) in
    let v = check_schedule ?engine s in
    log v;
    if v.problems <> [] then begin
      let minimized = minimize ?engine s in
      let mv = check_schedule ?engine minimized in
      let mv, minimized =
        (* minimization is best-effort: fall back to the original *)
        if mv.problems <> [] then (mv, minimized) else (v, s)
      in
      let report =
        String.concat "\n"
          ([ Printf.sprintf "seed %d FAILED:" s.seed ]
          @ List.map (fun p -> "  " ^ p) v.problems
          @ [
              "replay: foxnet fuzz --seed "
              ^ string_of_int s.seed ^ " --iters 1";
              "minimized schedule: " ^ schedule_to_string minimized;
              "minimized trace:";
              mv.trace;
            ])
      in
      failures := { seed = s.seed; minimized; report } :: !failures
    end
  done;
  List.rev !failures

(** [trace_of_seed ~seed] is the full deterministic event trace for one
    generated schedule under the default (Reno) engine — identical across
    runs for the same seed, and the fingerprint the Reno refactor must
    preserve. *)
let trace_of_seed ~seed = (check_schedule (generate ~seed)).trace

(** [run_matrix ~seed ~iters ()] runs the same seed range once per
    congestion-control algorithm and returns [(cc, failures)] rows.  The
    delivery oracle and {!Tcb_invariants} apply to every algorithm; only
    Reno additionally promises trace equality with the pre-refactor
    engine. *)
let run_matrix ?(log = fun _ _ -> ()) ?engines ~seed ~iters () =
  let engines = match engines with Some e -> e | None -> fox_engines in
  List.map
    (fun (cc, engine) ->
      let failures = run_seeds ~log:(log cc) ~engine ~seed ~iters () in
      (cc, failures))
    engines
