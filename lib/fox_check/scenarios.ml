(** The adverse-network scenario matrix.

    Each scenario is a deterministic virtual network shaped to expose one
    congestion-control pathology: bursty loss (fast retransmit vs RTO),
    reordering (spurious dup-ACKs), bufferbloat (a deep FIFO a
    window-filling algorithm must blow up and a pacing algorithm should
    not), asymmetric RTT (a slow ACK path), and N flows contending for
    one bottleneck (fairness).  Every algorithm from {!Fox_tcp.Congestion}
    runs the same scenario over the same seeded wire, with
    {!Tcb_invariants} installed, and the matrix reports per-flow goodput,
    aggregate goodput, and the Jain fairness index.

    Everything derives from the scenario's fixed seed, so a matrix cell
    reproduces byte-for-byte; the quick variant trims the transfer for
    CI. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem

(* Modest RTO floors keep loss-scenario virtual spans small without
   hiding the recovery machinery.  The advertised window is raised far
   above the paper's 4096 so the congestion window — not flow control —
   is the binding constraint: with the library default, every algorithm
   saturates the 8-segment receive window and the matrix cannot tell
   them apart. *)
module Scn_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      initial_window = 65_535;
      time_wait_us = 500_000;
      rto_min_us = 100_000;
      rto_initial_us = 300_000;
      (* the attack matrix models an attacker who predicts the legacy
         clock+salt ISNs (the [Sweep] base/stride below assume them), so
         the matrix runs with the pre-6528 scheme; the secure-ISN teeth
         cell is built separately on [Secure_unguarded_params].  The
         per-connection budget layer is likewise off so the cells'
         challenge accounting keeps its pre-fix meaning. *)
      secure_isn = false;
      challenge_ack_conn_limit = 0;
    }
end

(* ------------------------------------------------------------------ *)
(* Scenario definitions                                               *)
(* ------------------------------------------------------------------ *)

(* A hostile station sharing the wire: kind, sequence model, probes per
   virtual second, and how many probes to fire (pacing starts shortly
   after the transfer connects, so the attack covers the established
   connection). *)
type attack = {
  kind : Attack.kind;
  model : Attack.seq_model;
  pps : int;
  probes : int;
}

(* The attacker has modeled the stack's RFC 793-style clock-driven ISN
   generator (the classic prediction attack), so its probes sweep the low
   band the victim's sequence numbers actually live in, in steps smaller
   than the 64 KB advertised window.  Under RFC 793 rules one landing in
   the window kills the connection or injects; under RFC 5961 the same
   sweep draws nothing but rate-limited challenge ACKs. *)
let isn_sweep = Attack.Sweep { base = 0; stride = 8_192; span = 1 lsl 20 }

type scenario = {
  name : string;
  descr : string;
  netem : Netem.t;  (** the wire, seed included — identical per algorithm *)
  flows : int;  (** concurrent client connections *)
  bytes : int;  (** payload per flow (full mode) *)
  quick_bytes : int;  (** payload per flow (quick / CI mode) *)
  attack : attack option;  (** a blind adversary on the shared wire *)
}

let base = Netem.ethernet_10mbps

let all : scenario list =
  [
    {
      name = "loss_burst";
      descr = "2% loss in bursts of 4 frames";
      netem = Netem.adverse ~loss:0.02 ~loss_burst:4 ~seed:0x10551 base;
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack = None;
    };
    {
      name = "reorder";
      descr = "5% of frames jittered up to 3 ms";
      netem =
        { (Netem.adverse ~reorder:0.05 ~seed:0x20e0 base) with
          reorder_jitter_us = 3_000;
        };
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack = None;
    };
    {
      name = "bufferbloat";
      descr = "10 Mb/s, 5 ms path, 256-frame FIFO";
      netem =
        Netem.adverse ~queue_frames:256 ~seed:0x3b1 { base with propagation_us = 5_000 };
      flows = 1;
      bytes = 524_288;
      quick_bytes = 65_536;
      attack = None;
    };
    {
      name = "asym_rtt";
      descr = "1 ms forward, 20 ms reverse path";
      netem =
        Netem.adverse ~reverse_propagation_us:20_000 ~seed:0x45a
          { base with propagation_us = 1_000 };
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack = None;
    };
    {
      name = "bottleneck_4";
      descr = "4 flows share one 10 Mb/s, 32-frame queue";
      netem =
        Netem.adverse ~queue_frames:32 ~seed:0x5b0 { base with propagation_us = 1_000 };
      flows = 4;
      bytes = 131_072;
      quick_bytes = 16_384;
      attack = None;
    };
    (* The hostile-wire cells: a clean medium, all adversity from the
       blind attacker.  With the RFC 5961 defenses on (the default) every
       cell must complete with zero injected bytes; the unguarded variant
       of the same cells is the teeth-check. *)
    {
      name = "blind_rst";
      descr = "2k/s forged RSTs, ISN-predicting sweep";
      netem = Netem.adverse ~seed:0x6a10 base;
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack =
        Some
          { kind = Attack.Blind_rst; model = isn_sweep; pps = 2_000;
            probes = 4_000 };
    };
    {
      name = "blind_syn";
      descr = "2k/s forged SYNs on the established connection";
      netem = Netem.adverse ~seed:0x6a20 base;
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack =
        Some
          { kind = Attack.Blind_syn; model = isn_sweep; pps = 2_000;
            probes = 4_000 };
    };
    {
      name = "blind_data";
      descr = "1k/s forged 512B data segments, swept SEQ, random ACK";
      netem = Netem.adverse ~seed:0x6a30 base;
      flows = 1;
      bytes = 262_144;
      quick_bytes = 32_768;
      attack =
        Some
          { kind = Attack.Blind_data; model = isn_sweep; pps = 1_000;
            probes = 2_000 };
    };
  ]

let scenario_names = List.map (fun s -> s.name) all

let find name = List.find_opt (fun s -> s.name = name) all

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type flow_result = {
  delivered : int;  (** bytes the server received on this stream *)
  finished_at_us : int;  (** virtual time of the last byte, or end time *)
  goodput_mbps : float;
}

type result = {
  scenario : string;
  cc : string;
  flow_results : flow_result list;
  aggregate_goodput_mbps : float;
      (** total payload over the span to the last flow's finish *)
  fairness : float;  (** Jain index over per-flow goodputs; 1.0 = equal *)
  retransmissions : int;
  wire_drops : int;  (** lossy/queue drops the wire recorded *)
  end_time : int;  (** virtual µs at quiescence *)
  invariant_faults : string list;
  complete : bool;  (** every flow delivered its full payload *)
  attack_probes : int;  (** blind probes the adversary put on the wire *)
  injected_bytes : int;
      (** delivered bytes that differ from the legitimate payload (plus
          any surplus) — forged data the stack accepted; must be 0 *)
  flight : string list;
      (** the flight-recorder ring (rendered, oldest first) — captured
          only when the cell failed, for post-mortem without a re-run *)
}

(* Jain's fairness index: (sum x)^2 / (n * sum x^2), 1/n..1. *)
let jain = function
  | [] -> 1.0
  | xs ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

(* ------------------------------------------------------------------ *)
(* One matrix cell                                                    *)
(* ------------------------------------------------------------------ *)

let port = 7777

let payload_for scn ~bytes i =
  Bytes.to_string
    (Rng.bytes (Rng.create (scn.netem.Netem.seed lxor (i * 7919))) bytes)

module Atk = Attack.Make (World.Ip) (World.Ip_aux)

(* Count delivered bytes that are not the legitimate payload: mismatches
   within the common prefix plus any surplus beyond the expected length.
   Missing bytes are incompleteness, not injection. *)
let injected_in delivered expected =
  let n = min (String.length delivered) (String.length expected) in
  let c = ref (max 0 (String.length delivered - String.length expected)) in
  for i = 0 to n - 1 do
    if delivered.[i] <> expected.[i] then incr c
  done;
  !c

(* The engine is built over both the congestion-control algorithm and the
   TCP parameter pack, so the same cells can run with the RFC 5961
   defenses on (the default, {!Scn_params}) and off (the teeth-check,
   {!Unguarded_params}). *)
module Make_engine_p (Cc : Fox_tcp.Congestion.S) (P : Fox_tcp.Tcp.PARAMS) =
struct
  include World.Stack (Cc) (P)

  let run ?(quick = false) scn =
    let bytes = if quick then scn.quick_bytes else scn.bytes in
    (* flows share the same wire: the forward medium (and its finite
       queue) is the bottleneck they contend for.  An attack scenario
       gets a hub with a third port for the adversary's station. *)
    let link =
      match scn.attack with
      | None -> Link.point_to_point scn.netem
      | Some _ -> Link.hub ~ports:3 scn.netem
    in
    let client_addr = World.addr ~subnet:2 1 in
    let server_addr = World.addr ~subnet:2 2 in
    let client_ip = World.host ~subnet:2 link 0 ~addr:client_addr in
    let server_ip = World.host ~subnet:2 link 1 ~addr:server_addr in
    (* the adversary spoofs the client: its IP instance claims the
       client's address, so every probe is stamped and checksummed as if
       the legitimate peer had sent it (see {!Attack}) *)
    let attacker =
      match scn.attack with
      | None -> None
      | Some cfg ->
        let atk_ip = World.host ~subnet:2 link 2 ~addr:client_addr in
        Some
          ( cfg,
            Atk.create ~model:cfg.model atk_ip ~target:server_addr
              ~seed:scn.netem.Netem.seed )
    in
    (* as in the fuzz harness, the flight recorder runs for every cell so
       a failing verdict carries the ring *)
    let run =
      World.checked ~invariants:true ~flight:true (fun () ->
        let server_t = Tcp.create server_ip in
        let client_t = Tcp.create client_ip in
        (* accept order = flow order for scoring; all flows carry the same
           number of bytes, so identity does not affect the fairness index *)
        let streams : (Buffer.t * int ref) list ref = ref [] in
        (* client-side connections survive closure as records, so their
           final TCB counters can be read after quiescence *)
        let client_conns : Tcp.connection list ref = ref [] in
        let stats =
          Scheduler.run (fun () ->
              sink server_t ~port ~stream:(fun () ->
                  let buf = Buffer.create bytes in
                  let finished = ref 0 in
                  streams := (buf, finished) :: !streams;
                  ( buf,
                    fun () ->
                      if Buffer.length buf >= bytes && !finished = 0 then
                        finished := Scheduler.now () ));
              (match attacker with
              | None -> ()
              | Some (cfg, atk) ->
                Scheduler.fork (fun () ->
                    (* the probes target the established connection's
                       four-tuple: the stack's first ephemeral port,
                       once the handshake has settled *)
                    Scheduler.sleep 10_000;
                    Atk.launch atk ~kind:cfg.kind ~src_port:49152
                      ~dst_port:port ~pps:cfg.pps ~probes:cfg.probes));
              for i = 0 to scn.flows - 1 do
                Scheduler.fork (fun () ->
                    (* a tiny stagger keeps simultaneous SYNs from
                       colliding on the half-open path; the flows still
                       overlap for >99% of the transfer *)
                    Scheduler.sleep (i * 500);
                    push client_t ~peer:server_addr ~port
                      ~on_open:(fun conn -> client_conns := conn :: !client_conns)
                      (payload_for scn ~bytes i))
              done)
        in
        let end_time = stats.Scheduler.end_time in
        (* Streams that never carried a byte are not transfer flows: under
           a blind-SYN storm the listener legitimately accepts (and the
           real peer promptly resets) embryonic connections for forged
           SYNs once the tuple is free again — ordinary TCP, not a
           defense failure, and not a flow to score.  A legitimate flow
           that truly delivered nothing still fails the completeness
           check below, since fewer than [scn.flows] streams remain. *)
        let scored =
          List.filter (fun (buf, _) -> Buffer.length buf > 0) !streams
        in
        let flow_results =
          List.rev_map
            (fun (buf, finished) ->
              let delivered = Buffer.length buf in
              let finished_at_us =
                if !finished > 0 then !finished else end_time
              in
              let span = max 1 finished_at_us in
              {
                delivered;
                finished_at_us;
                goodput_mbps = float_of_int (delivered * 8) /. float_of_int span;
              })
            scored
        in
        let total_delivered =
          List.fold_left (fun a f -> a + f.delivered) 0 flow_results
        in
        let last_finish =
          List.fold_left (fun a f -> max a f.finished_at_us) 1 flow_results
        in
        let retransmissions =
          List.fold_left
            (fun a conn ->
              a + (Tcp.conn_stats conn).Fox_tcp.Tcp.retransmissions)
            0 !client_conns
        in
        let drops i =
          let s = Link.stats link i in
          s.Link.dropped + s.Link.queue_drops
        in
        let injected_bytes =
          match scn.attack with
          | None -> 0
          | Some _ ->
            let expected = payload_for scn ~bytes 0 in
            List.fold_left
              (fun a (buf, _) ->
                a + injected_in (Buffer.contents buf) expected)
              0 !streams
        in
        {
          scenario = scn.name;
          cc = Cc.name;
          flow_results;
          aggregate_goodput_mbps =
            float_of_int (total_delivered * 8) /. float_of_int last_finish;
          fairness = jain (List.map (fun f -> f.goodput_mbps) flow_results);
          retransmissions;
          wire_drops = drops 0 + drops 1;
          end_time;
          invariant_faults = [];
          complete =
            (List.length flow_results = scn.flows
            && List.for_all (fun f -> f.delivered = bytes) flow_results);
          attack_probes =
            (match attacker with
            | None -> 0
            | Some (_, atk) -> Atk.sent atk);
          injected_bytes;
          flight = [];
        })
    in
    let r = { run.World.value with invariant_faults = run.World.faults } in
    if r.complete && r.invariant_faults = [] && r.injected_bytes = 0 then r
    else { r with flight = run.World.ring }
end

(* RFC 5961 switched off: RFC 793's original acceptance rules.  The
   blind cells run demonstrably worse here — the teeth-check that the
   defenses, not luck, carry the guarded matrix. *)
module Unguarded_params : Fox_tcp.Tcp.PARAMS = struct
  let params = { Scn_params.params with rfc5961 = false }
end

module Unguarded_reno = Make_engine_p (Fox_tcp.Congestion.Reno) (Unguarded_params)

(** [run_cell_unguarded scn] runs one cell under Reno with the RFC 5961
    defenses disabled. *)
let run_cell_unguarded ?quick scn = Unguarded_reno.run ?quick scn

(* RFC 5961 still off, but RFC 6528 ISNs on: the attacker's [Sweep]
   models the legacy clock+salt ISN, and against a keyed-PRF ISN its
   whole span covers a vanishing slice of the 2^32 sequence space.  The
   teeth-check that unpredictable ISNs alone defang the blind sweep that
   demonstrably kills the connection under [Unguarded_params].  The
   secret is pinned so the cell is deterministic (any secret that makes
   the sweep miss — i.e. virtually any — would do). *)
module Secure_unguarded_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Scn_params.params with
      rfc5961 = false;
      secure_isn = true;
      isn_secret = Some (0x6528_6528_6528, 0x0fed_cba9_8765);
    }
end

module Secure_unguarded_reno =
  Make_engine_p (Fox_tcp.Congestion.Reno) (Secure_unguarded_params)

(** [run_cell_unguarded_secure scn] runs one cell under Reno with the
    RFC 5961 defenses disabled but RFC 6528 secure ISNs enabled. *)
let run_cell_unguarded_secure ?quick scn = Secure_unguarded_reno.run ?quick scn

(* One guarded engine per algorithm, built once. *)
let engines =
  World.per_cc (fun (module Cc : Fox_tcp.Congestion.S) ->
      let module E = Make_engine_p (Cc) (Scn_params) in
      E.run)

let run_cell ?quick ~cc scn =
  World.by_cc ~who:"Scenarios.run_cell" engines cc ?quick scn

(** [run_matrix ()] runs every scenario under every algorithm (or the
    given subsets) and returns the cells in scenario-major order. *)
let run_matrix ?(log = fun _ -> ()) ?quick ?(scenarios = all)
    ?(ccs = Fox_tcp.Congestion.names) () =
  List.concat_map
    (fun scn ->
      List.map
        (fun cc ->
          let r = run_cell ?quick ~cc scn in
          log r;
          r)
        ccs)
    scenarios

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let pp_result fmt r =
  Format.fprintf fmt
    "%-12s %-8s goodput %6.2f Mb/s  fairness %.3f  rtx %4d  drops %4d  \
     %.3fs%s%s%s%s"
    r.scenario r.cc r.aggregate_goodput_mbps r.fairness r.retransmissions
    r.wire_drops
    (float_of_int r.end_time /. 1e6)
    (if r.attack_probes = 0 then ""
     else Printf.sprintf "  %d probes" r.attack_probes)
    (if r.complete then "" else "  INCOMPLETE")
    (if r.injected_bytes = 0 then ""
     else Printf.sprintf "  %dB INJECTED" r.injected_bytes)
    (match r.invariant_faults with
    | [] -> ""
    | fs -> Printf.sprintf "  %d INVARIANT FAULTS" (List.length fs))

let result_to_string r = Format.asprintf "%a" pp_result r

(** Markdown table of a full matrix, scenario-major (the EXPERIMENTS.md
    format). *)
let to_markdown results =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "| scenario | cc | goodput (Mb/s) | fairness | rtx | wire drops | \
     probes | injected | survived |\n";
  Buffer.add_string b "|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %.2f | %.3f | %d | %d | %d | %d | %s |\n"
           r.scenario r.cc r.aggregate_goodput_mbps r.fairness
           r.retransmissions r.wire_drops r.attack_probes r.injected_bytes
           (if r.complete then "yes" else "NO")))
    results;
  Buffer.contents b
