(** Deterministic chaos: seeded path-failure injection over the virtual
    wire, and the matrix that proves the stack degrades gracefully under
    it.

    A chaos {e plan} is a list of timed episodes — link flaps (down/up,
    with a queued-frame policy), a mid-flow path-MTU blackhole (frames
    over a size threshold silently vanish, the classic PMTUD failure),
    duplicate/corruption storms, and virtual-clock jumps — installed over
    a {!Fox_dev.Link} and driven by one forked scheduler thread.  None of
    the injected faults consult the wire's rng (see the Link chaos
    controls), so a plan {e composes} with the configured netem
    impairments instead of reshuffling them, and the whole run stays a
    pure function of its seed: the same plan replays bit-for-bit.

    The matrix runs four chaos families under every congestion-control
    algorithm with the engine's graceful-degradation defenses on
    (RFC 4821-style blackhole detection, the RFC 5482-shaped user
    timeout, bounded zero-window persist, HTTP read deadlines):

    - [link_flap]: the wire goes down twice mid-transfer (once holding a
      NIC-ring of frames for replay, once dropping), then the virtual
      clock jumps a full second — every pending timer fires at once;
    - [mtu_blackhole]: frames over 800 bytes silently vanish from t=10ms
      on; the transfer only completes if the sender notices the pattern
      (full-MSS segments die, small ones survive) and halves its MSS;
    - [dup_storm]: every 2nd frame duplicated and every 5th corrupted,
      on top of the configured loss;
    - [slowloris]: a fleet of clients holding connections open with
      trickled header bytes while legitimate clients need slots; only
      header deadlines (408 + lingering close) reclaim them.

    Each guarded cell must complete fully, with zero invariant faults and
    zero leaked packet buffers.  The {e teeth} runners re-run the two
    defense-critical cells with the defenses off and must demonstrably
    fail — proof the matrix is green because of the machinery, not
    despite it. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem

(* ------------------------------------------------------------------ *)
(* Plans                                                              *)
(* ------------------------------------------------------------------ *)

type event =
  | Down of [ `Drop | `Hold ]  (** take the wire down *)
  | Up  (** restore it (replaying held frames) *)
  | Blackhole of int  (** drop frames longer than [n] bytes; 0 disables *)
  | Storm of { dup_every : int; corrupt_every : int }
      (** duplicate / corrupt every Nth frame (0 disables each) *)
  | Clock_jump of int
      (** advance the virtual clock by [us] — every timer due inside the
          jump fires at once (suspend/resume, NTP step) *)

type episode = { at_us : int; event : event }

type plan = episode list

let event_to_string = function
  | Down `Drop -> "down(drop)"
  | Down `Hold -> "down(hold)"
  | Up -> "up"
  | Blackhole n -> Printf.sprintf "blackhole(>%dB)" n
  | Storm { dup_every; corrupt_every } ->
    Printf.sprintf "storm(dup/%d,corrupt/%d)" dup_every corrupt_every
  | Clock_jump us -> Printf.sprintf "clock+%dus" us

let apply link = function
  | Down policy -> Link.take_down link ~policy
  | Up -> Link.bring_up link
  | Blackhole n -> Link.set_blackhole link n
  | Storm { dup_every; corrupt_every } ->
    Link.set_storm link ~dup_every ~corrupt_every ()
  | Clock_jump us -> Scheduler.advance us

(** [install plan link] forks the orchestrator thread: episodes fire at
    their absolute virtual times, in order.  Call inside [Scheduler.run]. *)
let install ?(log = fun _ -> ()) plan link =
  let plan = List.stable_sort (fun a b -> compare a.at_us b.at_us) plan in
  Scheduler.fork (fun () ->
      List.iter
        (fun ep ->
          let wait = ep.at_us - Scheduler.now () in
          if wait > 0 then Scheduler.sleep wait;
          log
            (Printf.sprintf "t=%d chaos: %s" (Scheduler.now ())
               (event_to_string ep.event));
          apply link ep.event)
        plan)

(** [ambient_plan ~span_us] is the general-purpose plan the soak and
    serve harnesses install under [--chaos]: a hold-flap early, a mild
    duplicate/corruption storm from a third of the way in, and a
    drop-flap past the middle — scaled to the expected span of the run
    so the faults land while work is in flight. *)
let ambient_plan ~span_us =
  let at f event =
    { at_us = int_of_float (f *. float_of_int span_us); event }
  in
  [
    at 0.10 (Down `Hold);
    at 0.16 Up;
    at 0.33 (Storm { dup_every = 7; corrupt_every = 31 });
    at 0.60 (Down `Drop);
    at 0.66 Up;
  ]

(* ------------------------------------------------------------------ *)
(* The stack under chaos                                              *)
(* ------------------------------------------------------------------ *)

(* Every graceful-degradation defense is live: blackhole detection, a
   stalled-progress user timeout comfortably above the injected outages,
   a bounded zero-window persist, and fast RST refusal so clients
   refused at the connection cap fail fast instead of retrying SYNs into
   a full table.  RTO floors and caps keep the
   blackhole detection span (three RTOs of backoff) and the teeth cell's
   retransmission death spiral small in virtual time. *)
module Chaos_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      initial_window = 65_535;
      time_wait_us = 500_000;
      rto_min_us = 100_000;
      rto_initial_us = 300_000;
      rto_max_us = 5_000_000;
      blackhole_detect = true;
      user_timeout_us = 5_000_000;
      user_timeout_stalled = true;
      persist_max_probes = 16;
      max_connections = 8;
      refuse_with_rst = true;
      (* pinned boot secret: chaos cells are replayable bit-for-bit *)
      isn_secret = Some (0xc4a0_5bad_f00d, 0x0dd5_eed0_1234);
    }
end

(* The defenses off — the historical engine.  The blackhole teeth cell
   runs here: its head segment must retransmit itself to death. *)
module Unguarded_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Chaos_params.params with
      blackhole_detect = false;
      user_timeout_us = 0;
      user_timeout_stalled = false;
      persist_max_probes = 0;
    }
end

(* ------------------------------------------------------------------ *)
(* Scenarios                                                          *)
(* ------------------------------------------------------------------ *)

type scenario = {
  name : string;
  descr : string;
  netem : Netem.t;
  bytes : int;  (** payload (full mode) *)
  quick_bytes : int;  (** payload (quick / CI mode) *)
  plan : plan;
  expect_shrinks : bool;
      (** the guarded cell must record at least one MSS halving *)
}

let base = Netem.ethernet_10mbps

let transfer_scenarios : scenario list =
  [
    {
      name = "link_flap";
      descr = "two mid-transfer outages (hold, then drop) + a 1s clock jump";
      netem = { base with Netem.seed = 0xf1a9 };
      bytes = 262_144;
      quick_bytes = 32_768;
      plan =
        [
          { at_us = 15_000; event = Down `Hold };
          { at_us = 60_000; event = Up };
          { at_us = 100_000; event = Down `Drop };
          { at_us = 140_000; event = Up };
          { at_us = 200_000; event = Clock_jump 1_000_000 };
        ];
      expect_shrinks = false;
    };
    {
      name = "mtu_blackhole";
      descr = "frames over 800B silently vanish from t=10ms";
      netem = { base with Netem.seed = 0xb1ac };
      bytes = 262_144;
      quick_bytes = 65_536;
      plan = [ { at_us = 10_000; event = Blackhole 800 } ];
      expect_shrinks = true;
    };
    {
      name = "dup_storm";
      descr = "every 2nd frame duplicated, every 5th corrupted, 1% loss";
      netem = Netem.adverse ~loss:0.01 ~seed:0xd0b5 base;
      bytes = 262_144;
      quick_bytes = 32_768;
      plan =
        [ { at_us = 0; event = Storm { dup_every = 2; corrupt_every = 5 } } ];
      expect_shrinks = false;
    };
  ]

let family_names = [ "link_flap"; "mtu_blackhole"; "dup_storm"; "slowloris" ]

let find_transfer name =
  List.find_opt (fun s -> s.name = name) transfer_scenarios

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  scenario : string;
  cc : string;
  guarded : bool;
  complete : bool;
      (** transfer: every byte delivered intact; slowloris: every
          legitimate client served *)
  delivered : int;  (** transfer: bytes; slowloris: legit clients served *)
  expected : int;
  end_time : int;  (** virtual µs at quiescence *)
  retransmissions : int;
  blackhole_shrinks : int;  (** MSS halvings by the detector *)
  rtx_limit_aborts : int;
  user_timeout_aborts : int;
  persist_aborts : int;
  responses_408 : int;  (** slowloris: deadline-expired closes *)
  chaos : Link.chaos_stats;  (** what the plan actually did to the wire *)
  invariant_faults : string list;
  leaked_packets : int;  (** live-buffer delta across the run *)
  flight : string list;
      (** flight-recorder ring, captured only when the cell failed *)
}

let fingerprint r =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            r.scenario;
            r.cc;
            string_of_bool r.guarded;
            string_of_int r.delivered;
            string_of_int r.end_time;
            string_of_int r.retransmissions;
            string_of_int r.blackhole_shrinks;
            string_of_int r.rtx_limit_aborts;
            string_of_int r.user_timeout_aborts;
            string_of_int r.responses_408;
            string_of_int r.chaos.Link.chaos_dropped;
            string_of_int r.chaos.Link.chaos_replayed;
            string_of_int r.chaos.Link.chaos_duplicated;
            string_of_int r.chaos.Link.chaos_corrupted;
            string_of_int r.leaked_packets;
          ]))

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let port = 7777

let client_addr = World.addr ~subnet:3 1

let server_addr = World.addr ~subnet:3 2

let payload_for scn ~bytes =
  Bytes.to_string
    (Rng.bytes (Rng.create (scn.netem.Netem.seed lxor 0xc4a05)) bytes)

(* ------------------------------------------------------------------ *)
(* The cells                                                          *)
(* ------------------------------------------------------------------ *)

module Make_engine_p (Cc : Fox_tcp.Congestion.S) (P : Fox_tcp.Tcp.PARAMS) =
struct
  include World.Stack (Cc) (P)

  (* Shared cell scaffolding: the check battery with invariants, flight
     recorder and leak census around a client and a server engine on a
     fresh wire.  [body] runs the world and returns everything the
     result needs except the faults/flight/leak fields, which the wrapper
     owns; the ring is kept only when the cell failed. *)
  let with_cell ~make_link body =
    let run =
      World.checked ~invariants:true ~flight:true ~census:true (fun () ->
          let link = make_link () in
          let client_ip = World.host ~subnet:3 link 0 ~addr:client_addr in
          let server_ip = World.host ~subnet:3 link 1 ~addr:server_addr in
          let server_t = Tcp.create server_ip in
          body link ~client_t:(Tcp.create client_ip) ~server_t)
    in
    let r =
      { run.World.value with
        invariant_faults = run.World.faults;
        leaked_packets = run.World.leaked;
      }
    in
    if r.complete && r.invariant_faults = [] && r.leaked_packets = 0 then r
    else { r with flight = run.World.ring }

  let guarded = P.params.blackhole_detect

  (* One bulk transfer through the plan's faults: client pushes the
     payload, server accumulates, the cell scores the delivered bytes
     against the expected stream. *)
  let run_transfer ?(quick = false) ?(log = fun _ -> ()) scn =
    let bytes = if quick then scn.quick_bytes else scn.bytes in
    with_cell
      ~make_link:(fun () -> Link.point_to_point scn.netem)
      (fun link ~client_t ~server_t ->
        let payload = payload_for scn ~bytes in
        let buf = Buffer.create bytes in
        let client_conn = ref None in
        let stats =
          Scheduler.run (fun () ->
              install ~log scn.plan link;
              sink server_t ~port ~stream:(fun () -> (buf, ignore));
              Scheduler.fork (fun () ->
                  push client_t ~peer:server_addr ~port payload
                    ~on_open:(fun conn -> client_conn := Some conn)
                    ~connect_failed:(fun msg -> log ("connect failed: " ^ msg))
                    ~send_failed:(fun msg -> log ("send failed: " ^ msg))))
        in
        let delivered = Buffer.contents buf in
        let cs = Tcp.stats client_t in
        let ss = Tcp.stats server_t in
        let retransmissions =
          match !client_conn with
          | Some conn -> (Tcp.conn_stats conn).Fox_tcp.Tcp.retransmissions
          | None -> 0
        in
        {
          scenario = scn.name;
          cc = Cc.name;
          guarded;
          complete = String.equal delivered payload;
          delivered = String.length delivered;
          expected = bytes;
          end_time = stats.Scheduler.end_time;
          retransmissions;
          blackhole_shrinks = cs.Fox_tcp.Tcp.blackhole_shrinks;
          rtx_limit_aborts =
            cs.Fox_tcp.Tcp.rtx_limit_aborts + ss.Fox_tcp.Tcp.rtx_limit_aborts;
          user_timeout_aborts =
            cs.Fox_tcp.Tcp.user_timeout_aborts
            + ss.Fox_tcp.Tcp.user_timeout_aborts;
          persist_aborts =
            cs.Fox_tcp.Tcp.persist_aborts + ss.Fox_tcp.Tcp.persist_aborts;
          responses_408 = 0;
          chaos = Link.chaos_stats link;
          invariant_faults = [];
          leaked_packets = 0;
          flight = [];
        })

  (* The slow-loris siege: [loris] clients (more than the server's
     connection cap) park themselves trickling header bytes; legitimate
     clients arrive later and need slots.  With [deadlines] on the
     server 408s the parked connections and reclaims their slots in
     time; without, the cap stays exhausted until the loris fleet gives
     up — long after every legitimate client ran out of retries. *)
  let run_slowloris ?(quick = false) ?(log = fun _ -> ()) ~deadlines () =
    let loris = if quick then 12 else 32 in
    let legit = if quick then 8 else 16 in
    let loris_until = if quick then 6_000_000 else 12_000_000 in
    let header_timeout_us = if deadlines then 800_000 else 0 in
    let netem = { Netem.gigabit with Netem.seed = 0x510e_115 } in
    with_cell
      ~make_link:(fun () -> Link.hub ~ports:2 netem)
      (fun link ~client_t ~server_t ->
        let addr = { Tcp.peer = server_addr; port; local_port = None } in
        let index_body = "<html><body><h1>foxnet</h1></body></html>\n" in
        let site =
          Fox_app.Http.Site.of_pages
            [ ("/index.html", "text/html", index_body) ]
        in
        let hstats = Fox_app.Http.server_stats () in
        let legit_ok = ref 0 in
        let serve sock =
          Http.serve ~header_timeout_us ~min_byte_rate:1_000 ~stats:hstats
            site sock
        in
        let stats =
          Scheduler.run (fun () ->
              ignore (Sock.listen server_t { Tcp.local_port = port } serve);
              (* the siege: connect early, send a valid request line, then
                 trickle one header byte every 300 ms — forever, as far
                 as the server knows *)
              for i = 0 to loris - 1 do
                Scheduler.fork (fun () ->
                    Scheduler.sleep (i * 5_000);
                    match Sock.connect client_t addr with
                    | exception Fox_proto.Common.Connection_failed _ ->
                      log (Printf.sprintf "loris %d refused" i)
                    | sock ->
                      (try
                         Sock.write_all sock "GET /slow HTTP/1.1\r\n";
                         Sock.write_all sock "X-Pad: ";
                         while Scheduler.now () < loris_until do
                           Sock.write_all sock "a";
                           Scheduler.sleep 300_000
                         done
                       with
                      | Fox_proto.Socket.Socket_error _
                      | Fox_proto.Common.Send_failed _
                      ->
                        ());
                      Sock.abort sock)
              done;
              (* the legitimate fleet: arrives once the siege is dug in,
                 retrying with jittered backoff like a well-behaved
                 client should *)
              for i = 0 to legit - 1 do
                Scheduler.fork (fun () ->
                    Scheduler.sleep (2_000_000 + (i * 200_000));
                    let rng = Rng.create (0x1e917 lxor (i * 31)) in
                    match
                      Http.get_retry
                        ~connect:(fun () -> Sock.connect client_t addr)
                        ~attempts:3 ~base_backoff_us:200_000 ~rng
                        "/index.html"
                    with
                    | Some (200, _, body), _ when String.equal body index_body
                      ->
                      incr legit_ok
                    | _, n ->
                      log (Printf.sprintf "legit %d failed after %d tries" i n))
              done)
        in
        let ss = Tcp.stats server_t in
        {
          scenario = "slowloris";
          cc = Cc.name;
          guarded = deadlines;
          complete = !legit_ok = legit;
          delivered = !legit_ok;
          expected = legit;
          end_time = stats.Scheduler.end_time;
          retransmissions = 0;
          blackhole_shrinks = 0;
          rtx_limit_aborts = ss.Fox_tcp.Tcp.rtx_limit_aborts;
          user_timeout_aborts = ss.Fox_tcp.Tcp.user_timeout_aborts;
          persist_aborts = ss.Fox_tcp.Tcp.persist_aborts;
          responses_408 = hstats.Fox_app.Http.responses_408;
          chaos = Link.chaos_stats link;
          invariant_faults = [];
          leaked_packets = 0;
          flight = [];
        })
end

(* One guarded engine per algorithm, built once. *)
let engines =
  World.per_cc (fun (module Cc : Fox_tcp.Congestion.S) ->
      let module E = Make_engine_p (Cc) (Chaos_params) in
      (E.run_transfer, E.run_slowloris))

module Unguarded_reno = Make_engine_p (Fox_tcp.Congestion.Reno) (Unguarded_params)

let run_cell ?quick ?log ~cc family =
  let run_t, run_s = World.by_cc ~who:"Chaos.run_cell" engines cc in
  match family with
  | "slowloris" -> run_s ?quick ?log ~deadlines:true ()
  | name -> (
    match find_transfer name with
    | Some scn -> run_t ?quick ?log scn
    | None -> invalid_arg ("Chaos.run_cell: unknown family " ^ name))

(** [run_matrix ()] runs every chaos family under every algorithm,
    family-major. *)
let run_matrix ?quick ?log ?(families = family_names)
    ?(ccs = Fox_tcp.Congestion.names) () =
  List.concat_map
    (fun family -> List.map (fun cc -> run_cell ?quick ?log ~cc family) ccs)
    families

(* ------------------------------------------------------------------ *)
(* Teeth                                                              *)
(* ------------------------------------------------------------------ *)

(** The blackhole cell without detection: the head full-MSS segment
    retransmits itself to the limit and the connection dies with the
    transfer incomplete.  Must NOT complete. *)
let run_teeth_blackhole ?quick ?log () =
  match find_transfer "mtu_blackhole" with
  | Some scn -> Unguarded_reno.run_transfer ?quick ?log scn
  | None -> assert false

(** The siege without deadlines: the parked connections hold the cap
    until their owners give up, and legitimate clients exhaust their
    retries.  Must NOT serve every legitimate client. *)
let run_teeth_slowloris ?quick ?log () =
  let _, run_s = List.assoc "reno" engines in
  run_s ?quick ?log ~deadlines:false ()

(* ------------------------------------------------------------------ *)
(* The verdict                                                        *)
(* ------------------------------------------------------------------ *)

(** [check ()] runs the guarded matrix twice (determinism), asserts the
    graceful-degradation contract on every cell (completion, silent
    invariants, no leaked buffers, the blackhole cells actually shrank
    their MSS), runs both teeth cells and asserts they fail.  Returns
    the first run's cells plus the teeth results and the problems found
    (empty = pass). *)
let check ?quick ?log () =
  let r1 = run_matrix ?quick ?log () in
  let r2 = run_matrix ?quick ?log () in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  List.iter2
    (fun a b ->
      if not (String.equal (fingerprint a) (fingerprint b)) then
        problem "%s/%s: non-deterministic (fingerprints differ across runs)"
          a.scenario a.cc)
    r1 r2;
  List.iter
    (fun r ->
      if not r.complete then
        problem "%s/%s: incomplete (%d of %d)" r.scenario r.cc r.delivered
          r.expected;
      List.iter (fun f -> problem "%s/%s: invariant: %s" r.scenario r.cc f)
        r.invariant_faults;
      if r.leaked_packets <> 0 then
        problem "%s/%s: %d packet buffers leaked" r.scenario r.cc
          r.leaked_packets;
      if
        r.scenario = "mtu_blackhole" && r.blackhole_shrinks = 0
      then
        problem "%s/%s: blackhole detection never fired" r.scenario r.cc;
      if r.scenario = "slowloris" && r.responses_408 = 0 then
        problem "%s/%s: no 408s — the deadline defense was inert" r.scenario
          r.cc)
    r1;
  let tb = run_teeth_blackhole ?quick ?log () in
  if tb.complete then
    problem
      "teeth/mtu_blackhole: completed WITHOUT blackhole detection — the \
       guard is not load-bearing";
  if tb.rtx_limit_aborts = 0 then
    problem
      "teeth/mtu_blackhole: no retransmission-limit abort — the stall never \
       happened";
  let ts = run_teeth_slowloris ?quick ?log () in
  if ts.complete then
    problem
      "teeth/slowloris: every legitimate client served WITHOUT deadlines — \
       the guard is not load-bearing";
  (r1, [ tb; ts ], List.rev !problems)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let pp_result fmt r =
  Format.fprintf fmt
    "%-13s %-8s %s %7d/%-7d  rtx %4d  shrink %d  aborts %d/%d/%d  408s \
     %2d  chaos d%d r%d du%d c%d  leak %d  %.3fs%s%s"
    r.scenario r.cc
    (if r.guarded then "guarded  " else "UNGUARDED")
    r.delivered r.expected r.retransmissions r.blackhole_shrinks
    r.rtx_limit_aborts r.user_timeout_aborts
    r.persist_aborts r.responses_408 r.chaos.Link.chaos_dropped
    r.chaos.Link.chaos_replayed r.chaos.Link.chaos_duplicated
    r.chaos.Link.chaos_corrupted r.leaked_packets
    (float_of_int r.end_time /. 1e6)
    (if r.complete then "" else "  INCOMPLETE")
    (match r.invariant_faults with
    | [] -> ""
    | fs -> Printf.sprintf "  %d INVARIANT FAULTS" (List.length fs))

let result_to_string r = Format.asprintf "%a" pp_result r

(** Markdown table of a matrix (the EXPERIMENTS.md format). *)
let to_markdown results =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "| scenario | cc | guarded | delivered | rtx | MSS shrink | \
     aborts (rtx/ut/persist) | 408s | chaos drop/replay/dup/corrupt | leaks \
     | faults | survived |\n";
  Buffer.add_string b "|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "| %s | %s | %s | %d/%d | %d | %d | %d/%d/%d | %d | \
            %d/%d/%d/%d | %d | %d | %s |\n"
           r.scenario r.cc
           (if r.guarded then "yes" else "no")
           r.delivered r.expected r.retransmissions r.blackhole_shrinks
           r.rtx_limit_aborts r.user_timeout_aborts
           r.persist_aborts r.responses_408 r.chaos.Link.chaos_dropped
           r.chaos.Link.chaos_replayed r.chaos.Link.chaos_duplicated
           r.chaos.Link.chaos_corrupted r.leaked_packets
           (List.length r.invariant_faults)
           (if r.complete then "yes" else "NO")))
    results;
  Buffer.contents b
