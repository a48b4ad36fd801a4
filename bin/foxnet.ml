(* foxnet — drive the simulated Fox Net stack from the command line.

     foxnet transfer [--bytes N] [--loss P] [--decstation] [--baseline]
     foxnet ping     [--count N] [--size N] [--loss P]
     foxnet rtt      [--decstation] [--baseline]
     foxnet table1 / foxnet table2
     foxnet fuzz     [--seed N] [--iters K] [--verbose]
     foxnet stat     [--bytes N] [--loss P] [--interval MS]
     foxnet trace    [--bytes N] [--loss P] [--last N] [--pcap]

   Everything runs in-process on the simulated Ethernet under virtual
   time; see examples/ for narrated versions of the same scenarios. *)

open Cmdliner
module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Experiments = Fox_stack.Experiments
module Cost_model = Fox_stack.Cost_model
module Netem = Fox_dev.Netem

let netem_of loss seed =
  if loss > 0.0 then Netem.adverse ~loss ~seed Netem.ethernet_10mbps
  else Netem.ethernet_10mbps

let validate_cc cc =
  if not (List.mem cc Fox_tcp.Congestion.names) then begin
    Printf.eprintf "unknown congestion control %s (have: %s)\n" cc
      (String.concat ", " Fox_tcp.Congestion.names);
    exit 2
  end

(* [--cc] on the matrix subcommands: one validated algorithm, or all *)
let ccs_of = function
  | None -> Fox_tcp.Congestion.names
  | Some c ->
    validate_cc c;
    [ c ]

(* ---------------- transfer ---------------- *)

(* Non-Reno transfers run through the scenario harness: the standard
   two-host network is hard-wired to the Reno stack, while the harness
   builds the same Eth/IP/TCP composition around any congestion module
   (no cost-model support there). *)
let transfer_cc cc bytes loss seed =
  let module Scenarios = Fox_check.Scenarios in
  let scn =
    {
      Scenarios.name = "transfer";
      descr = "CLI transfer";
      netem = netem_of loss seed;
      flows = 1;
      bytes;
      quick_bytes = bytes;
      attack = None;
    }
  in
  let r = Scenarios.run_cell ~cc scn in
  List.iter
    (fun f -> Printf.eprintf "invariant violation: %s\n" f)
    r.Scenarios.invariant_faults;
  if not r.Scenarios.complete then begin
    Printf.eprintf "transfer incomplete\n";
    exit 1
  end;
  Printf.printf "%d bytes in %.3f s (virtual) = %.3f Mb/s; cc=%s, %d rtx\n"
    bytes
    (float_of_int r.Scenarios.end_time /. 1e6)
    r.Scenarios.aggregate_goodput_mbps cc r.Scenarios.retransmissions

(* Sharded transfer: one independent flow per shard, each a complete
   two-host world on its own domain (per-shard netem seed), reporting
   per-shard and aggregate goodput.  The aggregate divides by the
   slowest shard's virtual elapsed — the shards run concurrently. *)
let transfer_sharded bytes loss seed decstation shards =
  let cost = if decstation then Some Cost_model.fox else None in
  let results =
    Fox_shard.Shard.run ~shards (fun k ->
        let _, sender, receiver =
          Network.pair ~engine:Network.Fox ?cost
            ~netem:(netem_of loss (seed + (k * 9176)))
            ()
        in
        Experiments.Fox_run.transfer ~sender ~receiver ~bytes ())
  in
  let open Experiments in
  Array.iteri
    (fun k r ->
      Printf.printf
        "shard %d: %d bytes in %.3f s (virtual) = %.3f Mb/s; %d segments, \
         %d rtx\n"
        k r.bytes
        (float_of_int r.elapsed_us /. 1e6)
        r.throughput_mbps r.sender_segments r.retransmissions)
    results;
  let total = Array.fold_left (fun acc r -> acc + r.bytes) 0 results in
  let slowest =
    Array.fold_left (fun acc r -> max acc r.elapsed_us) 1 results
  in
  Printf.printf
    "aggregate: %d bytes over %d shards in %.3f s (virtual, slowest shard) \
     = %.3f Mb/s\n"
    total shards
    (float_of_int slowest /. 1e6)
    (float_of_int (total * 8) /. float_of_int slowest)

let transfer bytes loss seed decstation baseline cc shards =
  validate_cc cc;
  if cc <> "reno" && baseline then begin
    Printf.eprintf "--cc applies to the structured engine only\n";
    exit 2
  end;
  if shards > 1 then begin
    if baseline then begin
      Printf.eprintf "--shards applies to the structured engine only\n";
      exit 2
    end;
    if cc <> "reno" then begin
      Printf.eprintf "--shards transfer drives the standard Reno stack\n";
      exit 2
    end;
    transfer_sharded bytes loss seed decstation shards
  end
  else if cc <> "reno" then transfer_cc cc bytes loss seed
  else begin
  let engine = if baseline then Network.Baseline else Network.Fox in
  let cost =
    if decstation then
      Some (if baseline then Cost_model.xkernel else Cost_model.fox)
    else None
  in
  let _, sender, receiver =
    Network.pair ~engine ?cost ~netem:(netem_of loss seed) ()
  in
  let result =
    if baseline then
      Experiments.Baseline_run.transfer ~sender ~receiver ~bytes ()
    else Experiments.Fox_run.transfer ~sender ~receiver ~bytes ()
  in
  let open Experiments in
  Printf.printf "%d bytes in %.3f s (virtual) = %.3f Mb/s; %d segments, %d rtx\n"
    result.bytes
    (float_of_int result.elapsed_us /. 1e6)
    result.throughput_mbps result.sender_segments result.retransmissions
  end

(* ---------------- ping (ICMP echo) ---------------- *)

let ping count size loss seed =
  let _, a, b = Network.pair ~engine:Network.Fox ~netem:(netem_of loss seed) () in
  let received = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        for seq = 1 to count do
          match
            Fox_stack.Stack.Icmp.ping a.Network.icmp b.Network.addr ~len:size
              ~timeout_us:1_000_000
          with
          | Some rtt ->
            incr received;
            Printf.printf "%d bytes from %s: icmp_seq=%d time=%.3f ms\n" size
              (Fox_ip.Ipv4_addr.to_string b.Network.addr)
              seq
              (float_of_int rtt /. 1000.)
          | None -> Printf.printf "icmp_seq=%d timed out\n" seq
        done)
  in
  Printf.printf "%d packets transmitted, %d received, %.0f%% packet loss\n"
    count !received
    (100.0 *. float_of_int (count - !received) /. float_of_int count)

(* ---------------- rtt (TCP ping-pong) ---------------- *)

let rtt decstation baseline =
  let engine = if baseline then Network.Baseline else Network.Fox in
  let cost =
    if decstation then
      Some (if baseline then Cost_model.xkernel else Cost_model.fox)
    else None
  in
  let _, client, server = Network.pair ~engine ?cost () in
  let result =
    if baseline then Experiments.Baseline_run.round_trip ~client ~server ()
    else Experiments.Fox_run.round_trip ~client ~server ()
  in
  let open Experiments in
  Printf.printf "TCP round-trip over %d samples: mean %.2f ms (min %.2f, max %.2f)\n"
    result.samples
    (float_of_int result.mean_rtt_us /. 1000.)
    (float_of_int result.min_rtt_us /. 1000.)
    (float_of_int result.max_rtt_us /. 1000.)

(* ---------------- tables ---------------- *)

let table1 () =
  let fox_tp, fox_rtt, base_tp, base_rtt = Experiments.table1 () in
  let open Experiments in
  Printf.printf "%-22s %10s %10s %8s\n" "" "Fox Net" "x-kernel" "ratio";
  Printf.printf "%-22s %10.2f %10.2f %8.2f\n" "Throughput (Mb/s)"
    fox_tp.throughput_mbps base_tp.throughput_mbps
    (fox_tp.throughput_mbps /. base_tp.throughput_mbps);
  Printf.printf "%-22s %10.1f %10.1f %8.1f\n" "Round-Trip (ms)"
    (float_of_int fox_rtt.mean_rtt_us /. 1000.)
    (float_of_int base_rtt.mean_rtt_us /. 1000.)
    (float_of_int fox_rtt.mean_rtt_us /. float_of_int base_rtt.mean_rtt_us)

let table2 () =
  let _, sender, receiver = Experiments.table2 () in
  Printf.printf "%-22s %8s %9s\n" "component" "Sender" "Receiver";
  List.iter
    (fun (name, pct, _) ->
      let rpct =
        match List.find_opt (fun (n, _, _) -> n = name) receiver with
        | Some (_, p, _) -> p
        | None -> 0.0
      in
      Printf.printf "%-22s %8.1f %9.1f\n" name pct rpct)
    sender

(* ---------------- fuzz (differential, deterministic) ---------------- *)

(* The mutation variant: instead of fault-injecting layers, a gremlin
   station on the shared hub re-injects mutated duplicates of every TCP
   frame; each seed runs against both engines. *)
let fuzz_mutate seed iters verbose =
  let module Mutate = Fox_check.Mutate in
  let checked = ref 0 in
  let failures =
    Mutate.run_seeds
      ~log:(fun o ->
        incr checked;
        if verbose then
          Printf.printf "mutate seed %d (%s): %d mutants, %s\n%!"
            o.Mutate.seed o.Mutate.engine o.Mutate.mutants
            (if o.Mutate.problems = [] then "ok"
             else String.concat "; " o.Mutate.problems)
        else if !checked mod 100 = 0 then
          Printf.printf "%d/%d mutated runs checked\n%!" !checked (2 * iters))
      ~seed ~iters ()
  in
  (match failures with
  | [] ->
    Printf.printf
      "fuzz --mutate: %d seeds x 2 engines ok (seeds %d..%d)\n" iters seed
      (seed + iters - 1)
  | fs ->
    List.iter (fun o -> print_endline (Mutate.report o)) fs;
    Printf.printf "fuzz --mutate: %d of %d mutated runs FAILED\n"
      (List.length fs) (2 * iters);
    exit 1)

let fuzz seed iters verbose cc matrix mutate =
  if mutate then fuzz_mutate seed iters verbose
  else begin
  let module Fuzz = Fox_check.Fuzz in
  let run_one label engine =
    let checked = ref 0 in
    let failures =
      Fuzz.run_seeds
        ~log:(fun v ->
          incr checked;
          if verbose then
            Printf.printf "%sseed %d: %s\n%!" label v.Fuzz.schedule.Fuzz.seed
              (if v.Fuzz.problems = [] then "ok"
               else String.concat "; " v.Fuzz.problems)
          else if !checked mod 50 = 0 then
            Printf.printf "%s%d/%d schedules checked\n%!" label !checked iters)
        ?engine ~seed ~iters ()
    in
    match failures with
    | [] ->
      Printf.printf "fuzz: %s%d schedules ok (seeds %d..%d)\n" label iters seed
        (seed + iters - 1);
      true
    | fs ->
      List.iter (fun f -> print_endline f.Fuzz.report) fs;
      Printf.printf "fuzz: %s%d of %d schedules FAILED\n" label
        (List.length fs) iters;
      false
  in
  let oks =
    if matrix then
      (* every algorithm runs and prints its verdict, even after a failure *)
      List.map
        (fun (cc, engine) -> run_one (cc ^ ": ") (Some engine))
        Fuzz.fox_engines
    else begin
      validate_cc cc;
      [
        run_one
          (if cc = "reno" then "" else cc ^ ": ")
          (Some (List.assoc cc Fuzz.fox_engines));
      ]
    end
  in
  if not (List.for_all Fun.id oks) then exit 1
  end

(* ---------------- soak (deterministic overload survival) ---------------- *)

let soak conns conn_bytes flood bad_acks seed loss verbose cc matrix shards
    chaos =
  validate_cc cc;
  let module Soak = Fox_check.Soak in
  let cfg =
    {
      Soak.default_config with
      Soak.seed;
      conns;
      bytes_per_conn = conn_bytes;
      flood_syns = flood;
      flood_bad_acks = bad_acks;
      loss;
      cc;
      shards;
      chaos =
        (if chaos then
           Fox_check.Chaos.ambient_plan
             ~span_us:((conns * Soak.default_config.Soak.spacing_us) + 200_000)
         else []);
    }
  in
  let log = if verbose then print_endline else fun _ -> () in
  let run_one cfg =
    Printf.printf
      "soak: %d conns x %dB over %d shard%s, flood %d SYNs + %d forged \
       ACKs, loss %.2f, seed %d, cc %s%s (runs twice for determinism)\n%!"
      conns conn_bytes shards
      (if shards = 1 then "" else "s")
      flood bad_acks loss seed cfg.Soak.cc
      (if cfg.Soak.chaos = [] then "" else ", chaos plan installed");
    let report, problems = Soak.check ~log cfg in
    print_endline (Soak.report_to_string report);
    match problems with
    | [] ->
      print_endline "soak: PASS";
      true
    | ps ->
      List.iter (fun p -> print_endline ("soak: FAIL: " ^ p)) ps;
      false
  in
  let oks =
    if matrix then
      (* every algorithm runs and prints its verdict, even after a failure *)
      List.map (fun cc -> run_one { cfg with Soak.cc }) Fox_tcp.Congestion.names
    else [ run_one cfg ]
  in
  if not (List.for_all Fun.id oks) then exit 1

(* ---------------- scenarios (adverse-network CC matrix) ---------------- *)

let scenarios cc scenario quick markdown =
  let module Scenarios = Fox_check.Scenarios in
  let ccs = ccs_of cc in
  let scns =
    match scenario with
    | None -> Scenarios.all
    | Some name -> (
      match Scenarios.find name with
      | Some s -> [ s ]
      | None ->
        Printf.eprintf "unknown scenario %s (have: %s)\n" name
          (String.concat ", " Scenarios.scenario_names);
        exit 2)
  in
  let results =
    Scenarios.run_matrix
      ~log:(fun r ->
        if not markdown then print_endline (Scenarios.result_to_string r))
      ~quick ~scenarios:scns ~ccs ()
  in
  if markdown then print_string (Scenarios.to_markdown results);
  let bad =
    List.filter
      (fun r ->
        (not r.Scenarios.complete) || r.Scenarios.invariant_faults <> [])
      results
  in
  if bad <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf "scenario %s/%s: %s\n" r.Scenarios.scenario
          r.Scenarios.cc
          (if not r.Scenarios.complete then "INCOMPLETE"
           else "invariant faults");
        List.iter
          (fun f -> Printf.eprintf "  %s\n" f)
          r.Scenarios.invariant_faults;
        (* the cell's flight-recorder ring, for post-mortem from the CI
           log without reproducing locally *)
        Printf.eprintf "  [flight] %d events:\n"
          (List.length r.Scenarios.flight);
        List.iter
          (fun l -> Printf.eprintf "  [flight] %s\n" l)
          r.Scenarios.flight)
      bad;
    exit 1
  end

(* ---------------- stat (live TCB snapshots) ---------------- *)

module Bus = Fox_obs.Bus
module Stats = Fox_tcp.Stats

let stat bytes loss seed interval_ms =
  let _, sender, receiver =
    Network.pair ~engine:Network.Fox ~netem:(netem_of loss seed) ()
  in
  Bus.enable ();
  (* the sampler runs inside the transfer's scheduler, photographing every
     live TCB on both hosts at each virtual-time tick *)
  let during finished =
    while not (finished ()) do
      Scheduler.sleep (interval_ms * 1000);
      List.iter
        (fun host ->
          List.iter
            (fun s -> print_endline (Stats.to_string s))
            (Fox_stack.Stack.Tcp.snapshots (Network.fox_tcp host)))
        [ sender; receiver ]
    done
  in
  let result = Experiments.Fox_run.transfer ~during ~sender ~receiver ~bytes () in
  print_endline "-- final (from the bus stats-provider registry):";
  List.iter (fun (_id, line) -> print_endline line) (Bus.stats_snapshots ());
  Printf.printf "%d bytes in %.3f s (virtual) = %.3f Mb/s; %d segments, %d rtx\n"
    result.Experiments.bytes
    (float_of_int result.Experiments.elapsed_us /. 1e6)
    result.Experiments.throughput_mbps result.Experiments.sender_segments
    result.Experiments.retransmissions

(* ---------------- trace (flight recorder dump) ---------------- *)

let trace bytes loss seed last pcap =
  let pcap_prefix = if pcap then Some "foxnet-trace" else None in
  let _, sender, receiver =
    Network.pair ~engine:Network.Fox ~netem:(netem_of loss seed) ?pcap_prefix ()
  in
  Bus.enable ();
  let result = Experiments.Fox_run.transfer ~sender ~receiver ~bytes () in
  Bus.disable ();
  let tail label lines =
    let n = List.length lines in
    if n > last then
      Printf.printf "%s... %d earlier events elided (--last %d)\n" label
        (n - last) last;
    List.iter
      (fun l -> print_endline (label ^ l))
      (if n <= last then lines
       else List.filteri (fun i _ -> i >= n - last) lines)
  in
  print_endline "-- global ring:";
  tail "" (Bus.dump ());
  Printf.printf "-- %d events emitted, %d dropped from the ring\n"
    (Bus.emitted ()) (Bus.dropped ());
  List.iter
    (fun id ->
      Printf.printf "-- connection %s:\n" id;
      tail "  " (Bus.dump_conn id))
    (Bus.conn_ids ());
  List.iter
    (fun (_name, h) ->
      Printf.printf "-- histogram %s\n" (Fox_obs.Histogram.to_string h))
    (Bus.histograms ());
  if pcap then begin
    Network.close_pcap sender;
    Network.close_pcap receiver;
    print_endline "pcap written: foxnet-trace-0.pcap, foxnet-trace-1.pcap"
  end;
  Printf.printf "%d bytes in %.3f s (virtual) = %.3f Mb/s\n"
    result.Experiments.bytes
    (float_of_int result.Experiments.elapsed_us /. 1e6)
    result.Experiments.throughput_mbps

(* ---------------- chaos (path-failure survival matrix) ---------------- *)

let chaos cc family quick markdown verbose =
  let module Chaos = Fox_check.Chaos in
  let ccs = ccs_of cc in
  let families =
    match family with
    | None -> Chaos.family_names
    | Some f when List.mem f Chaos.family_names -> [ f ]
    | Some f ->
      Printf.eprintf "unknown chaos family %s (have: %s)\n" f
        (String.concat ", " Chaos.family_names);
      exit 2
  in
  let log = if verbose then print_endline else fun _ -> () in
  let quick = quick in
  let results, teeth, problems =
    if cc = None && family = None then Chaos.check ~quick ~log ()
    else
      (* a sliced run: no determinism double-run, no teeth — the quick
         inner-loop view of one cell or row *)
      let rs =
        List.concat_map
          (fun family ->
            List.map (fun cc -> Chaos.run_cell ~quick ~log ~cc family) ccs)
          families
      in
      let problems =
        List.concat_map
          (fun (r : Chaos.result) ->
            (if r.Chaos.complete then []
             else
               [
                 Printf.sprintf "%s/%s incomplete (%d of %d)" r.Chaos.scenario
                   r.Chaos.cc r.Chaos.delivered r.Chaos.expected;
               ])
            @ List.map
                (Printf.sprintf "%s/%s invariant: %s" r.Chaos.scenario
                   r.Chaos.cc)
                r.Chaos.invariant_faults
            @
            if r.Chaos.leaked_packets = 0 then []
            else
              [
                Printf.sprintf "%s/%s leaked %d buffers" r.Chaos.scenario
                  r.Chaos.cc r.Chaos.leaked_packets;
              ])
          rs
      in
      (rs, [], problems)
  in
  if markdown then print_string (Chaos.to_markdown (results @ teeth))
  else begin
    List.iter (fun r -> print_endline (Chaos.result_to_string r)) results;
    List.iter
      (fun r -> print_endline ("teeth: " ^ Chaos.result_to_string r))
      teeth
  end;
  match problems with
  | [] -> print_endline "chaos: PASS"
  | ps ->
    List.iter (fun p -> print_endline ("chaos: FAIL: " ^ p)) ps;
    (* failing cells carry their flight-recorder ring for post-mortem
       from the CI log without reproducing locally *)
    List.iter
      (fun (r : Chaos.result) ->
        if r.Chaos.flight <> [] then begin
          Printf.eprintf "[flight] %s/%s: %d events\n" r.Chaos.scenario
            r.Chaos.cc
            (List.length r.Chaos.flight);
          List.iter (fun l -> Printf.eprintf "[flight] %s\n" l) r.Chaos.flight
        end)
      (results @ teeth);
    exit 1

(* ---------------- serve (the application layer) ---------------- *)

module Load = Fox_check.Load

(* Hub mode: the deterministic load generator — a fleet of concurrent
   connections against the in-process server, under virtual time. *)
let serve_hub app (cfg : Load.config) =
  Printf.printf
    "serve: %s, %d conns x %d requests x %dB over the %s hub, %d shard%s \
     (loss %.2f, reorder %.2f, seed %d)%s\n%!"
    (Load.app_to_string app) cfg.Load.conns cfg.Load.requests cfg.Load.payload
    (if cfg.Load.gigabit then "1 Gb/s" else "10 Mb/s")
    cfg.Load.shards
    (if cfg.Load.shards = 1 then "" else "s")
    cfg.Load.loss cfg.Load.reorder cfg.Load.seed
    (if cfg.Load.chaos = [] then "" else ", chaos plan installed");
  let r, problems = Load.check cfg in
  print_endline (Load.result_to_string r);
  match problems with
  | [] -> print_endline "serve: PASS"
  | ps ->
    List.iter (fun p -> print_endline ("serve: FAIL: " ^ p)) ps;
    exit 1

(* TUN mode: the same applications, served over a TAP device to the real
   kernel — curl is the intended peer.  Exits 0 with a message when no
   TAP device can be opened (CI without /dev/net/tun). *)
let serve_tun app port duration check shards =
  let module Stack = Fox_stack.Stack in
  let module Tun = Fox_tun.Tun in
  let module Device = Fox_dev.Device in
  let module Ipv4_addr = Fox_ip.Ipv4_addr in
  let module Packet = Fox_basis.Packet in
  let module Mailbox = Fox_shard.Mailbox in
  let module App_http = Fox_app.Http.Make (Stack.Tcp_socket) in
  let module App_classic = Fox_app.Classic.Make (Stack.Tcp_socket) in
  let kernel_ip = "10.99.0.1" in
  let fox_ip = "10.99.0.2" in
  let tap =
    try Tun.open_tap ()
    with Failure msg ->
      Printf.printf
        "serve --tun: cannot open a TAP device (%s); skipping (needs root \
         and /dev/net/tun).\n"
        msg;
      exit 0
  in
  Tun.configure tap ~ip:kernel_ip ~prefix:24;
  let tun_port = Tun.port tap in
  (* Cross-shard plumbing.  Shard 0 owns the TAP: its idle hook pumps the
     device, and its receive path classifies every frame by 4-tuple —
     own frames are delivered in place, another shard's frames cross as
     byte copies through that shard's bounded mailbox (overflow = a
     counted drop, i.e. an Ethernet drop the protocols recover from),
     and non-TCP frames (ARP!) are broadcast so every shard's ARP cache
     learns the kernel's address.  Every shard transmits through the one
     fd — a TAP write takes a whole frame, serialized by a mutex. *)
  let tx_lock = Mutex.create () in
  let locked_transmit packet =
    Mutex.lock tx_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock tx_lock)
      (fun () -> tun_port.Fox_dev.Link.transmit packet)
  in
  let mailboxes = Array.init shards (fun _ -> Mailbox.create ~capacity:1024) in
  (* per-shard (handler, scheduler-side inbox): the mailbox is fed from
     shard 0's domain, the inbox re-enters the frame inside the owning
     shard's scheduler (same shape as Tun's own delivery thread) *)
  let inboxes = Array.make shards None in
  let port_for k =
    if k = 0 then
      {
        Fox_dev.Link.transmit =
          (if shards = 1 then tun_port.Fox_dev.Link.transmit
           else locked_transmit);
        set_receive =
          (fun h ->
            tun_port.Fox_dev.Link.set_receive (fun packet ->
                if shards = 1 then h packet
                else
                  match Fox_shard.Shard.classify ~shards packet with
                  | Fox_shard.Shard.Shard 0 -> h packet
                  | Fox_shard.Shard.Shard owner ->
                    ignore
                      (Mailbox.push mailboxes.(owner)
                         (Packet.to_string packet));
                    Packet.release packet
                  | Fox_shard.Shard.All ->
                    let bytes = Packet.to_string packet in
                    for j = 1 to shards - 1 do
                      ignore (Mailbox.push mailboxes.(j) bytes)
                    done;
                    h packet));
      }
    else
      {
        Fox_dev.Link.transmit = locked_transmit;
        set_receive =
          (fun h -> inboxes.(k) <- Some (h, Fox_sched.Cond.create ()));
      }
  in
  let idle_for k until =
    if k = 0 then Tun.idle_hook tap until
    else
      let timeout_us =
        match until with Some us -> min us 20_000 | None -> 20_000
      in
      match inboxes.(k) with
      | None -> Unix.sleepf (float_of_int timeout_us /. 1e6)
      | Some (_, inbox) -> (
        match Mailbox.pop_timeout mailboxes.(k) ~timeout_us with
        | None -> ()
        | Some first ->
          Fox_sched.Cond.signal inbox (Packet.of_string first);
          List.iter
            (fun s -> Fox_sched.Cond.signal inbox (Packet.of_string s))
            (Mailbox.drain mailboxes.(k)))
  in
  let site =
    Fox_app.Http.Site.of_pages
      [
        ( "/index.html", "text/html",
          "<html><body><h1>foxnet</h1><p>A structured TCP, serving over a \
           TAP device.</p></body></html>\n" );
        ("/hello.txt", "text/plain", "hello from the Fox Net stack\n");
        ("/payload", "application/octet-stream", String.make 16384 'x');
      ]
  in
  let serve sock =
    match app with
    | Load.Http_app -> App_http.serve site sock
    | Load.Echo -> App_classic.echo sock
    | Load.Chargen -> App_classic.chargen sock
    | Load.Discard -> App_classic.discard sock
  in
  (* --check: an in-process kernel-socket HTTP client (what curl would
     do), polled non-blockingly so the scheduler keeps pumping the TAP *)
  let kernel_check () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock sock;
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string fox_ip, port) in
    let rec wait_connect deadline =
      if Scheduler.now () > deadline then failwith "connect timed out"
      else
        match Unix.connect sock addr with
        | () -> ()
        | exception Unix.Unix_error (Unix.EISCONN, _, _) -> ()
        | exception
            Unix.Unix_error
              ((Unix.EINPROGRESS | Unix.EALREADY | Unix.EWOULDBLOCK), _, _)
          ->
          Scheduler.sleep 5_000;
          wait_connect deadline
    in
    wait_connect (Scheduler.now () + 10_000_000);
    let request =
      "GET /index.html HTTP/1.1\r\nHost: fox\r\nConnection: close\r\n\r\n"
    in
    let rec write_all off =
      if off < String.length request then
        match
          Unix.write_substring sock request off (String.length request - off)
        with
        | n -> write_all (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Scheduler.sleep 5_000;
          write_all off
    in
    write_all 0;
    let buf = Bytes.create 65536 in
    let out = Buffer.create 1024 in
    let rec read_all deadline =
      if Scheduler.now () > deadline then failwith "read timed out"
      else
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes out buf 0 n;
          read_all deadline
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Scheduler.sleep 5_000;
          read_all deadline
    in
    read_all (Scheduler.now () + 10_000_000);
    Unix.close sock;
    Buffer.contents out
  in
  let ok = ref true in
  let stop_flag = Atomic.make false in
  let _ =
    Fox_shard.Shard.run ~shards (fun k ->
        (* one full stack per shard, all sharing the interface's MAC and
           IP — the kernel sees one host; the 4-tuple router decides
           which shard's engine owns each connection *)
        let dev = Device.create ~name:(Tun.name tap) ~mtu:1514 (port_for k) in
        let eth =
          Stack.Eth.create dev
            ~mac:(Fox_eth.Mac.of_string "02:f0:0d:00:00:02")
        in
        let arp =
          Stack.Arp.create eth ~local_ip:(Ipv4_addr.of_string fox_ip) ()
        in
        let marp = Stack.Metered_arp.create arp Fox_proto.Meter.silent in
        let ip =
          Stack.Ip.create marp
            {
              Stack.Ip.local_ip = Ipv4_addr.of_string fox_ip;
              route =
                Fox_ip.Route.local ~network:(Ipv4_addr.of_string "10.99.0.0")
                  ~prefix:24;
              lower_address = Fun.id;
              lower_pattern = ();
            }
        in
        let pip =
          Stack.Probed_ip.create ip
            ~name:
              (if shards = 1 then "ip.tap"
               else Printf.sprintf "ip.tap.%d" k)
            ()
        in
        let mip = Stack.Metered_ip.create pip Fox_proto.Meter.silent in
        let tcp = Stack.Tcp.create mip in
        Scheduler.run ~realtime:true ~idle:(idle_for k) (fun () ->
            if k = 0 then Tun.start tap
            else
              (* this shard's delivery thread: frames the idle hook moved
                 into the inbox re-enter here, in thread context *)
              Scheduler.fork (fun () ->
                  let rec deliver () =
                    (match inboxes.(k) with
                    | Some (h, inbox) -> h (Fox_sched.Cond.wait inbox)
                    | None -> ());
                    deliver ()
                  in
                  deliver ());
            ignore
              (Stack.Tcp_socket.listen tcp { Stack.Tcp.local_port = port }
                 serve);
            if k = 0 then begin
              Printf.printf
                "serving %s on %s:%d over TAP %s (kernel side %s), %d \
                 shard%s\n\
                 try:  curl http://%s:%d/index.html\n\
                 %!"
                (Load.app_to_string app) fox_ip port (Tun.name tap) kernel_ip
                shards
                (if shards = 1 then "" else "s")
                fox_ip port;
              if check then begin
                let response = kernel_check () in
                let first_line =
                  match String.index_opt response '\r' with
                  | Some i -> String.sub response 0 i
                  | None -> response
                in
                Printf.printf "kernel client got: %s (%d bytes)\n" first_line
                  (String.length response);
                ok :=
                  String.length response >= 15
                  && String.sub response 0 15 = "HTTP/1.1 200 OK"
                  && String.length response > 100;
                Atomic.set stop_flag true;
                ignore (Scheduler.stop ())
              end
              else if duration > 0 then begin
                Scheduler.sleep (duration * 1_000_000);
                Atomic.set stop_flag true;
                ignore (Scheduler.stop ())
              end
            end
            else if check || duration > 0 then begin
              (* stop when shard 0 declares the run over *)
              let rec watch () =
                if Atomic.get stop_flag then ignore (Scheduler.stop ())
                else begin
                  Scheduler.sleep 100_000;
                  watch ()
                end
              in
              watch ()
            end))
  in
  let rx, tx = Tun.stats tap in
  Printf.printf "TAP frames: %d from kernel, %d from the stack\n" rx tx;
  Tun.close tap;
  if check then
    if !ok then print_endline "serve --tun --check: PASS"
    else begin
      print_endline "serve --tun --check: FAIL";
      exit 1
    end

let serve app_name conns requests payload ramp loss reorder seed ethernet tun
    port duration check shards chaos =
  match Load.app_of_string app_name with
  | None ->
    Printf.eprintf "unknown app %s (have: http, echo, chargen, discard)\n"
      app_name;
    exit 2
  | Some app ->
    if tun then serve_tun app port duration check shards
    else
      serve_hub app
        {
          Load.app;
          conns;
          requests;
          payload;
          ramp_us = ramp;
          loss;
          reorder;
          seed;
          gigabit = not ethernet;
          shards;
          chaos =
            (if chaos then
               (* scale the faults to the rough span of the fleet: the
                  open ramp plus a generous transfer allowance *)
               Fox_check.Chaos.ambient_plan
                 ~span_us:((conns * ramp) + 100_000)
             else []);
        }

(* ---------------- dig (DNS over UDP) ---------------- *)

let dig name =
  let module Stack = Fox_stack.Stack in
  let module Dns = Fox_app.Dns.Make (Stack.Udp_socket) in
  let zone =
    [
      ("fox.test", "10.1.0.2");
      ("www.fox.test", "10.1.0.80");
      ("paper.fox.test", "10.9.4.94");
    ]
  in
  let _, client, server = Network.pair ~engine:Network.Fox () in
  let status = ref 0 in
  let _ =
    Scheduler.run (fun () ->
        ignore
          (Stack.Udp_socket.listen server.Network.udp
             { Stack.Udp.local_port = 53 }
             (Dns.serve_zone zone));
        let sock =
          Stack.Udp_socket.connect client.Network.udp
            {
              Stack.Udp.peer = server.Network.addr;
              peer_port = 53;
              local_port = None;
            }
        in
        let t0 = Scheduler.now () in
        let result = Dns.resolve sock name in
        let elapsed = Scheduler.now () - t0 in
        Printf.printf "; <<>> foxnet dig <<>> %s\n" name;
        Printf.printf ";; QUESTION:\n;  %s.\tIN\tA\n" name;
        (match result with
        | Ok addrs ->
          Printf.printf ";; ANSWER:\n";
          List.iter
            (fun a -> Printf.printf "%s.\t300\tIN\tA\t%s\n" name a)
            addrs
        | Error e ->
          Printf.printf ";; status: %s\n" e;
          status := 1);
        Printf.printf ";; Query time: %d usec (virtual); server %s#53\n"
          elapsed
          (Fox_ip.Ipv4_addr.to_string server.Network.addr);
        Stack.Udp_socket.close sock)
  in
  exit !status

(* ---------------- cmdliner plumbing ---------------- *)

let bytes = Arg.(value & opt int 1_000_000 & info [ "bytes"; "b" ] ~doc:"Bytes.")

let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Loss rate.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let decstation =
  Arg.(value & flag & info [ "decstation" ] ~doc:"DECstation cost model.")

let baseline =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Monolithic baseline engine.")

let count = Arg.(value & opt int 5 & info [ "count"; "c" ] ~doc:"Pings.")

let size = Arg.(value & opt int 56 & info [ "size"; "s" ] ~doc:"Payload bytes.")

let cc_arg =
  Arg.(
    value
    & opt string "reno"
    & info [ "cc" ] ~doc:"Congestion control: reno|newreno|cubic|bbr.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Engine shards: partition the workload by connection across N \
           shards, one OCaml domain each (1 = single-threaded, \
           bit-for-bit the unsharded run).")

let matrix_flag =
  Arg.(
    value & flag
    & info [ "matrix" ] ~doc:"Run once per congestion-control algorithm.")

let transfer_cmd =
  Cmd.v
    (Cmd.info "transfer" ~doc:"One-way TCP throughput run")
    Term.(
      const transfer $ bytes $ loss $ seed $ decstation $ baseline $ cc_arg
      $ shards_arg)

let ping_cmd =
  Cmd.v
    (Cmd.info "ping" ~doc:"ICMP echo across the simulated wire")
    Term.(const ping $ count $ size $ loss $ seed)

let rtt_cmd =
  Cmd.v
    (Cmd.info "rtt" ~doc:"TCP small-message round-trip time")
    Term.(const rtt $ decstation $ baseline)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1")
    Term.(const table1 $ const ())

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce the paper's Table 2")
    Term.(const table2 $ const ())

let iters =
  Arg.(value & opt int 200 & info [ "iters"; "k" ] ~doc:"Schedules to run.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule.")

let interval =
  Arg.(
    value & opt int 50
    & info [ "interval"; "i" ] ~doc:"Sample interval (virtual ms).")

let last =
  Arg.(
    value & opt int 40
    & info [ "last"; "n" ] ~doc:"Show only the last N events of each ring.")

let pcap_flag =
  Arg.(
    value & flag
    & info [ "pcap" ]
        ~doc:"Also capture both hosts' frames to foxnet-trace-{0,1}.pcap.")

let stat_cmd =
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Run a loopback transfer and periodically print per-connection \
          TCP statistics snapshots (state, windows, cwnd, srtt/rto, \
          retransmissions)")
    Term.(const stat $ bytes $ loss $ seed $ interval)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a loopback transfer with the flight recorder on and dump \
          the cross-layer event rings, per-connection traces, and probe \
          histograms")
    Term.(const trace $ bytes $ loss $ seed $ last $ pcap_flag)

let conns =
  Arg.(value & opt int 500 & info [ "conns" ] ~doc:"Client connections.")

let conn_bytes =
  Arg.(
    value & opt int 2048
    & info [ "conn-bytes" ] ~doc:"Payload bytes per connection.")

let flood =
  Arg.(value & opt int 64 & info [ "flood" ] ~doc:"Half-open SYNs to fire.")

let bad_acks =
  Arg.(
    value & opt int 16
    & info [ "bad-acks" ] ~doc:"Forged-cookie bare ACKs to fire.")

let soak_loss =
  Arg.(value & opt float 0.01 & info [ "loss" ] ~doc:"Wire loss rate.")

let chaos_flag =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Install the ambient chaos plan on the wire: a hold-flap, a \
           duplicate/corruption storm, and a drop-flap scaled to the span \
           of the run.")

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Deterministic overload soak: hundreds of staggered connections \
          plus a scripted SYN flood over an adverse wire; asserts every \
          legitimate transfer completes, the flood never completes a \
          handshake, no invariant trips, no buffer leaks, and the whole \
          run replays bit-identically from its seed")
    Term.(
      const soak $ conns $ conn_bytes $ flood $ bad_acks $ seed $ soak_loss
      $ verbose $ cc_arg $ matrix_flag $ shards_arg $ chaos_flag)

let mutate_flag =
  Arg.(
    value & flag
    & info [ "mutate" ]
        ~doc:
          "Wire-format mutation fuzz instead: a gremlin station re-injects \
           mutated duplicates (bit flips, truncations, bad offsets, \
           malformed options, flag soup, garbage checksums) of every TCP \
           frame, against both engines.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzz: run seeded event schedules through the \
          structured and the monolithic TCP over a fault-injecting stack \
          and compare the outcomes")
    Term.(const fuzz $ seed $ iters $ verbose $ cc_arg $ matrix_flag
          $ mutate_flag)

let scenario_cc =
  Arg.(
    value
    & opt (some string) None
    & info [ "cc" ] ~doc:"Run only this algorithm (default: all).")

let scenario_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~doc:"Run only this scenario (default: all).")

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Short transfers (the CI smoke variant).")

let markdown_flag =
  Arg.(
    value & flag
    & info [ "markdown" ] ~doc:"Emit the EXPERIMENTS.md matrix table.")

let scenarios_cmd =
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "Adverse-network scenario matrix: run every congestion-control \
          algorithm through deterministic loss-burst, reordering, \
          bufferbloat, asymmetric-RTT, and shared-bottleneck scenarios \
          with the TCB invariants installed, reporting goodput and Jain \
          fairness per cell")
    Term.(const scenarios $ scenario_cc $ scenario_name $ quick_flag
          $ markdown_flag)

let chaos_family =
  Arg.(
    value
    & opt (some string) None
    & info [ "family" ]
        ~doc:
          "Run only this chaos family: \
           link_flap|mtu_blackhole|dup_storm|slowloris (default: all, with \
           the determinism double-run and the unguarded teeth cells).")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos-survival matrix: deterministic link flaps, a path-MTU \
          blackhole, duplicate/corruption storms, clock jumps, and a \
          slow-loris siege under every congestion-control algorithm with \
          the graceful-degradation defenses on — plus unguarded teeth \
          cells that must demonstrably fail without them")
    Term.(
      const chaos $ scenario_cc $ chaos_family $ quick_flag $ markdown_flag
      $ verbose)

let app_arg =
  Arg.(
    value & opt string "http"
    & info [ "app" ] ~doc:"Application: http|echo|chargen|discard.")

let serve_conns =
  Arg.(
    value & opt int 100 & info [ "conns" ] ~doc:"Concurrent connections.")

let serve_requests =
  Arg.(
    value & opt int 4
    & info [ "requests" ] ~doc:"Request/response exchanges per connection.")

let serve_payload =
  Arg.(
    value & opt int 1024
    & info [ "payload" ] ~doc:"Response bytes per exchange.")

let serve_ramp =
  Arg.(
    value & opt int 0
    & info [ "ramp" ] ~doc:"Connection-open stagger (virtual us).")

let serve_loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Hub frame-loss rate.")

let serve_reorder =
  Arg.(
    value & opt float 0.0
    & info [ "reorder" ] ~doc:"Hub reordering probability.")

let ethernet_flag =
  Arg.(
    value & flag
    & info [ "ethernet" ]
        ~doc:"The paper's 10 Mb/s shared wire instead of 1 Gb/s.")

let tun_flag =
  Arg.(
    value & flag
    & info [ "tun" ]
        ~doc:
          "Serve over a TAP device to the real kernel (needs root); curl \
           is the intended client.  Skips with exit 0 when no TAP device \
           is available.")

let serve_port =
  Arg.(value & opt int 8080 & info [ "port" ] ~doc:"TCP port (--tun mode).")

let serve_duration =
  Arg.(
    value & opt int 0
    & info [ "duration" ]
        ~doc:"Stop after this many seconds (--tun mode; 0 = run forever).")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "With --tun: run an in-process kernel-socket HTTP client against \
           the served site and exit pass/fail (the CI interop smoke).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an application (HTTP/1.1, echo, chargen, discard) over the \
          in-process hub under a concurrent load generator — or, with \
          --tun, over a TAP device to the real kernel for curl to hit")
    Term.(
      const serve $ app_arg $ serve_conns $ serve_requests $ serve_payload
      $ serve_ramp $ serve_loss $ serve_reorder $ seed $ ethernet_flag
      $ tun_flag $ serve_port $ serve_duration $ check_flag $ shards_arg
      $ chaos_flag)

let dig_name =
  Arg.(
    value
    & pos 0 string "www.fox.test"
    & info [] ~docv:"NAME" ~doc:"Name to resolve.")

let dig_cmd =
  Cmd.v
    (Cmd.info "dig"
       ~doc:
         "Resolve a name with the DNS-over-UDP client against an \
          in-process zone server (zone: fox.test, www.fox.test, \
          paper.fox.test)")
    Term.(const dig $ dig_name)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "foxnet" ~version:"1.0"
             ~doc:"The Fox Net structured TCP/IP stack, simulated")
          [
            transfer_cmd; ping_cmd; rtt_cmd; table1_cmd; table2_cmd; fuzz_cmd;
            soak_cmd; scenarios_cmd; chaos_cmd; stat_cmd; trace_cmd; serve_cmd;
            dig_cmd;
          ]))
