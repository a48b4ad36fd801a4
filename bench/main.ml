(* The benchmark harness: regenerates every measurement in the paper's
   evaluation (Section 5).

   - Bechamel microbenchmarks measure the real OCaml code on this machine
     (the paper's inline numbers: checksum and copy rates, scheduler and
     timer costs, counter overhead), one Test.make per measurement,
     grouped per table/figure.
   - The Table 1 and Table 2 sections run the paper's transfer benchmark
     on the simulated 10 Mb/s Ethernet under the DECstation cost models
     and print rows in the paper's format, with the paper's numbers
     alongside.
   - The GC section reproduces the "runs of over 5 MB" observation.
   - The ablation section quantifies the design choices DESIGN.md calls
     out: quasi-synchronous engine vs monolithic baseline (wall-clock CPU
     of the real implementations), checksum configurations, and delayed
     acknowledgements. *)

open Bechamel
open Toolkit
open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Experiments = Fox_stack.Experiments
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Cost_model = Fox_stack.Cost_model
module Ipv4_addr = Fox_ip.Ipv4_addr

let line = String.make 78 '-'

let section name = Printf.printf "\n%s\n== %s\n%s\n" line name line

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                           *)
(* ------------------------------------------------------------------ *)

let kb_buffer = Bytes.init 2048 (fun i -> Char.chr (i * 37 land 0xff))

let checksum_tests =
  Test.make_grouped ~name:"inline1-checksum"
    [
      Test.make ~name:"optimized-1KB-aligned"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Optimized kb_buffer 0 1024));
      Test.make ~name:"optimized-1KB-offset2"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Optimized kb_buffer 2 1024));
      Test.make ~name:"basic-1KB"
        (Staged.stage (fun () -> Checksum.checksum ~alg:`Basic kb_buffer 0 1024));
      Test.make ~name:"reference-1KB"
        (Staged.stage (fun () -> Checksum.reference kb_buffer 0 1024));
    ]

let copy_dst = Bytes.create 2048

let copy_tests =
  Test.make_grouped ~name:"inline2-copy"
    (Test.make ~name:"fused-copy+checksum-1KB"
       (Staged.stage (fun () ->
            Copy.blit_checksum kb_buffer 0 copy_dst 0 1024 ~init:0))
    :: List.map
         (fun (name, impl) ->
           Test.make ~name:(name ^ "-1KB")
             (Staged.stage (fun () ->
                  Copy.copy impl kb_buffer 0 copy_dst 0 1024)))
         Copy.all)

(* The paper's 30 us "create a thread, terminate the current thread, and
   switch to the new thread", amortised over 1000 operations in one
   scheduler run; timed work due 1 us ahead, as [fork_at] and as the
   fork/now/sleep expansion it replaces; and the 1.2 us empty call for
   scale. *)
let sched_tests =
  Test.make_grouped ~name:"inline3-scheduler"
    [
      Test.make ~name:"1000x-fork+switch+exit"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 for _ = 1 to 1000 do
                   Scheduler.fork (fun () -> ());
                   Scheduler.yield ()
                 done)));
      Test.make ~name:"1000x-fork_at+1us"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 let due = Scheduler.now () + 1 in
                 for _ = 1 to 1000 do
                   Scheduler.fork_at due ignore
                 done)));
      Test.make ~name:"1000x-fork+now+sleep+1us"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 let due = Scheduler.now () + 1 in
                 for _ = 1 to 1000 do
                   Scheduler.fork (fun () ->
                       let w = due - Scheduler.now () in
                       if w > 0 then Scheduler.sleep w)
                 done)));
      Test.make ~name:"1000x-timer-start+clear"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 for _ = 1 to 1000 do
                   Fox_sched.Timer.clear (Fox_sched.Timer.start ignore 50)
                 done)));
      (let f = Sys.opaque_identity (fun () -> ()) in
       Test.make ~name:"empty-call" (Staged.stage (fun () -> f ())));
    ]

let counter_set = Counters.create ()

let counter_tests =
  Test.make_grouped ~name:"inline4-counters"
    [
      Test.make ~name:"add"
        (Staged.stage (fun () -> Counters.add counter_set "bench" 10));
    ]

let codec_packet = Packet.of_string ~headroom:64 (String.make 512 'p')

let codec_tests =
  let tcp_hdr =
    {
      (Fox_tcp.Tcp_header.basic ~src_port:1 ~dst_port:2) with
      Fox_tcp.Tcp_header.seq = Fox_tcp.Seq.of_int 12345;
      ack_flag = true;
      window = 4096;
    }
  in
  let pseudo =
    Checksum.pseudo_ipv4 ~src:0x0A000001 ~dst:0x0A000002 ~proto:6 ~len:532
  in
  Test.make_grouped ~name:"codecs"
    [
      Test.make ~name:"tcp-header-encode+decode-512B"
        (Staged.stage (fun () ->
             Fox_tcp.Tcp_header.encode ~pseudo:(Some pseudo) tcp_hdr codec_packet;
             match
               Fox_tcp.Tcp_header.decode ~pseudo:(Some pseudo) codec_packet
             with
             | Ok _ -> ()
             | Error _ -> assert false));
      Test.make ~name:"crc32-1KB"
        (Staged.stage (fun () -> ignore (Crc32.digest kb_buffer 0 1024)));
    ]

let container_tests =
  Test.make_grouped ~name:"containers"
    [
      Test.make ~name:"fifo-add+next"
        (Staged.stage (fun () ->
             match Fifo.next (Fifo.add 1 Fifo.empty) with
             | Some _ -> ()
             | None -> assert false));
      Test.make ~name:"heap-add+pop-x16"
        (Staged.stage (fun () ->
             let h = Heap.create ~dummy:0 in
             for i = 15 downto 0 do
               Heap.add h i i
             done;
             for _ = 0 to 15 do
               ignore (Heap.pop_min h)
             done));
      Test.make ~name:"packet-push+pull-header"
        (Staged.stage (fun () ->
             Packet.push_header codec_packet 20;
             Packet.pull_header codec_packet 20));
    ]

(* run one bechamel group and return (name, nanoseconds-per-run) rows *)
let run_group test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> (name, ns) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let print_group ?(per = 1.0) ?(unit_name = "ns/op") test =
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-45s %12.2f %s\n" name (ns /. per) unit_name)
    (run_group test)

let microbenchmarks () =
  section "Microbenchmarks (real wall-clock of the OCaml code, Bechamel)";
  Printf.printf
    "Paper reference points (DECstation 5000/125): optimised checksum 343\n\
     us/KB vs x-kernel 375 us/KB; safe copy 300 us/KB vs bcopy 61 us/KB;\n\
     thread create+switch+exit 30 us vs empty call 1.2 us; counter pair 15 us.\n\n";
  Printf.printf "[inline-1] Internet checksum, 1 KB:\n";
  print_group ~per:1000.0 ~unit_name:"us/KB" checksum_tests;
  Printf.printf "\n[inline-2] copy, 1 KB:\n";
  print_group ~per:1000.0 ~unit_name:"us/KB" copy_tests;
  Printf.printf
    "\n[inline-3] scheduler and timers (divide x1000 rows by 1000 for per-op):\n";
  print_group sched_tests;
  Printf.printf "\n[inline-4] profiling counters:\n";
  print_group counter_tests;
  Printf.printf "\nheader codecs and containers (substrate costs):\n";
  print_group codec_tests;
  print_group container_tests

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Speed Comparison of TCP Implementations";
  Printf.printf
    "1 MB one-way transfer, 4096-byte window, simulated isolated 10 Mb/s\n\
     Ethernet, DECstation cost models (see lib/fox_stack/cost_model.ml).\n\n";
  let fox_tp, fox_rtt, base_tp, base_rtt = Experiments.table1 () in
  let open Experiments in
  Printf.printf "%-22s %10s %10s %8s %22s\n" "" "Fox Net" "x-kernel" "ratio"
    "(paper: fox/xk/ratio)";
  Printf.printf "%-22s %10.2f %10.2f %8.2f %22s\n" "Throughput (Mb/s)"
    fox_tp.throughput_mbps base_tp.throughput_mbps
    (fox_tp.throughput_mbps /. base_tp.throughput_mbps)
    "(0.6 / 2.5 / 0.24)";
  Printf.printf "%-22s %10.1f %10.1f %8.1f %22s\n" "Round-Trip (ms)"
    (float_of_int fox_rtt.mean_rtt_us /. 1000.)
    (float_of_int base_rtt.mean_rtt_us /. 1000.)
    (float_of_int fox_rtt.mean_rtt_us /. float_of_int base_rtt.mean_rtt_us)
    "(36 / 4.9 / 9.4)";
  Printf.printf
    "\nfox: %d sender segments, %d retransmissions, %.2f s elapsed (virtual)\n"
    fox_tp.sender_segments fox_tp.retransmissions
    (float_of_int fox_tp.elapsed_us /. 1e6);
  Printf.printf "x-kernel-like: %d sender segments, %d retransmissions, %.2f s\n"
    base_tp.sender_segments base_tp.retransmissions
    (float_of_int base_tp.elapsed_us /. 1e6)

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [
    ("TCP", (29.0, 27.5));
    ("IP", (7.8, 9.7));
    ("eth, Mach interf.", (11.2, 11.9));
    ("copy", (10.5, 6.3));
    ("checksum", (5.1, 5.6));
    ("Mach send", (7.5, 6.0));
    ("packet wait", (15.8, 9.3));
    ("g. c.", (3.4, 5.0));
    ("misc.", (4.7, 7.3));
    ("counters (est.)", (5.2, 5.4));
  ]

let table2 () =
  section "Table 2: Execution Profile (Percent of Total Time)";
  let result, sender, receiver = Experiments.table2 () in
  Printf.printf
    "1 MB fox transfer under the cost model (%.2f s virtual); percentages\n\
     of each host's accounted busy time, as in the paper.\n\n"
    (float_of_int result.Experiments.elapsed_us /. 1e6);
  Printf.printf "%-22s %8s %9s %9s %9s\n" "component" "Sender" "Receiver"
    "(paper S" "paper R)";
  let find profile name =
    match List.find_opt (fun (n, _, _) -> n = name) profile with
    | Some (_, pct, _) -> pct
    | None -> 0.0
  in
  List.iter
    (fun (name, (ps, pr)) ->
      Printf.printf "%-22s %8.1f %9.1f %9.1f %9.1f\n" name (find sender name)
        (find receiver name) ps pr)
    paper_table2;
  let total p = List.fold_left (fun acc (_, pct, _) -> acc +. pct) 0.0 p in
  Printf.printf "%-22s %8.1f %9.1f %9.1f %9.1f\n" "total" (total sender)
    (total receiver) 100.2 94.0

(* ------------------------------------------------------------------ *)
(* GC behaviour (inline-5)                                            *)
(* ------------------------------------------------------------------ *)

let gc_experiment () =
  section "GC behaviour: short vs long runs (paper: >5 MB runs no slower)";
  let run bytes =
    let _, sender, receiver =
      Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
    in
    Experiments.Fox_run.transfer ~sender ~receiver ~bytes ()
  in
  let small = run 1_000_000 in
  let large = run 8_000_000 in
  let open Experiments in
  Printf.printf "%-12s %12s %12s %10s %10s\n" "transfer" "Mb/s (virt)"
    "elapsed s" "minor gcs" "major gcs";
  let row name (r : transfer_result) =
    Printf.printf "%-12s %12.2f %12.2f %10d %10d\n" name r.throughput_mbps
      (float_of_int r.elapsed_us /. 1e6)
      r.minor_collections r.major_collections
  in
  row "1 MB" small;
  row "8 MB" large;
  Printf.printf
    "\nlong/short throughput ratio: %.3f (paper observes >= 1.0: startup\n\
     amortisation more than compensates for major collections)\n"
    (large.throughput_mbps /. small.throughput_mbps)

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

(* The bench's one transfer loop, generic over the engine so Ablation A
   runs the structured and the monolithic TCP through identical code.
   The receiver asks for [bytes] with an 8-byte request; the sender
   streams MSS-sized packets back, allocated but not filled, so the loop
   measures the engines and not a payload generator.  Both ends release
   every packet they are handed.  A slow application ([app_us] > 0)
   charges that much receiver CPU inside each data upcall, i.e. inside
   the drain loop. *)
type run = { virt_us : int; cpu_s : float; sender_segs : int; receiver_segs : int }

module Loop (E : Experiments.ENGINE) = struct
  let transfer ?(app_us = 0) ~(sender : Network.host)
      ~(receiver : Network.host) ~bytes () =
    let port = 5001 in
    let ts = E.instance sender and tr = E.instance receiver in
    E.listen ts ~port (fun conn request ->
        if Packet.length request >= 8 then begin
          let wanted = Packet.get_u32 request 4 in
          Packet.release request;
          Scheduler.fork (fun () ->
              let mss = E.mss conn in
              let sent = ref 0 in
              while !sent < wanted do
                let n = min mss (wanted - !sent) in
                E.send conn (E.allocate conn n);
                sent := !sent + n
              done)
        end);
    let received = ref 0 and t0 = ref 0 and t1 = ref 0 in
    let cpu0 = Sys.time () in
    let _ =
      Scheduler.run (fun () ->
          let conn =
            E.connect tr ~peer:sender.Network.addr ~port ~handler:(fun packet ->
                if app_us > 0 then
                  Fox_sched.Cpu.charge receiver.Network.cpu "application" app_us;
                received := !received + Packet.length packet;
                Packet.release packet;
                if !received >= bytes then t1 := Scheduler.now ())
          in
          t0 := Scheduler.now ();
          let request = E.allocate conn 8 in
          Packet.set_u32 request 0 0xF0C5F0C5;
          Packet.set_u32 request 4 bytes;
          E.send conn request)
    in
    let cpu_s = Sys.time () -. cpu0 in
    assert (!received >= bytes);
    {
      virt_us = !t1 - !t0;
      cpu_s;
      sender_segs = E.segments_sent ts;
      receiver_segs = E.segments_sent tr;
    }
end

let default = Fox_tcp.Tcb.default_params

(* One structured TCP configuration: [params] applied as its own
   [Tcp.Make] — each configuration is a functor application, as in
   Figure 4 — on a fresh pair of bare hosts, then one transfer. *)
let transfer_with ?app_us ?cost ?netem params ~bytes =
  let module F = Experiments.Fox_engine_of (struct
    let params = params
  end) in
  let _, a, b = Network.pair ~engine:Network.Bare ?cost ?netem () in
  let ta = F.T.create a.Network.metered_ip
  and tb = F.T.create b.Network.metered_ip in
  let module L =
    Loop
      (F.On (struct
        let instance h = if h == a then ta else tb
      end))
  in
  L.transfer ?app_us ~sender:a ~receiver:b ~bytes ()

let ablation_control_structure () =
  section "Ablation A: control structure (quasi-synchronous vs direct calls)";
  Printf.printf
    "Real CPU seconds this machine spends simulating a 4 MB transfer on a\n\
     gigabit wire (no cost model): measures the engines' own bookkeeping.\n\n";
  let bytes = 4_000_000 in
  let row label engine (module E : Experiments.ENGINE) =
    let module L = Loop (E) in
    let _, a, b = Network.pair ~engine ~netem:Fox_dev.Netem.gigabit () in
    let r = L.transfer ~sender:a ~receiver:b ~bytes () in
    Printf.printf "  %-28s %8.3f s CPU   (virtual: %8.1f ms)\n" label r.cpu_s
      (float_of_int r.virt_us /. 1000.);
    r.cpu_s
  in
  let fox =
    row "structured (to_do queue)" Network.Fox (module Experiments.Fox_engine)
  in
  let base =
    row "monolithic (direct calls)" Network.Baseline
      (module Experiments.Baseline_engine)
  in
  Printf.printf
    "\n  structured/monolithic CPU ratio: %.2f (the engine-side price of the\n\
     paper's deterministic quasi-synchronous design, on this machine)\n"
    (fox /. base)

let ablation_checksums () =
  section "Ablation B: checksum configuration (real CPU cost of the stack)";
  Printf.printf
    "2 MB transfer on a gigabit wire; the checksum is the main data-touching\n\
     operation left once copies are minimised (cf. Figure 10).\n\n";
  List.iter
    (fun (label, params) ->
      let r =
        transfer_with ~netem:Fox_dev.Netem.gigabit params ~bytes:2_000_000
      in
      Printf.printf "  %-38s %8.3f s CPU\n" label r.cpu_s)
    [
      ("optimized checksum (Figure 10)", default);
      ("basic checksum (x-kernel loop)", { default with checksum_alg = `Basic });
      ( "checksums off (Special_Tcp, trust CRC)",
        { default with compute_checksums = false } );
    ]

let ablation_delayed_ack () =
  section "Ablation C: delayed acknowledgements";
  Printf.printf
    "1 MB transfer on the 10 Mb/s wire (no cost model): delayed ACKs halve\n\
     the reverse traffic at the price of occasional 200 ms holdoffs.\n\n";
  List.iter
    (fun (label, params) ->
      let r = transfer_with params ~bytes:1_000_000 in
      Printf.printf "  %-26s elapsed %8.1f ms   receiver segments %6d\n" label
        (float_of_int r.virt_us /. 1000.)
        r.receiver_segs)
    [
      ("delayed ACK (200 ms)", default);
      ("immediate ACK", { default with delayed_ack_us = 0 });
    ]

(* The window is a functor parameter (Figure 4), so each point of the
   sweep is a separate functor application of the same TCP — a figure
   the paper implies with its "window size used by many implementations"
   remark. *)
let window_sweep () =
  section "Extension: throughput vs. window size (DECstation cost model)";
  Printf.printf
    "500 KB fox transfer; the window bounds data in flight, so throughput\n\
     climbs until processing, not the window, is the bottleneck.\n\n";
  let bytes = 500_000 in
  List.iter
    (fun window ->
      let r =
        transfer_with ~cost:Cost_model.fox
          { default with initial_window = window }
          ~bytes
      in
      let mbps = float_of_int (bytes * 8) /. float_of_int r.virt_us in
      Printf.printf "  window %6d B   %8.3f Mb/s   %s%s\n" window mbps
        (String.make (int_of_float (mbps *. 40.)) '#')
        (if window = default.initial_window then "   (paper's setting)" else ""))
    [ 1024; 2048; 4096; 8192; 16384 ]

(* With the FIFO queue the outgoing ACK (queued after the User_data
   action) waits behind the slow application's processing; the priority
   queue sends it first, so the sender's window opens sooner. *)
let ablation_priority () =
  section "Ablation D: priority to_do queue (the paper's suggested refinement)";
  Printf.printf
    "\"By replacing the current FIFO with a priority queue, we could specify\n\
     that particular actions, e.g., actions which affect the packet latency,\n\
     be executed with higher priority.\"  500 KB to a slow application that\n\
     burns 4 ms of CPU per delivered segment, inside the upcall: with the\n\
     FIFO the ACK queued behind each User_data action waits for the app.\n\n";
  List.iter
    (fun (label, params) ->
      let r = transfer_with ~app_us:4_000 params ~bytes:500_000 in
      Printf.printf "  %-26s elapsed %8.2f s (virtual)\n" label
        (float_of_int r.virt_us /. 1e6))
    [
      ("FIFO to_do queue", default);
      ("priority to_do queue", { default with prioritize_latency = true });
    ]

(* ------------------------------------------------------------------ *)
(* Fast-path ablation: header prediction on the fused datapath         *)
(* ------------------------------------------------------------------ *)

type fastpath_row = {
  fp_prediction : bool;
  fp_touch_per_byte : float;
      (** payload bytes traversed (copy + checksum + fused passes) per
          byte transferred — the "touch the data once" meter *)
  fp_minor_words_per_seg : float;
  fp_segs : int;
}

(* One 2 MB transfer on a gigabit wire, with or without header
   prediction.  Data-touch passes are metered globally
   (Packet.bytes_copied, Checksum.bytes_summed, Copy.bytes_fused), so the
   run brackets them; segments are the sender instance's segs_out. *)
let fastpath_config ~prediction =
  let bytes = 2_000_000 in
  let c0 = !Packet.bytes_copied
  and s0 = !Checksum.bytes_summed
  and f0 = !Copy.bytes_fused in
  let g0 = Gc.minor_words () in
  let r =
    transfer_with ~netem:Fox_dev.Netem.gigabit
      { default with header_prediction = prediction }
      ~bytes
  in
  let touched =
    !Packet.bytes_copied - c0 + (!Checksum.bytes_summed - s0)
    + (!Copy.bytes_fused - f0)
  in
  {
    fp_prediction = prediction;
    fp_touch_per_byte = float_of_int touched /. float_of_int bytes;
    fp_minor_words_per_seg =
      (Gc.minor_words () -. g0) /. float_of_int r.sender_segs;
    fp_segs = r.sender_segs;
  }

let ablation_fastpath () =
  section "Ablation E: header prediction on the fused copy-and-checksum path";
  Printf.printf
    "2 MB transfer on a gigabit wire (no cost model).  touches/byte counts\n\
     every metered traversal of payload bytes (copies, checksum passes,\n\
     fused copy-and-checksum passes) per byte delivered; words/seg is minor\n\
     heap allocation per sender segment.\n\n";
  let rows =
    List.map (fun prediction -> fastpath_config ~prediction) [ false; true ]
  in
  Printf.printf "  %-18s %14s %14s %8s\n" "header prediction" "touches/byte"
    "words/seg" "segs";
  List.iter
    (fun r ->
      Printf.printf "  %-18s %14.3f %14.1f %8d\n"
        (if r.fp_prediction then "on" else "off")
        r.fp_touch_per_byte r.fp_minor_words_per_seg r.fp_segs)
    rows;
  let oc = open_out "BENCH_pr4.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"pr4_zero_copy_fastpath\",\n  \"bytes\": 2000000,\n\
    \  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"prediction\": %b, \"touches_per_byte\": %.4f, \
         \"minor_words_per_segment\": %.1f, \"segments\": %d}%s\n"
        r.fp_prediction r.fp_touch_per_byte r.fp_minor_words_per_seg r.fp_segs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "\nwrote BENCH_pr4.json"

(* ------------------------------------------------------------------ *)
(* Standing end-to-end headline (BENCH_table1.json)                   *)
(* ------------------------------------------------------------------ *)

(* One comparable Mb/s number per PR: the paper's Table 1 transfer (1 MB,
   4096-byte window, 10 Mb/s Ethernet, DECstation cost model) next to a
   modern transfer (1 GB on a gigabit wire, no cost model). *)
let table1_headline () =
  section "Standing headline: paper Table 1 transfer + modern transfer";
  let fox_tp, _, base_tp, _ = Experiments.table1 () in
  let open Experiments in
  Printf.printf
    "paper (1 MB, 10 Mb/s Ethernet, cost model): %.2f Mb/s over %.2f s\n\
     virtual (%d segments, %d retransmissions); x-kernel-like baseline\n\
     %.2f Mb/s\n"
    fox_tp.throughput_mbps
    (float_of_int fox_tp.elapsed_us /. 1e6)
    fox_tp.sender_segments fox_tp.retransmissions base_tp.throughput_mbps;
  let modern_bytes = 1_000_000_000 in
  let { virt_us; cpu_s; sender_segs = segs; _ } =
    transfer_with ~netem:Fox_dev.Netem.gigabit default ~bytes:modern_bytes
  in
  let modern_mbps =
    float_of_int modern_bytes *. 8.0 /. float_of_int virt_us
  in
  Printf.printf
    "modern (1 GB, gigabit wire): %.1f Mb/s over %.3f s virtual\n\
     (%d segments, %.1f s CPU)\n"
    modern_mbps
    (float_of_int virt_us /. 1e6)
    segs cpu_s;
  let oc = open_out "BENCH_table1.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"table1_headline\",\n\
    \  \"paper_1mb\": {\n\
    \    \"mbps\": %.3f,\n\
    \    \"elapsed_virtual_s\": %.3f,\n\
    \    \"segments\": %d,\n\
    \    \"retransmissions\": %d,\n\
    \    \"baseline_mbps\": %.3f\n\
    \  },\n\
    \  \"modern_1gb\": {\n\
    \    \"mbps\": %.1f,\n\
    \    \"elapsed_virtual_s\": %.3f,\n\
    \    \"segments\": %d,\n\
    \    \"cpu_s\": %.1f\n\
    \  }\n\
     }\n"
    fox_tp.throughput_mbps
    (float_of_int fox_tp.elapsed_us /. 1e6)
    fox_tp.sender_segments fox_tp.retransmissions base_tp.throughput_mbps
    modern_mbps
    (float_of_int virt_us /. 1e6)
    segs cpu_s;
  close_out oc;
  print_endline "\nwrote BENCH_table1.json"

(* ------------------------------------------------------------------ *)
(* Overload survival: timer backends under load and the flood soak    *)
(* ------------------------------------------------------------------ *)

let time_cpu f =
  let cpu0 = Sys.time () in
  f ();
  Sys.time () -. cpu0

(* One timer implementation under the two loads a busy TCP puts on it:
   churn (every segment restarts the retransmission timer: start + clear,
   with a standing population of armed timers behind it) and mass expiry
   (every parked TIME-WAIT and delayed-ACK deadline actually firing).
   Under Figure 11 each armed timer is its own sleeping thread, so even a
   cleared timer costs a wakeup at its deadline; the wheel behind
   [Fox_sched.Timer] shares one sleeper across all of them. *)
module Timer_load (T : sig
  type t

  val start : (unit -> unit) -> int -> t
  val clear : t -> unit
end) =
struct
  let run ~live ~churn =
    let churn_s =
      time_cpu (fun () ->
          ignore
            (Scheduler.run (fun () ->
                 let standing =
                   Array.init live (fun i -> T.start ignore (10_000_000 + i))
                 in
                 for i = 0 to churn - 1 do
                   T.clear (T.start ignore (100_000 + (i mod 997)))
                 done;
                 Array.iter T.clear standing)))
    in
    let fire_s =
      time_cpu (fun () ->
          ignore
            (Scheduler.run (fun () ->
                 for i = 0 to live - 1 do
                   ignore (T.start ignore (1_000 + (i * 13 mod 50_000)))
                 done)))
    in
    (churn_s, fire_s)
end

module Fig11_load = Timer_load (Fig11)
module Wheel_load = Timer_load (Fox_sched.Timer)

let bench_soak () =
  section "Overload survival: timer wheel vs Figure 11, SYN-flood soak";
  let module Soak = Fox_check.Soak in
  let live = 2000 and churn = 50_000 in
  Printf.printf
    "Timer backends with %d standing timers: churn is %d start+clear pairs\n\
     (TCP's per-segment retransmission-timer restart), fire lets all %d\n\
     deadlines expire (TIME-WAIT / delayed-ACK mass expiry).\n\n"
    live churn live;
  let fig11_churn, fig11_fire = Fig11_load.run ~live ~churn in
  let wheel_churn, wheel_fire = Wheel_load.run ~live ~churn in
  let per_op s n = s /. float_of_int n *. 1e9 in
  Printf.printf "  %-28s %14s %14s\n" "backend" "churn ns/op" "fire ns/timer";
  Printf.printf "  %-28s %14.0f %14.0f\n" "Figure 11 (thread per timer)"
    (per_op fig11_churn churn) (per_op fig11_fire live);
  Printf.printf "  %-28s %14.0f %14.0f\n" "hierarchical wheel"
    (per_op wheel_churn churn) (per_op wheel_fire live);
  Printf.printf
    "\nFlood soak (%d staggered connections x %d B + %d-SYN flood + %d \
     forged ACKs,\nadverse wire):\n\n"
    Soak.default_config.Soak.conns Soak.default_config.Soak.bytes_per_conn
    Soak.default_config.Soak.flood_syns
    Soak.default_config.Soak.flood_bad_acks;
  let soak =
    let cpu0 = Sys.time () in
    let r = Soak.run Soak.default_config in
    (r, Sys.time () -. cpu0)
  in
  (let r, cpu_s = soak in
   Printf.printf
     "  %d/%d conns, %d flood segs -> %d extra accepts, %d RSTs, %d \
      recycled, %.3f s virtual, %.2f s CPU\n"
     r.Soak.completed r.Soak.conns r.Soak.flood_sent
     (max 0 (r.Soak.server_accepts - r.Soak.conns))
     r.Soak.rsts_sent r.Soak.time_wait_recycled
     (float_of_int r.Soak.end_time /. 1e6)
     cpu_s);
  let oc = open_out "BENCH_pr5.json" in
  let soak_json (r, cpu_s) =
    Printf.sprintf
      "{\"conns\": %d, \"completed\": %d, \"flood_segments\": %d, \
       \"flood_extra_accepts\": %d, \"flood_refused_fraction\": %.4f, \
       \"rsts_sent\": %d, \"backlog_refused\": %d, \"syn_dropped\": %d, \
       \"time_wait_recycled\": %d, \"wire_queue_drops\": %d, \
       \"leaked_packets\": %d, \"virtual_s\": %.3f, \"cpu_s\": %.3f}"
      r.Soak.conns r.Soak.completed r.Soak.flood_sent
      (max 0 (r.Soak.server_accepts - r.Soak.conns))
      (if r.Soak.flood_sent = 0 then 1.0
       else
         1.0
         -. float_of_int (max 0 (r.Soak.server_accepts - r.Soak.conns))
            /. float_of_int r.Soak.flood_sent)
      r.Soak.rsts_sent r.Soak.backlog_refused r.Soak.syn_dropped
      r.Soak.time_wait_recycled r.Soak.wire_queue_drops r.Soak.leaked_packets
      (float_of_int r.Soak.end_time /. 1e6)
      cpu_s
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pr5_overload_survival\",\n\
    \  \"timers\": {\n\
    \    \"standing\": %d,\n\
    \    \"churn_ops\": %d,\n\
    \    \"fig11_churn_ns_per_op\": %.0f,\n\
    \    \"wheel_churn_ns_per_op\": %.0f,\n\
    \    \"fig11_fire_ns_per_timer\": %.0f,\n\
    \    \"wheel_fire_ns_per_timer\": %.0f\n\
    \  },\n\
    \  \"soak\": %s\n\
     }\n"
    live churn (per_op fig11_churn churn) (per_op wheel_churn churn)
    (per_op fig11_fire live) (per_op wheel_fire live)
    (soak_json soak);
  close_out oc;
  print_endline "\nwrote BENCH_pr5.json"

(* ------------------------------------------------------------------ *)
(* Application serving: HTTP/1.1 and echo under 1k concurrent conns    *)
(* ------------------------------------------------------------------ *)

(* The PR 8 standing benchmark: the fox_app servers behind the buffered
   socket veneer, driven by the fox_check load generator over a clean
   gigabit hub.  1000 clients connect concurrently (ramp 0 ⇒ peak
   concurrency = conns) and each runs 5 request/response exchanges whose
   payloads are verified byte-exact; the latency distribution is
   per-request virtual time. *)
let bench_serve () =
  section "Serving: HTTP/1.1 and echo at 1000 concurrent connections";
  let module Load = Fox_check.Load in
  Printf.printf
    "fox_app servers over the gigabit hub, 1000 clients connecting at\n\
     once, 5 exchanges each, byte-verified payloads; latencies are\n\
     per-request virtual time.\n\n";
  let base =
    {
      Load.default_config with
      Load.conns = 1000;
      requests = 5;
      payload = 1024;
      ramp_us = 0;
      gigabit = true;
    }
  in
  let run app =
    let cpu0 = Sys.time () in
    let r = Load.run { base with Load.app } in
    (r, Sys.time () -. cpu0)
  in
  let rows = List.map run [ Load.Http_app; Load.Echo ] in
  Printf.printf "  %-8s %9s %9s %10s %9s %9s %9s\n" "app" "requests" "req/s"
    "peak conc" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun ((r : Load.result), _) ->
      Printf.printf "  %-8s %4d/%-4d %9.0f %10d %9.1f %9.1f %9.1f\n"
        r.Load.app
        r.Load.requests_ok r.Load.requests_attempted r.Load.reqs_per_sec
        r.Load.max_concurrent
        (float_of_int r.Load.p50_us /. 1000.)
        (float_of_int r.Load.p95_us /. 1000.)
        (float_of_int r.Load.p99_us /. 1000.))
    rows;
  let oc = open_out "BENCH_pr8.json" in
  let row_json ((r : Load.result), cpu_s) =
    Printf.sprintf
      "{\"app\": \"%s\", \"conns\": %d, \"requests_ok\": %d, \
       \"requests_attempted\": %d, \"conn_errors\": %d, \
       \"bytes_received\": %d, \"max_concurrent\": %d, \"accepts\": %d, \
       \"reqs_per_sec\": %.1f, \"p50_us\": %d, \"p95_us\": %d, \
       \"p99_us\": %d, \"max_us\": %d, \"virtual_s\": %.3f, \"cpu_s\": %.3f}"
      r.Load.app r.Load.conns r.Load.requests_ok r.Load.requests_attempted
      r.Load.conn_errors r.Load.bytes_received r.Load.max_concurrent
      r.Load.accepts r.Load.reqs_per_sec r.Load.p50_us r.Load.p95_us
      r.Load.p99_us r.Load.max_us
      (float_of_int r.Load.elapsed_us /. 1e6)
      cpu_s
  in
  (match rows with
  | [ http; echo ] ->
    Printf.fprintf oc
      "{\n\
      \  \"bench\": \"pr8_application_serving\",\n\
      \  \"conns\": 1000,\n\
      \  \"requests_per_conn\": 5,\n\
      \  \"payload_bytes\": 1024,\n\
      \  \"wire\": \"gigabit hub, clean\",\n\
      \  \"http\": %s,\n\
      \  \"echo\": %s\n\
       }\n"
      (row_json http) (row_json echo)
  | _ -> assert false);
  close_out oc;
  print_endline "\nwrote BENCH_pr8.json"

(* ------------------------------------------------------------------ *)
(* Sharded engine scaling: serve and soak across OCaml domains         *)
(* ------------------------------------------------------------------ *)

(* The PR 9 standing benchmark.  The 1k-connection serve workload runs
   at 1, 2, 4 and 8 shards — each shard a complete client/server world
   on its own domain, the fleet partitioned by connection — and the
   overload soak runs 10k connections across 4 shards.  Requests/second
   is total completed work over the slowest shard's virtual elapsed
   (the shards execute concurrently, so the slowest one is the critical
   path); wall seconds and the host's core count are reported alongside
   because virtual-time scaling only turns into wall-clock scaling when
   the machine actually has the cores. *)
let bench_shards () =
  section "Sharded engine: serve and soak scaling across domains";
  let module Load = Fox_check.Load in
  let module Soak = Fox_check.Soak in
  Printf.printf
    "http serving, 1000 clients x 5 exchanges x 1024B over the gigabit\n\
     hub, fleet partitioned across N engine shards (one domain each);\n\
     then a 10k-connection overload soak on 4 shards.  Host has %d\n\
     core(s).\n\n"
    (Domain.recommended_domain_count ());
  let base =
    {
      Load.default_config with
      Load.conns = 1000;
      requests = 5;
      payload = 1024;
      ramp_us = 0;
      gigabit = true;
    }
  in
  let serve_row shards =
    let r = Load.run { base with Load.shards } in
    Printf.printf
      "  shards %d: %4d/%-4d requests, %8.0f req/s, %6.0f conns/s \
       (%.3fs virtual, %.2fs wall)\n%!"
      shards r.Load.requests_ok r.Load.requests_attempted r.Load.reqs_per_sec
      (float_of_int r.Load.conns /. (float_of_int r.Load.elapsed_us /. 1e6))
      (float_of_int r.Load.elapsed_us /. 1e6)
      r.Load.wall_s;
    r
  in
  let rows = List.map serve_row [ 1; 2; 4; 8 ] in
  let soak_cfg =
    {
      Soak.default_config with
      Soak.conns = 10_000;
      bytes_per_conn = 512;
      shards = 4;
      (* scale run: overload comes from the SYN flood and queue
         contention; random loss recovery is the soak matrix's job *)
      loss = 0.0;
    }
  in
  let w0 = Unix.gettimeofday () in
  let soak = Soak.run soak_cfg in
  let soak_wall = Unix.gettimeofday () -. w0 in
  Printf.printf
    "\n  soak: %d/%d conns over %d shards, %d invariant faults, %d leaked \
     buffers (%.2fs wall)\n"
    soak.Soak.completed soak.Soak.conns soak_cfg.Soak.shards
    (List.length soak.Soak.invariant_faults)
    soak.Soak.leaked_packets soak_wall;
  let oc = open_out "BENCH_pr9.json" in
  let row_json (r : Load.result) =
    Printf.sprintf
      "{\"shards\": %d, \"requests_ok\": %d, \"requests_attempted\": %d, \
       \"conn_errors\": %d, \"reqs_per_sec\": %.1f, \"conns_per_sec\": \
       %.1f, \"p50_us\": %d, \"p99_us\": %d, \"virtual_s\": %.3f, \
       \"wall_s\": %.3f}"
      r.Load.shards r.Load.requests_ok r.Load.requests_attempted
      r.Load.conn_errors r.Load.reqs_per_sec
      (float_of_int r.Load.conns /. (float_of_int r.Load.elapsed_us /. 1e6))
      r.Load.p50_us r.Load.p99_us
      (float_of_int r.Load.elapsed_us /. 1e6)
      r.Load.wall_s
  in
  let speedup_vs_1 r =
    match rows with
    | r1 :: _ -> r.Load.reqs_per_sec /. r1.Load.reqs_per_sec
    | [] -> 1.0
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pr9_sharded_engine\",\n\
    \  \"host_cores\": %d,\n\
    \  \"serve\": {\n\
    \    \"workload\": \"http, 1000 conns x 5 requests x 1024B, gigabit \
     hub\",\n\
    \    \"metric\": \"requests_ok / max per-shard virtual elapsed\",\n\
    \    \"rows\": [\n      %s\n    ],\n\
    \    \"speedup\": {%s}\n\
    \  },\n\
    \  \"soak_10k\": {\"conns\": %d, \"shards\": %d, \"completed\": %d, \
     \"connect_failures\": %d, \"invariant_faults\": %d, \
     \"leaked_packets\": %d, \"flood_sent\": %d, \"wall_s\": %.3f, \
     \"fingerprint\": \"%s\"}\n\
     }\n"
    (Domain.recommended_domain_count ())
    (String.concat ",\n      " (List.map row_json rows))
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "\"x%d\": %.2f" r.Load.shards (speedup_vs_1 r))
          rows))
    soak.Soak.conns soak_cfg.Soak.shards soak.Soak.completed
    soak.Soak.connect_failures
    (List.length soak.Soak.invariant_faults)
    soak.Soak.leaked_packets soak.Soak.flood_sent soak_wall
    soak.Soak.fingerprint;
  close_out oc;
  print_endline "\nwrote BENCH_pr9.json"

let bench_chaos () =
  section "Chaos survival: path-failure matrix with unguarded teeth";
  let module Chaos = Fox_check.Chaos in
  Printf.printf
    "Deterministic fault plans against every congestion control: link\n\
     flaps, a path-MTU blackhole, a duplicate/corruption storm, and a\n\
     slow-loris siege.  The guarded matrix must survive; the same cells\n\
     with the defenses off must fail.\n\n";
  let w0 = Unix.gettimeofday () in
  let cells, teeth, problems = Chaos.check () in
  let wall = Unix.gettimeofday () -. w0 in
  List.iter (fun r -> Printf.printf "  %s\n" (Chaos.result_to_string r)) cells;
  List.iter
    (fun r -> Printf.printf "  teeth: %s\n" (Chaos.result_to_string r))
    teeth;
  Printf.printf "\n  %d problems, %.2fs wall\n"
    (List.length problems) wall;
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) problems;
  let cell_json (r : Chaos.result) =
    Printf.sprintf
      "{\"scenario\": \"%s\", \"cc\": \"%s\", \"guarded\": %b, \
       \"complete\": %b, \"delivered\": %d, \"expected\": %d, \
       \"virtual_s\": %.3f, \"retransmissions\": %d, \
       \"blackhole_shrinks\": %d, \
       \"rtx_limit_aborts\": %d, \"user_timeout_aborts\": %d, \
       \"persist_aborts\": %d, \"responses_408\": %d, \
       \"chaos_dropped\": %d, \"chaos_replayed\": %d, \
       \"chaos_duplicated\": %d, \"chaos_corrupted\": %d, \
       \"invariant_faults\": %d, \"leaked_packets\": %d, \
       \"fingerprint\": \"%s\"}"
      r.Chaos.scenario r.Chaos.cc r.Chaos.guarded r.Chaos.complete
      r.Chaos.delivered r.Chaos.expected
      (float_of_int r.Chaos.end_time /. 1e6)
      r.Chaos.retransmissions r.Chaos.blackhole_shrinks r.Chaos.rtx_limit_aborts
      r.Chaos.user_timeout_aborts r.Chaos.persist_aborts
      r.Chaos.responses_408 r.Chaos.chaos.Fox_dev.Link.chaos_dropped
      r.Chaos.chaos.Fox_dev.Link.chaos_replayed
      r.Chaos.chaos.Fox_dev.Link.chaos_duplicated
      r.Chaos.chaos.Fox_dev.Link.chaos_corrupted
      (List.length r.Chaos.invariant_faults)
      r.Chaos.leaked_packets (Chaos.fingerprint r)
  in
  let oc = open_out "BENCH_pr10.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"pr10_chaos_survival\",\n\
    \  \"matrix\": {\n\
    \    \"workload\": \"link_flap|mtu_blackhole|dup_storm 256KB \
     transfers, slowloris siege vs 16 legit clients; x \
     reno/newreno/cubic/bbr\",\n\
    \    \"contract\": \"complete, deterministic across two runs, 0 \
     invariant faults, 0 leaked buffers; blackhole cells shrink MSS; \
     slowloris cells count 408s\",\n\
    \    \"rows\": [\n      %s\n    ]\n\
    \  },\n\
    \  \"teeth\": {\n\
    \    \"contract\": \"same cells with the defenses off must NOT \
     complete\",\n\
    \    \"rows\": [\n      %s\n    ]\n\
    \  },\n\
    \  \"problems\": %d,\n\
    \  \"wall_s\": %.3f\n\
     }\n"
    (String.concat ",\n      " (List.map cell_json cells))
    (String.concat ",\n      " (List.map cell_json teeth))
    (List.length problems) wall;
  close_out oc;
  print_endline "\nwrote BENCH_pr10.json";
  if problems <> [] then exit 1

(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; "fastpath" |] -> ablation_fastpath ()
  | [| _; "soak" |] -> bench_soak ()
  | [| _; "table1" |] -> table1_headline ()
  | [| _; "serve" |] -> bench_serve ()
  | [| _; "shards" |] -> bench_shards ()
  | [| _; "chaos" |] -> bench_chaos ()
  | [| _ |] ->
    Printf.printf
      "Fox Net benchmark harness — reproduces the evaluation of\n\
       \"A Structured TCP in Standard ML\" (Biagioni, SIGCOMM '94).\n";
    microbenchmarks ();
    table1 ();
    table2 ();
    gc_experiment ();
    window_sweep ();
    ablation_control_structure ();
    ablation_checksums ();
    ablation_delayed_ack ();
    ablation_priority ();
    ablation_fastpath ();
    bench_soak ();
    bench_serve ();
    Printf.printf "\n%s\ndone.\n" line
  | _ ->
    prerr_endline "usage: main [fastpath|soak|table1|serve|shards|chaos]";
    exit 2
