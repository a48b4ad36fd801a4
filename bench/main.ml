(* The benchmark harness: regenerates the measurements of the paper's
   evaluation (Section 5), and nothing else.

   - Bechamel microbenchmarks measure the real OCaml code on this machine
     (the paper's inline numbers: checksum and copy rates, scheduler and
     timer costs, counter overhead), one Test.make per measurement,
     grouped per table/figure.
   - The Table 1 and Table 2 sections run the paper's transfer benchmark
     on the simulated 10 Mb/s Ethernet under the DECstation cost models
     and print rows in the paper's format, with the paper's numbers
     alongside; Table 1 writes BENCH_table1.json.
   - The GC section reproduces the "runs of over 5 MB" observation.
   - The ablation section quantifies the design choices DESIGN.md calls
     out: quasi-synchronous engine vs monolithic baseline (wall-clock CPU
     of the real implementations), delayed acknowledgements, the
     priority to_do queue and header prediction (BENCH_pr4.json).  The
     checksum algorithm's cost is inline-1's rows.

   Every transfer is [Experiments.Run.transfer], the same Section 5 loop
   that [foxnet table1] and the tests run.  Usage: [main.exe] runs all of
   the above; [main.exe table1] and [main.exe fastpath] run one section.
   Serving, overload, chaos and multicore numbers come from [foxnet
   serve], [foxnet soak], [foxnet chaos] and perfbench, not from here. *)

open Bechamel
open Toolkit
open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Experiments = Fox_stack.Experiments
module Network = Fox_stack.Network
module Cost_model = Fox_stack.Cost_model

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

(* A timer implementation under the two loads a busy TCP puts on it:
   churn (every segment restarts the retransmission timer: start + clear)
   and mass expiry (every parked TIME-WAIT and delayed-ACK deadline
   firing).  Under Figure 11 ([Fig11]) each armed timer is its own
   sleeping thread, so even a cleared timer costs a wakeup at its
   deadline, inside the run; the wheel behind [Fox_sched.Timer] shares
   one sleeper across all of them. *)
let timer_churn name start clear =
  Test.make ~name:("1000x-" ^ name ^ "-start+clear")
    (Staged.stage (fun () ->
         Scheduler.run (fun () ->
             for _ = 1 to 1000 do
               clear (start ignore 50)
             done)))

let timer_expiry name start =
  Test.make ~name:("1000x-" ^ name ^ "-start+fire")
    (Staged.stage (fun () ->
         Scheduler.run (fun () ->
             for i = 1 to 1000 do
               ignore (start ignore (50 + i))
             done)))

(* The paper's 30 us "create a thread, terminate the current thread, and
   switch to the new thread", amortised over 1000 operations in one
   scheduler run; timed work due 1 us ahead, as a [call_at] body and as
   a thread (fork, now, sleep); both timer implementations; and the
   1.2 us empty call for scale. *)
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
      Test.make ~name:"1000x-call_at+1us"
        (Staged.stage (fun () ->
             Scheduler.run (fun () ->
                 let due = Scheduler.now () + 1 in
                 for _ = 1 to 1000 do
                   Scheduler.call_at due ignore
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
      timer_churn "timer" Fox_sched.Timer.start Fox_sched.Timer.clear;
      timer_churn "fig11" Fig11.start Fig11.clear;
      timer_expiry "timer" Fox_sched.Timer.start;
      timer_expiry "fig11" Fig11.start;
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
  print_group counter_tests

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
    (float_of_int base_tp.elapsed_us /. 1e6);
  (* The standing headline: virtual time only, so the file is the same
     on every machine and compiler. *)
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
    \  }\n\
     }\n"
    fox_tp.throughput_mbps
    (float_of_int fox_tp.elapsed_us /. 1e6)
    fox_tp.sender_segments fox_tp.retransmissions base_tp.throughput_mbps;
  close_out oc;
  print_endline "\nwrote BENCH_table1.json"

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
    Experiments.Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes ()
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

let default = Fox_tcp.Tcb.default_params

(* One structured TCP configuration: [params] applied as its own
   [Tcp.Make] — each configuration is a functor application, as in
   Figure 4 — on a fresh pair of bare hosts, then one Section 5
   transfer. *)
let transfer_with ?app_us ?cost ?netem params ~bytes =
  let module T =
    Fox_tcp.Tcp.Make (Fox_stack.Stack.Metered_ip)
      (Fox_stack.Stack.Metered_ip_aux) (Fox_tcp.Congestion.Reno)
      (struct
        let params = params
      end)
  in
  let module R = Experiments.Run (T) in
  let _, a, b = Network.pair ~engine:Network.Bare ?cost ?netem () in
  R.transfer ?app_us
    (fun h -> T.create h.Network.metered_ip)
    ~sender:a ~receiver:b ~bytes ()

let ablation_control_structure () =
  section "Ablation A: control structure (quasi-synchronous vs direct calls)";
  Printf.printf
    "Real CPU seconds this machine spends simulating a 4 MB transfer on a\n\
     gigabit wire (no cost model): the engines' own bookkeeping, plus the\n\
     sender's block write of each payload, which is the same for both.\n\n";
  let bytes = 4_000_000 in
  let row label engine transfer =
    let _, sender, receiver =
      Network.pair ~engine ~netem:Fox_dev.Netem.gigabit ()
    in
    let cpu0 = Sys.time () in
    let r : Experiments.transfer_result = transfer ~sender ~receiver in
    let cpu_s = Sys.time () -. cpu0 in
    Printf.printf "  %-28s %8.3f s CPU   (virtual: %8.1f ms)\n" label cpu_s
      (float_of_int r.elapsed_us /. 1000.);
    cpu_s
  in
  let fox =
    row "structured (to_do queue)" Network.Fox (fun ~sender ~receiver ->
        Experiments.Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes
          ())
  in
  let base =
    row "monolithic (direct calls)" Network.Baseline (fun ~sender ~receiver ->
        Experiments.Baseline_run.transfer Network.baseline_tcp ~sender
          ~receiver ~bytes ())
  in
  Printf.printf
    "\n  structured/monolithic CPU ratio: %.2f (the engine-side price of the\n\
     paper's deterministic quasi-synchronous design, on this machine)\n"
    (fox /. base)

let ablation_delayed_ack () =
  section "Ablation C: delayed acknowledgements";
  Printf.printf
    "1 MB transfer on the 10 Mb/s wire (no cost model): delayed ACKs halve\n\
     the reverse traffic at the price of occasional 200 ms holdoffs.\n\n";
  List.iter
    (fun (label, params) ->
      let r = transfer_with params ~bytes:1_000_000 in
      Printf.printf "  %-26s elapsed %8.1f ms   receiver segments %6d\n" label
        (float_of_int r.Experiments.elapsed_us /. 1000.)
        r.Experiments.receiver_segments)
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
      let mbps =
        float_of_int (bytes * 8) /. float_of_int r.Experiments.elapsed_us
      in
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
        (float_of_int r.Experiments.elapsed_us /. 1e6))
    [
      ("FIFO to_do queue", default);
      ("priority to_do queue", { default with prioritize_latency = true });
    ]

(* ------------------------------------------------------------------ *)
(* Fast-path ablation: header prediction on the fused datapath         *)
(* ------------------------------------------------------------------ *)

(* One 2 MB transfer on a gigabit wire, with or without header
   prediction: touches/byte, minor words per sender segment, and sender
   segments.  touches/byte is the "touch the data once" meter: payload
   bytes traversed by copies, checksum passes and fused copy-and-checksum
   passes (Packet.bytes_copied, Checksum.bytes_summed, Copy.bytes_fused,
   all global, so the run brackets them) per byte transferred. *)
let fastpath_row prediction =
  let bytes = 2_000_000 in
  let touched () =
    !Packet.bytes_copied + !Checksum.bytes_summed + !Copy.bytes_fused
  in
  let t0 = touched () and g0 = Gc.minor_words () in
  let r =
    transfer_with ~netem:Fox_dev.Netem.gigabit
      { default with header_prediction = prediction }
      ~bytes
  in
  let segs = r.Experiments.sender_segments in
  ( float_of_int (touched () - t0) /. float_of_int bytes,
    (Gc.minor_words () -. g0) /. float_of_int segs,
    segs )

let ablation_fastpath () =
  section "Ablation E: header prediction on the fused copy-and-checksum path";
  Printf.printf
    "2 MB transfer on a gigabit wire (no cost model).  touches/byte counts\n\
     every metered traversal of payload bytes (copies, checksum passes,\n\
     fused copy-and-checksum passes) per byte delivered; words/seg is minor\n\
     heap allocation per sender segment.\n\n";
  (* one untimed warm-up transfer, so the first measured row does not pay
     for a cold heap and buffer pool *)
  ignore (fastpath_row false);
  let rows = List.map (fun p -> (p, fastpath_row p)) [ false; true ] in
  Printf.printf "  %-18s %14s %14s %8s\n" "header prediction" "touches/byte"
    "words/seg" "segs";
  List.iter
    (fun (p, (touch, words, segs)) ->
      Printf.printf "  %-18s %14.3f %14.1f %8d\n"
        (if p then "on" else "off")
        touch words segs)
    rows;
  let oc = open_out "BENCH_pr4.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"pr4_zero_copy_fastpath\",\n  \"bytes\": 2000000,\n\
    \  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (p, (touch, words, segs)) ->
            Printf.sprintf
              "    {\"prediction\": %b, \"touches_per_byte\": %.4f, \
               \"minor_words_per_segment\": %.1f, \"segments\": %d}"
              p touch words segs)
          rows));
  close_out oc;
  print_endline "\nwrote BENCH_pr4.json"

(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; "fastpath" |] -> ablation_fastpath ()
  | [| _; "table1" |] -> table1 ()
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
    ablation_delayed_ack ();
    ablation_priority ();
    ablation_fastpath ();
    Printf.printf "\n%s\ndone.\n" line
  | _ ->
    prerr_endline "usage: main [fastpath|table1]";
    exit 2
