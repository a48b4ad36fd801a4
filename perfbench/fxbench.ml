(* The repository benchmark.

     fxbench --workload bulk|rpc|lossy --seed N --seconds S --trace 0|1

   [--trace 0] times the library build of the workload and prints the
   end-to-end metrics, the wall-clock ones scaled to a host of nominal
   speed by the reference kernel run around each unit (refkernel.ml);
   [--trace 1] runs the library build untraced (for the CPU, GC and
   copy-check reference) and then the span-shimmed copy of the same
   stack, and prints the per-layer metrics and this code's Table 2.  Every unit of work is checked; the last line of standard
   output is one JSON object, and any mismatch makes the exit code 1.
   perfbench/run.py builds this and is the command to run. *)

module Netem = Fox_dev.Netem
module W = Workloads

type workload = {
  lib : unit -> W.outcome;  (** one unit through the library's entry point *)
  copy : unit -> W.outcome;  (** the same unit on the shimmed copy *)
  setup : unit -> int;  (** ns to build one throwaway world *)
  rpc : bool;
  hosts : string * string;
}

(* Unit sizes: a bulk unit is 1200 seeded messages of 2 to 6 segments
   (about 8 MB, and enough samples that 12 lie above p99).  A lossy unit
   is four times longer, so that a unit sees about 200 losses and its
   virtual-time metrics vary little from seed to seed.  An rpc unit is
   1000 clients × 10 requests, 100 samples above p99.  The seed drives
   the inputs only (the payload pattern and message sizes, the netem's
   losses, Load's seed); the wire and the fleet are fixed. *)
let messages = 1200
let lossy_messages = 4 * messages
let clients = 1000
let requests = 10

let workload name seed =
  match name with
  | "bulk" | "lossy" ->
    let netem =
      if name = "bulk" then Netem.gigabit
      else Netem.adverse ~loss:0.005 ~reorder:0.1 ~seed Netem.gigabit
    in
    let plan =
      W.plan ~seed ~messages:(if name = "bulk" then messages else lossy_messages)
    in
    Some
      {
        lib = W.stream_lib netem plan;
        copy = W.stream_copy netem plan;
        setup = (fun () -> W.stream_setup_ns netem plan);
        rpc = false;
        hosts = ("sender", "receiver");
      }
  | "rpc" ->
    let cfg = W.rpc_config ~seed ~clients ~requests in
    Some
      {
        lib = W.rpc_lib cfg;
        copy = W.rpc_copy cfg;
        setup = W.rpc_setup_ns cfg;
        rpc = true;
        hosts = ("client", "server");
      }
  | _ -> None

let now_ns = Span.monotonic
let median = Span.median
let fi = float_of_int

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat ~seconds ~min f =
  let stop = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min && now_ns () >= stop then List.rev acc else go (f () :: acc) (n + 1)
  in
  go [] 0

(* ---- output ---- *)

let metrics : (string * float * string) list ref = ref []

let metric name unit value =
  let value = if Float.is_finite value then value else 0.0 in
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "  %-28s %16.6f %s\n" name value unit

let finish ~attempted ~failed ~problems =
  List.iter (Printf.printf "FAIL: %s\n") problems;
  let correct = failed = 0 && problems = [] in
  Printf.printf "fail_ratio %.6f (%d failed of %d attempted)\n"
    (fi failed /. fi (max 1 attempted))
    failed attempted;
  let body =
    List.rev_map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed (String.concat ", " body);
  exit (if correct then 0 else 1)

(* Every unit of one seed must repeat the same protocol run. *)
let repeats_reference ~rpc (reference : W.outcome) units =
  List.concat_map
    (fun (o : W.outcome) ->
      List.map (( ^ ) "unit differs from the first: ")
        (W.same_protocol_work ~rpc reference o))
    units
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* --trace 0: end to end                                               *)
(* ------------------------------------------------------------------ *)

(* Set-up samples are taken between units, so that they see the same
   machine as the units do: after each unit, throwaway worlds are built
   for about 2 % of the unit's time. *)
let setup_samples w (o : W.outcome) =
  let budget = o.run_ns / 50 in
  let rec go acc spent n =
    if n > 0 && (spent >= budget || n >= 200) then acc
    else
      let t = w.setup () in
      go (t :: acc) (spent + t) (n + 1)
  in
  go [] 0 0

(* ns one run of the reference kernel takes now *)
let yardstick () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (Refkernel.run ()));
  now_ns () - t0

(* The wall-clock metrics are scaled to a host of nominal speed: every
   unit, and the set-up samples after it, run between two runs of the
   reference kernel, and a rate is multiplied (a time divided) by
   [slow], the mean of those two kernel times over
   [Refkernel.nominal_ns] to the power [Refkernel.exponent], which is
   above 1 while the host is slower than nominal.  The host's speed moves within seconds, so the scaling
   is per unit, before the median. *)
type timed = { o : W.outcome; slow : float; setups : int list }

let end_to_end w ~seconds =
  let reference = w.lib () in
  (* the heap one unit needs from a cold start: read before the timed
     loop, whose number of units depends on the machine's speed *)
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  ignore (yardstick ());
  let before = ref (yardstick ()) in
  let timed =
    repeat ~seconds ~min:3 (fun () ->
        let o = w.lib () in
        let setups = setup_samples w o in
        let after = yardstick () in
        let slow = (fi (!before + after) /. 2.0 /. Refkernel.nominal_ns) ** Refkernel.exponent in
        before := after;
        { o; slow; setups })
  in
  let units = List.map (fun t -> t.o) timed in
  let all = reference :: units in
  let problems = repeats_reference ~rpc:w.rpc reference units in
  let scaled t = t.slow and unscaled _ = 1.0 in
  let per_unit f scale = median (List.map (fun t -> f t.o *. scale t) timed) in
  let goodput (o : W.outcome) = fi (o.payload * 8) /. fi o.run_ns *. 1e3 in
  let rate (o : W.outcome) = fi o.ops /. fi o.run_ns *. 1e9 in
  let setup scale =
    median (List.concat_map (fun t -> List.map (fun s -> fi s /. scale t) t.setups) timed)
    /. 1e9
  in
  Printf.printf "%d timed units after one warm-up; latency samples %d per unit\n"
    (List.length units) reference.samples;
  Printf.printf
    "reference kernel: median %.2f ms around a unit, %.2f ms nominal; wall-clock \
     metrics scaled to the nominal host\n"
    (median (List.map (fun t -> t.slow ** (1.0 /. Refkernel.exponent)) timed)
     *. Refkernel.nominal_ns /. 1e6)
    (Refkernel.nominal_ns /. 1e6);
  metric "setup_s" "s" (setup scaled);
  metric "goodput_mbps" "Mb/s" (per_unit goodput scaled);
  metric "req_per_s" "req/s" (per_unit rate scaled);
  metric "peak_heap_mb" "MB" (fi (peak_words * 8) /. 1048576.0);
  metric "sim_goodput_mbps" "Mb/s" (fi (reference.payload * 8) /. fi reference.sim_us);
  (* The virtual latency percentiles are printed but left out of the
     JSON result: on the clean wire they are the same for every seed
     (rpc's run depends on nothing the seed drives, and bulk's segment
     clock fixes its message latencies), so across a set of seeded runs
     they would read as a time that never moves.  The copy check and
     the repeat check still compare them. *)
  let shown name unit value =
    Printf.printf "  %-28s %16.6f %s (printed only)\n" name value unit
  in
  shown "sim_p50_ms" "ms" (fi reference.p50_us /. 1e3);
  shown "sim_p99_ms" "ms" (fi reference.p99_us /. 1e3);
  shown "setup_s.unscaled" "s" (setup unscaled);
  shown "goodput_mbps.unscaled" "Mb/s" (per_unit goodput unscaled);
  shown "req_per_s.unscaled" "req/s" (per_unit rate unscaled);
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 all in
  finish
    ~attempted:(sum (fun o -> o.W.ops))
    ~failed:(sum (fun o -> o.W.failed))
    ~problems

(* ------------------------------------------------------------------ *)
(* --trace 1: per layer                                                *)
(* ------------------------------------------------------------------ *)

type lib_sample = {
  o : W.outcome;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  gc_ns : int;
  touched : int;  (** bytes copied + checksummed + fused *)
}

let touched () =
  !Fox_basis.Packet.bytes_copied + !Fox_basis.Checksum.bytes_summed
  + !Fox_basis.Copy.bytes_fused

(* The GC counters are read inside the event-ring polls, whose own
   allocation depends on how many events there were. *)
let sample_lib w () =
  Gcprobe.poll ();
  let gc0 = !Gcprobe.gc_ns in
  let s0 = Gc.quick_stat () in
  let b0 = touched () in
  let o = w.lib () in
  let b1 = touched () in
  let s1 = Gc.quick_stat () in
  Gcprobe.poll ();
  {
    o;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    gc_ns = !Gcprobe.gc_ns - gc0;
    touched = b1 - b0;
  }

type traced_sample = { t : W.outcome; totals : Span.totals; t_gc_ns : int }

let paper_table2 =
  [
    ("TCP", 29.0, 27.5);
    ("IP", 7.8, 9.7);
    ("eth, Mach interf.", 11.2, 11.9);
    ("copy", 10.5, 6.3);
    ("checksum", 5.1, 5.6);
    ("Mach send", 7.5, 6.0);
    ("packet wait", 15.8, 9.3);
    ("g. c.", 3.4, 5.0);
    ("misc.", 4.7, 7.3);
    ("counters (est.)", 5.2, 5.4);
  ]

let print_table2 w ~wall ~self ~sched ~probe ~gc =
  let h0, h1 = w.hosts in
  let pct x = 100.0 *. x /. wall in
  Printf.printf
    "\nTable 2, measured: self time in this code as %% of the traced wall\n\
     time (one process runs both hosts; sched and gc are not split by host,\n\
     and gc overlaps the layer it interrupted)\n";
  Printf.printf "  %-18s %9s %9s %9s\n" "layer" h0 h1 "both";
  Array.iteri
    (fun l name ->
      let s h = self.(Span.slot_of h l) in
      Printf.printf "  %-18s %9.1f %9.1f %9.1f\n" name (pct (s 0)) (pct (s 1))
        (pct (s 0 +. s 1)))
    Span.layer_names;
  Printf.printf "  %-18s %9s %9s %9.1f\n" "sched" "" "" (pct sched);
  Printf.printf "  %-18s %9s %9s %9.1f\n" "counters (est.)" "" "" (pct probe);
  Printf.printf "  %-18s %9s %9s %9.1f\n" "gc (overlapping)" "" "" (pct gc);
  let _, fitted_s, fitted_r = Fox_stack.Experiments.table2 () in
  W.forget_worlds ();
  let find l name =
    match List.find_opt (fun (n, _, _) -> n = name) l with
    | Some (_, p, _) -> p
    | None -> 0.0
  in
  Printf.printf
    "\nTable 2 of the paper (DECstation 5000/125, measured) beside the\n\
     Cost_model table (fitted, not measured: virtual-time charges\n\
     calibrated to the paper), %% of each host's busy time\n";
  Printf.printf "  %-18s %9s %9s %11s %11s\n" "component" "paper S" "paper R"
    "fitted S" "fitted R";
  List.iter
    (fun (name, ps, pr) ->
      Printf.printf "  %-18s %9.1f %9.1f %11.1f %11.1f\n" name ps pr
        (find fitted_s name) (find fitted_r name))
    paper_table2

let per_layer w ~name ~seconds =
  Gcprobe.start ();
  let reference = w.lib () in
  let probe = Span.calibrate () in
  let libs = repeat ~seconds:(seconds /. 2.0) ~min:3 (sample_lib w) in
  (* each traced unit follows an untraced unit of the same copy, the
     baseline of trace.overhead_pct *)
  let pairs =
    repeat ~seconds:(seconds /. 2.0) ~min:2 (fun () ->
        let bare = w.copy () in
        Span.on := true;
        let t, t_gc_ns = Gcprobe.measure w.copy in
        Span.on := false;
        (bare, { t; totals = Span.totals probe; t_gc_ns }))
  in
  let bare = List.map fst pairs and traced = List.map snd pairs in
  (try
     if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
     Span.write_log (Printf.sprintf "_perfbench/spans-%s.tsv" name)
   with Sys_error e -> Printf.printf "span log not written: %s\n" e);
  let problems =
    repeats_reference ~rpc:w.rpc reference (List.map (fun s -> s.o) libs)
    @ List.concat_map
        (fun o -> List.map (( ^ ) "copy check: ") (W.same_protocol_work ~rpc:w.rpc reference o))
        (bare @ List.map (fun s -> s.t) traced)
    @ List.concat_map
        (fun s ->
          if s.totals.Span.raw_sum <> s.t.W.run_ns then
            [ Printf.sprintf "spans cover %d of %d ns" s.totals.Span.raw_sum s.t.W.run_ns ]
          else [])
        traced
    |> List.sort_uniq compare
  in
  let tsum f = List.fold_left (fun acc s -> acc +. f s) 0.0 traced in
  let wall = tsum (fun s -> fi s.t.W.run_ns) in
  let segs = tsum (fun s -> fi s.t.W.segs) in
  let ops = tsum (fun s -> fi s.t.W.ops) in
  let k = Span.n_hosts * Span.n_layers in
  let self = Array.init k (fun i -> tsum (fun s -> s.totals.Span.self.(i))) in
  let layer l = self.(Span.slot_of 0 l) +. self.(Span.slot_of 1 l) in
  let sched = tsum (fun s -> s.totals.Span.sched) in
  let probe_ns = tsum (fun s -> s.totals.Span.probe) in
  let hop_ns = tsum (fun s -> s.totals.Span.hop) in
  let hops = tsum (fun s -> fi s.totals.Span.hops) in
  let gc_traced = tsum (fun s -> fi s.t_gc_ns) in
  let spans = tsum (fun s -> fi (Array.fold_left ( + ) 0 s.totals.Span.spans)) in
  let units = fi (List.length traced) in
  Printf.printf
    "%d library, %d untraced copy and %d traced units; per traced unit %.0f \
     segments, %.0f spans, %.0f intercepted effects\n"
    (List.length libs) (List.length bare) (List.length traced) (segs /. units)
    (spans /. units) (hops /. units);
  Printf.printf
    "probe calibration: nested span %.1f + %.1f ns, root span %.1f + %.1f ns, \
     effect hop %.1f + %.1f ns\n"
    probe.Span.nested_self_ns probe.Span.nested_parent_ns probe.Span.root_self_ns
    probe.Span.root_parent_ns probe.Span.effect_self_ns probe.Span.effect_sched_ns;
  Array.iteri
    (fun l name ->
      metric (name ^ ".self_ns_per_seg") "ns/seg" (layer l /. segs);
      metric (name ^ ".self_pct") "%" (100.0 *. layer l /. wall))
    Span.layer_names;
  metric "sched.self_ns_per_seg" "ns/seg" (sched /. segs);
  metric "sched.self_pct" "%" (100.0 *. sched /. wall);
  metric "gc.pct" "%" (100.0 *. gc_traced /. wall);
  (* counts repeat exactly from unit to unit: the first traced one *)
  let t = (List.hd traced).t in
  let ratio a b = fi a /. fi (max 1 b) in
  (* segments reaching either engine, data and pure ACKs alike: both
     are header-predicted *)
  metric "tcp.fast_path_ratio" "ratio" (ratio t.W.fast_hits t.W.segs_in);
  metric "tcp.rtx_per_kseg" "1/kseg" (1000.0 *. ratio t.W.rtx t.W.segs);
  metric "link.drop_ratio" "ratio" (ratio t.W.dropped t.W.frames);
  metric "link.queue_drops" "count" (fi t.W.queue_drops);
  metric "tcp.segs_per_req" "seg/req" (segs /. ops);
  metric "app.self_ns_per_req" "ns/req" (layer Span.app /. ops);
  let runs = Option.get t.W.sched in
  metric "sched.forks_per_seg" "1/seg" (ratio runs.Fox_sched.Scheduler.forks t.W.segs);
  metric "sched.switches_per_seg" "1/seg"
    (ratio runs.Fox_sched.Scheduler.switches t.W.segs);
  metric "sched.sleeps_per_seg" "1/seg" (ratio runs.Fox_sched.Scheduler.sleeps t.W.segs);
  let lmed f = median (List.map (fun s -> f s /. fi s.o.W.segs) libs) in
  metric "gc.words_per_seg" "words/seg" (lmed (fun s -> s.minor_words));
  metric "gc.promoted_words_per_seg" "words/seg" (lmed (fun s -> s.promoted_words));
  metric "gc.minor_per_kseg" "1/kseg" (1000.0 *. lmed (fun s -> fi s.minor_gcs));
  metric "gc.major_count" "count" (median (List.map (fun s -> fi s.major_gcs) libs));
  metric "gc.ns_per_seg" "ns/seg" (lmed (fun s -> fi s.gc_ns));
  metric "basis.touch_per_byte" "bytes/byte"
    (median (List.map (fun s -> fi s.touched /. fi s.o.W.payload) libs));
  metric "total.cpu_ns_per_seg" "ns/seg" (lmed (fun s -> fi s.o.W.cpu_ns));
  metric "total.cpu_us_per_req" "us/req"
    (median (List.map (fun s -> fi s.o.W.cpu_ns /. fi s.o.W.ops /. 1e3) libs));
  metric "trace.ns_per_span" "ns" (probe_ns /. spans);
  metric "trace.probe_pct" "%" (100.0 *. (probe_ns +. hop_ns) /. wall);
  metric "trace.overhead_pct" "%"
    (100.0
    *. (median (List.map (fun s -> fi s.t.W.run_ns) traced)
        /. median (List.map (fun o -> fi o.W.run_ns) bare)
       -. 1.0));
  Printf.printf
    "accounting: layers %.0f + sched %.0f + spans %.0f + effect hops %.0f = %.0f \
     ns of %.0f ns traced\n"
    (Array.fold_left ( +. ) 0.0 self) sched probe_ns hop_ns
    (Array.fold_left ( +. ) 0.0 self +. sched +. probe_ns +. hop_ns) wall;
  if !Gcprobe.lost > 0 then
    Printf.printf "runtime_events lost %d events: gc.* undercounts\n" !Gcprobe.lost;
  print_table2 w ~wall ~self ~sched ~probe:(probe_ns +. hop_ns) ~gc:gc_traced;
  let all =
    (reference :: List.map (fun s -> s.o) libs) @ bare @ List.map (fun s -> s.t) traced
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 all in
  finish
    ~attempted:(sum (fun o -> o.W.ops))
    ~failed:(sum (fun o -> o.W.failed))
    ~problems

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "bulk|rpc|lossy");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fxbench --workload bulk|rpc|lossy --seed N --seconds S --trace 0|1";
  match workload !name !seed with
  | None ->
    prerr_endline ("unknown workload " ^ !name);
    exit 2
  | Some w ->
    Printf.printf "workload %s, seed %d, OCaml %s, trace %d\n" !name !seed
      Sys.ocaml_version !trace;
    if !trace = 0 then end_to_end w ~seconds:!seconds
    else per_layer w ~name:!name ~seconds:!seconds
