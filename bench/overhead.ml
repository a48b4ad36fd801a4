(* Measures what the observation seams cost: the same 1 MB transfer on
   the simulated network under each configuration of the executor's two
   observers —

   - check hook empty, bus off (the production configuration: two ref
     reads per drained action);
   - flight-recorder bus on (every layer emitting typed events);
   - [Fox_check.Tcb_invariants] installed, validating the full TCB after
     every executed action as the tests do —

   plus a microbenchmark of one disabled event site (read [!Bus.live],
   branch, skip), which is the whole per-event cost of a compiled-in but
   dormant flight recorder.

     dune exec bench/overhead.exe

   Prints per-transfer CPU time for every configuration and writes the
   figures to BENCH_pr3.json.  Results go into EXPERIMENTS.md. *)

module Experiments = Fox_stack.Experiments
module Network = Fox_stack.Network
module Tcb_invariants = Fox_check.Tcb_invariants
module Bus = Fox_obs.Bus

let bytes = 1_000_000

let reps = 20

let run_once () =
  let _, sender, receiver = Network.pair ~engine:Network.Fox () in
  ignore
    (Experiments.Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes ())

(* CPU seconds for [reps] transfers, after one warmup *)
let measure () =
  run_once ();
  let t0 = Sys.time () in
  for _ = 1 to reps do
    run_once ()
  done;
  (Sys.time () -. t0) /. float_of_int reps

(* One dormant event site: read the flag, branch.  [opaque_identity]
   keeps the ref read from being hoisted or folded away. *)
let disabled_site_ns () =
  let iters = 50_000_000 in
  let hits = ref 0 in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    if !(Sys.opaque_identity Bus.live) then incr hits
  done;
  let per = (Sys.time () -. t0) /. float_of_int iters *. 1e9 in
  ignore (Sys.opaque_identity !hits);
  per

let () =
  Bus.disable ();
  let off = measure () in
  Bus.enable ();
  Bus.reset ();
  run_once ();
  let events_per_transfer = Bus.emitted () in
  let bus_on = Fun.protect ~finally:Bus.disable measure in
  Tcb_invariants.checks_performed := 0;
  Tcb_invariants.install ();
  let inv_on = Fun.protect ~finally:Tcb_invariants.uninstall measure in
  let checks = !Tcb_invariants.checks_performed / (reps + 1) in
  let site_ns = disabled_site_ns () in
  Printf.printf "1 MB transfer, %d reps (CPU time per transfer):\n" reps;
  Printf.printf "  bus off, hook empty:      %8.2f ms\n" (off *. 1e3);
  Printf.printf "  flight recorder on:       %8.2f ms   (%d events/transfer)\n"
    (bus_on *. 1e3) events_per_transfer;
  Printf.printf "  invariants installed:     %8.2f ms   (%d checks/transfer)\n"
    (inv_on *. 1e3) checks;
  Printf.printf "  bus overhead:             %8.1f %%\n"
    (100.0 *. ((bus_on /. off) -. 1.0));
  Printf.printf "  invariant overhead:       %8.1f %%\n"
    (100.0 *. ((inv_on /. off) -. 1.0));
  Printf.printf "  disabled event site:      %8.2f ns (one ref read + branch)\n"
    site_ns;
  let oc = open_out "BENCH_pr3.json" in
  Printf.fprintf oc
    {|{
  "bench": "pr3_observability_overhead",
  "bytes": %d,
  "reps": %d,
  "transfer_ms": {
    "bus_off": %.3f,
    "bus_on": %.3f,
    "invariants_on": %.3f
  },
  "bus_overhead_percent": %.2f,
  "invariant_overhead_percent": %.2f,
  "events_per_transfer": %d,
  "invariant_checks_per_transfer": %d,
  "disabled_site_ns": %.3f
}
|}
    bytes reps (off *. 1e3) (bus_on *. 1e3) (inv_on *. 1e3)
    (100.0 *. ((bus_on /. off) -. 1.0))
    (100.0 *. ((inv_on /. off) -. 1.0))
    events_per_transfer checks site_ns;
  close_out oc;
  print_endline "wrote BENCH_pr3.json"
