(* The paper's throughput benchmark as an application: a receiver requests
   N bytes, the sender streams them, and TCP's flow control regulates the
   rate.

     dune exec examples/file_transfer.exe -- --bytes 1000000 --loss 0.02
     dune exec examples/file_transfer.exe -- --decstation   # paper's Table 1 row

   Options select the transfer size, link impairments, and whether to run
   under the DECstation cost model. *)


module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Experiments = Fox_stack.Experiments
module Netem = Fox_dev.Netem

let run bytes loss seed decstation baseline =
  let netem =
    if loss > 0.0 then Netem.adverse ~loss ~seed Netem.ethernet_10mbps
    else Netem.ethernet_10mbps
  in
  let engine = if baseline then Network.Baseline else Network.Fox in
  let cost =
    if decstation then
      Some (if baseline then Fox_stack.Cost_model.xkernel else Fox_stack.Cost_model.fox)
    else None
  in
  let _, sender, receiver = Network.pair ~engine ?cost ~netem () in
  Printf.printf "engine: %s   wire: %s%s\n"
    (if baseline then "monolithic baseline" else "structured fox")
    (Format.asprintf "%a" Netem.pp netem)
    (if decstation then "   (DECstation cost model)" else "");
  let result =
    if baseline then
      Experiments.Baseline_run.transfer Network.baseline_tcp ~sender
        ~receiver ~bytes ()
    else
      Experiments.Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes ()
  in
  let open Experiments in
  Printf.printf "transferred %d bytes in %.3f s (virtual): %.3f Mb/s\n"
    result.bytes
    (float_of_int result.elapsed_us /. 1e6)
    result.throughput_mbps;
  Printf.printf "sender segments: %d   retransmissions: %d\n"
    result.sender_segments result.retransmissions;
  Printf.printf "scheduler: %d switches, %d threads\n"
    result.sched.Scheduler.switches result.sched.Scheduler.forks;
  if decstation then begin
    Printf.printf "\nsender profile (us):\n";
    List.iter
      (fun (name, us, _) -> Printf.printf "  %-20s %10d\n" name us)
      result.sender_profile
  end

open Cmdliner

let bytes =
  Arg.(value & opt int 1_000_000 & info [ "bytes"; "b" ] ~doc:"Bytes to transfer.")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Frame loss probability.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Impairment PRNG seed.")

let decstation =
  Arg.(
    value & flag
    & info [ "decstation" ]
        ~doc:"Charge the DECstation 5000/125 cost model (Table 1 conditions).")

let baseline =
  Arg.(
    value & flag
    & info [ "baseline" ] ~doc:"Use the monolithic x-kernel-style engine.")

let cmd =
  Cmd.v
    (Cmd.info "file_transfer" ~doc:"The paper's one-way throughput benchmark")
    Term.(const run $ bytes $ loss $ seed $ decstation $ baseline)

let () = exit (Cmd.eval cmd)
