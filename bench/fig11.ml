(* Figure 11 of the paper, the timers as published: every timer is a
   thread that sleeps and then calls its handler unless an updatable
   boolean was set in the meantime.  Each armed timer is one scheduler
   sleeper, so it fires exactly on time but costs a heap entry per timer,
   even once cleared.  The stack's timers ({!Fox_sched.Timer}) keep this
   interface over the hierarchical wheel; this copy stays as the paper
   exhibit the benchmarks and tests compare against. *)

module Scheduler = Fox_sched.Scheduler

type t = bool ref

let start handler us =
  let cleared = ref false in
  Scheduler.fork (fun () ->
      Scheduler.sleep us;
      if not !cleared then handler ());
  cleared

let clear t = t := true

let cleared t = !t
