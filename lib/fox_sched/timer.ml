(* The paper's Figure-11 timer interface, backed by the hierarchical
   timing wheel.  Figure 11 forks one sleeping thread per timer and
   clears it by setting a boolean; the wheel keeps the same
   start/clear/cleared contract with O(1) arm and clear and one shared
   alarm sleeper, at the price of firing up to one wheel grain (~1 ms
   virtual) late.  A timer that is restarted over and over (TCP's) is
   created once and re-armed in place with [set].  The threaded
   original is kept as a paper exhibit next to the benchmarks
   (bench/fig11.ml). *)

type t = Wheel.entry

let start handler us = Wheel.schedule handler us

let create = Wheel.create

let set = Wheel.set

let set_at = Wheel.set_at

let clear = Wheel.cancel

let cleared = Wheel.cancelled

let armed = Wheel.armed
