type t = {
  mutable free_at : int;
  scale : float;
  counters : Fox_basis.Counters.t;
}

let create ?(scale = 1.0) counters = { free_at = 0; scale; counters }

let scaled t cost = int_of_float (Float.round (float_of_int cost *. t.scale))

let occupy t cost =
  let now = Scheduler.now () in
  let start = Int.max now t.free_at in
  t.free_at <- start + cost;
  t.free_at - now

let charge t name cost_us =
  let cost = scaled t cost_us in
  Fox_basis.Counters.add t.counters name cost;
  let delay = occupy t cost in
  if delay > 0 then Scheduler.sleep delay

let charge_async t name cost_us =
  let cost = scaled t cost_us in
  Fox_basis.Counters.add t.counters name cost;
  ignore (occupy t cost)
