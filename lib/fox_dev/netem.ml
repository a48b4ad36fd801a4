type t = {
  bandwidth_bps : int;
  propagation_us : int;
  reverse_propagation_us : int;
  loss : float;
  loss_burst : int;
  loss_burst_us : int;
  duplicate : float;
  reorder : float;
  reorder_jitter_us : int;
  corrupt : float;
  queue_frames : int;
  seed : int;
}

let perfect =
  {
    bandwidth_bps = 0;
    propagation_us = 0;
    reverse_propagation_us = 0;
    loss = 0.0;
    loss_burst = 1;
    loss_burst_us = 10_000;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_jitter_us = 0;
    corrupt = 0.0;
    queue_frames = 0;
    seed = 1;
  }

let ethernet_10mbps =
  { perfect with bandwidth_bps = 10_000_000; propagation_us = 50 }

let gigabit = { perfect with bandwidth_bps = 1_000_000_000; propagation_us = 10 }

let adverse ?(loss = 0.0) ?(loss_burst = 1) ?loss_burst_us ?(duplicate = 0.0)
    ?(reorder = 0.0) ?(corrupt = 0.0) ?queue_frames ?reverse_propagation_us
    ~seed base =
  {
    base with
    loss;
    loss_burst = Int.max 1 loss_burst;
    loss_burst_us =
      (match loss_burst_us with Some us -> us | None -> base.loss_burst_us);
    duplicate;
    reorder;
    corrupt;
    reorder_jitter_us =
      (if reorder > 0.0 && base.reorder_jitter_us = 0 then 2000
       else base.reorder_jitter_us);
    queue_frames =
      (match queue_frames with Some q -> q | None -> base.queue_frames);
    reverse_propagation_us =
      (match reverse_propagation_us with
      | Some p -> p
      | None -> base.reverse_propagation_us);
    seed;
  }

let tx_time_us t bytes =
  if t.bandwidth_bps = 0 then 0
  else
    (* bits * 1e6 / bps, rounded up so back-to-back frames serialise. *)
    ((bytes * 8 * 1_000_000) + t.bandwidth_bps - 1) / t.bandwidth_bps

let pp fmt t =
  Format.fprintf fmt
    "%d bps, %d%s us prop, loss=%.3f%s dup=%.3f reorder=%.3f corrupt=%.3f \
     queue=%s"
    t.bandwidth_bps t.propagation_us
    (if t.reverse_propagation_us > 0 then
       "/" ^ string_of_int t.reverse_propagation_us
     else "")
    t.loss
    (if t.loss_burst > 1 then Printf.sprintf " (burst %d)" t.loss_burst
     else "")
    t.duplicate t.reorder t.corrupt
    (if t.queue_frames = 0 then "inf" else string_of_int t.queue_frames)
