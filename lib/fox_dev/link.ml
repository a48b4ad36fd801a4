open Fox_basis

type port = {
  transmit : Packet.t -> unit;
  set_receive : (Packet.t -> unit) -> unit;
}

type stats = {
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  unclaimed : int;
  queue_drops : int;
}

type port_state = {
  mutable receive : (Packet.t -> unit) option;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable rx_frames : int;
  mutable rx_bytes : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable unclaimed : int;
  mutable queue_drops : int;
}

type chaos_stats = {
  chaos_dropped : int;
  chaos_held : int;
  chaos_replayed : int;
  chaos_duplicated : int;
  chaos_corrupted : int;
}

(* A frame on its way to a port.  [run] is built once per record and
   hands the frame over, putting the record back on its link's [spare]
   ring first: once the ring covers the frames in flight, a delivery
   allocates nothing. *)
type delivery = {
  mutable dst : int;
  mutable frame : Packet.t;
  mutable run : unit -> unit;
}

let no_delivery = { dst = 0; frame = Packet.placeholder; run = ignore }

type t = {
  netem : Netem.t;
  rng : Rng.t;
  ports : port_state array;
  (* per source port, the ports its frames reach: every other port on a
     hub, the far end of a point-to-point link *)
  destinations : int list array;
  spare : delivery Ring.t;
  shared_medium : bool;
  (* virtual time at which each transmit direction is free; a hub has a
     single shared medium, a point-to-point link one per direction *)
  mutable medium_free_at : int array;
  (* per medium, the departure (start-of-serialisation) times of the
     frames queued behind it, oldest first; those still after [now] are
     the frames waiting for the finite egress queue.  Kept only when the
     queue is finite *)
  departures : int Ring.t array;
  (* remaining frames of a loss burst still to drop (loss_burst > 1) *)
  mutable burst_left : int;
  (* virtual time the live burst expires: a burst is an episode (a fade,
     an overrun), so frames sent after this are not part of it *)
  mutable burst_until : int;
  (* --- chaos controls, mutated mid-run by the chaos orchestrator.
     Chaos decisions never consult [rng]: the base netem stream must be
     identical whether or not a chaos plan is installed, so every chaos
     effect is either a pure state check (down, blackhole) or a
     deterministic every-Nth-frame counter (storms). *)
  mutable up : bool;
  mutable down_policy : [ `Drop | `Hold ];
  (* frames queued behind a downed interface (Hold policy), newest
     first; replayed through [transmit] in arrival order on bring-up *)
  mutable held : (int * Packet.t) list;
  mutable held_len : int;
  (* 0 = off; frames strictly longer than this vanish without trace —
     the classic PMTUD blackhole *)
  mutable blackhole_over : int;
  mutable dup_every : int;
  mutable corrupt_every : int;
  mutable chaos_frames : int;
  mutable chaos_dropped : int;
  mutable chaos_replayed : int;
  mutable chaos_duplicated : int;
  mutable chaos_corrupted : int;
}

let new_port_state () =
  {
    receive = None;
    tx_frames = 0;
    tx_bytes = 0;
    rx_frames = 0;
    rx_bytes = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    unclaimed = 0;
    queue_drops = 0;
  }

let deliver t dst (frame : Packet.t) =
  let p = t.ports.(dst) in
  match p.receive with
  | None ->
    p.unclaimed <- p.unclaimed + 1;
    (* nobody will ever see this copy: give the buffer back *)
    Packet.release frame
  | Some handler ->
    p.rx_frames <- p.rx_frames + 1;
    p.rx_bytes <- p.rx_bytes + Packet.length frame;
    handler frame

(* Schedule one copy of [frame] to arrive at [dst] at virtual [arrival]. *)
let schedule_delivery t dst frame arrival =
  let d =
    if Ring.is_empty t.spare then begin
      let d = { dst; frame; run = ignore } in
      d.run <-
        (fun () ->
          let dst = d.dst and frame = d.frame in
          d.frame <- Packet.placeholder;
          Ring.push t.spare d;
          deliver t dst frame);
      d
    end
    else Ring.pop t.spare
  in
  d.dst <- dst;
  d.frame <- frame;
  Fox_sched.Scheduler.call_at arrival d.run

let corrupt_copy t frame =
  let copy = Packet.copy_fused frame in
  let len = Packet.length copy in
  if len > 0 then begin
    let byte = Rng.int t.rng len in
    let bit = Rng.int t.rng 8 in
    Packet.set_u8 copy byte (Packet.get_u8 copy byte lxor (1 lsl bit))
  end;
  copy

(* Storm corruption must not consume [t.rng] draws (see the chaos field
   comment), so the flipped bit position comes from the frame counter. *)
let chaos_corrupt_copy t frame =
  let copy = Packet.copy_fused frame in
  let len = Packet.length copy in
  if len > 0 then begin
    let byte = t.chaos_frames mod len in
    Packet.set_u8 copy byte (Packet.get_u8 copy byte lxor 1)
  end;
  copy

(* A downed interface with [`Hold] queues at most this many frames, like
   a real NIC ring; overflow vanishes into [chaos_dropped]. *)
let held_cap = 64

(* Frames still waiting for [medium] at [now]: departures are pushed in
   start order, so those that have begun serialising ([start <= now], the
   rule [transmit] uses to decide that a new frame waits) are at the
   front. *)
let queued t medium now =
  let d = t.departures.(medium) in
  while (not (Ring.is_empty d)) && Ring.peek d <= now do
    ignore (Ring.pop d)
  done;
  Ring.length d

(* One copy of a frame that reached the medium, towards [dst]: loss,
   corruption, reordering and duplication, each drawn from [t.rng] in
   this order. *)
let send_copy t ps frame ~start ~base_arrival ~force_corrupt ~force_dup dst =
  (* burst loss: once the rng decides a frame is lost, the following
     [loss_burst - 1] frames are lost too without consulting it — so a
     loss_burst of 1 leaves the rng stream exactly as before.  The burst
     dies when its frame budget or its time window ([loss_burst_us]) runs
     out, whichever comes first *)
  if t.burst_left > 0 && start > t.burst_until then t.burst_left <- 0;
  let lost =
    if t.burst_left > 0 then begin
      t.burst_left <- t.burst_left - 1;
      true
    end
    else if Rng.bool t.rng t.netem.Netem.loss then begin
      t.burst_left <- t.netem.Netem.loss_burst - 1;
      t.burst_until <- start + t.netem.Netem.loss_burst_us;
      true
    end
    else false
  in
  if lost then ps.dropped <- ps.dropped + 1
  else begin
    let rng_corrupt = Rng.bool t.rng t.netem.Netem.corrupt in
    let frame =
      if rng_corrupt then begin
        ps.corrupted <- ps.corrupted + 1;
        corrupt_copy t frame
      end
      else if force_corrupt then begin
        ps.corrupted <- ps.corrupted + 1;
        t.chaos_corrupted <- t.chaos_corrupted + 1;
        chaos_corrupt_copy t frame
      end
      else Packet.copy_fused frame
    in
    let arrival =
      if Rng.bool t.rng t.netem.Netem.reorder then
        base_arrival + 1
        + Rng.int t.rng (Int.max 1 t.netem.Netem.reorder_jitter_us)
      else base_arrival
    in
    schedule_delivery t dst frame arrival;
    if Rng.bool t.rng t.netem.Netem.duplicate then begin
      ps.duplicated <- ps.duplicated + 1;
      schedule_delivery t dst (Packet.copy_fused frame) arrival
    end;
    if force_dup then begin
      ps.duplicated <- ps.duplicated + 1;
      t.chaos_duplicated <- t.chaos_duplicated + 1;
      schedule_delivery t dst (Packet.copy_fused frame) arrival
    end
  end

(* [send_copy] for each port in [dsts], with no closure per frame. *)
let rec send_copies t ps frame ~start ~base_arrival ~force_corrupt ~force_dup =
  function
  | [] -> ()
  | dst :: dsts ->
    send_copy t ps frame ~start ~base_arrival ~force_corrupt ~force_dup dst;
    send_copies t ps frame ~start ~base_arrival ~force_corrupt ~force_dup dsts

let rec transmit t src frame =
  let ps = t.ports.(src) in
  let len = Packet.length frame in
  ps.tx_frames <- ps.tx_frames + 1;
  ps.tx_bytes <- ps.tx_bytes + len;
  if not t.up then begin
    match t.down_policy with
    | `Drop -> t.chaos_dropped <- t.chaos_dropped + 1
    | `Hold ->
      if t.held_len >= held_cap then t.chaos_dropped <- t.chaos_dropped + 1
      else begin
        t.held <- (src, Packet.copy_fused frame) :: t.held;
        t.held_len <- t.held_len + 1
      end
  end
  else if t.blackhole_over > 0 && len > t.blackhole_over then
    t.chaos_dropped <- t.chaos_dropped + 1
  else transmit_up t src frame ps len

and transmit_up t src frame ps len =
  t.chaos_frames <- t.chaos_frames + 1;
  let force_corrupt =
    t.corrupt_every > 0 && t.chaos_frames mod t.corrupt_every = 0
  in
  let force_dup = t.dup_every > 0 && t.chaos_frames mod t.dup_every = 0 in
  (* Serialise onto the medium: a hub is half-duplex (one medium), a
     point-to-point link is full-duplex (one medium per direction). *)
  let medium = if t.shared_medium then 0 else src in
  let now = Fox_sched.Scheduler.now () in
  let start = Int.max now t.medium_free_at.(medium) in
  (* Finite egress queue: a frame that would have to wait for the medium
     while [queue_frames] others already wait is tail-dropped — the real
     congestion loss an unbounded simulation never produces.  The caller
     still owns its packet (we have not copied it), so nothing leaks. *)
  let cap = t.netem.Netem.queue_frames in
  let waiting = cap > 0 && start > now in
  if waiting && queued t medium now >= cap then
    ps.queue_drops <- ps.queue_drops + 1
  else begin
  if waiting then Ring.push t.departures.(medium) start;
  let tx_time = Netem.tx_time_us t.netem len in
  t.medium_free_at.(medium) <- start + tx_time;
  (* asymmetric-RTT modelling: the reverse direction of a point-to-point
     link may have its own propagation delay *)
  let propagation =
    if
      (not t.shared_medium)
      && src = 1
      && t.netem.Netem.reverse_propagation_us > 0
    then t.netem.Netem.reverse_propagation_us
    else t.netem.Netem.propagation_us
  in
  let base_arrival = start + tx_time + propagation in
  send_copies t ps frame ~start ~base_arrival ~force_corrupt ~force_dup
    t.destinations.(src)
  end

let make ~ports ~shared netem =
  let mediums = if shared then 1 else ports in
  {
    netem;
    rng = Rng.create netem.Netem.seed;
    ports = Array.init ports (fun _ -> new_port_state ());
    destinations =
      Array.init ports (fun src ->
          List.filter (fun dst -> dst <> src) (List.init ports Fun.id));
    spare = Ring.create ~dummy:no_delivery;
    shared_medium = shared;
    medium_free_at = Array.make mediums 0;
    departures = Array.init mediums (fun _ -> Ring.create ~dummy:0);
    burst_left = 0;
    burst_until = 0;
    up = true;
    down_policy = `Drop;
    held = [];
    held_len = 0;
    blackhole_over = 0;
    dup_every = 0;
    corrupt_every = 0;
    chaos_frames = 0;
    chaos_dropped = 0;
    chaos_replayed = 0;
    chaos_duplicated = 0;
    chaos_corrupted = 0;
  }

let point_to_point netem = make ~ports:2 ~shared:false netem

let hub ~ports netem =
  if ports < 2 then invalid_arg "Link.hub";
  make ~ports ~shared:true netem

let port t i =
  let ps = t.ports.(i) in
  {
    transmit = (fun frame -> transmit t i frame);
    set_receive = (fun handler -> ps.receive <- Some handler);
  }

let stats t i =
  let p = t.ports.(i) in
  {
    tx_frames = p.tx_frames;
    tx_bytes = p.tx_bytes;
    rx_frames = p.rx_frames;
    rx_bytes = p.rx_bytes;
    dropped = p.dropped;
    duplicated = p.duplicated;
    corrupted = p.corrupted;
    unclaimed = p.unclaimed;
    queue_drops = p.queue_drops;
  }

let config t = t.netem

let take_down t ~policy =
  t.up <- false;
  t.down_policy <- policy

let bring_up t =
  if not t.up then begin
    t.up <- true;
    let replay = List.rev t.held in
    t.held <- [];
    t.held_len <- 0;
    List.iter
      (fun (src, frame) ->
        t.chaos_replayed <- t.chaos_replayed + 1;
        (* replay owns its copy; [transmit] copies again for delivery *)
        transmit t src frame;
        Packet.release frame)
      replay
  end

let is_up t = t.up

let set_blackhole t over = t.blackhole_over <- Int.max 0 over

let set_storm t ?(dup_every = 0) ?(corrupt_every = 0) () =
  t.dup_every <- Int.max 0 dup_every;
  t.corrupt_every <- Int.max 0 corrupt_every

let chaos_stats t =
  {
    chaos_dropped = t.chaos_dropped;
    chaos_held = t.held_len;
    chaos_replayed = t.chaos_replayed;
    chaos_duplicated = t.chaos_duplicated;
    chaos_corrupted = t.chaos_corrupted;
  }
