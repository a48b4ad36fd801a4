(** Pluggable congestion control.

    The paper's thesis is that a TCP built from ML functors stays
    malleable; congestion control was the one behaviour the repository had
    never factored — the Reno-style decisions were hard-wired into
    {!Resend} and {!Send}.  This module extracts every cwnd/ssthresh
    decision behind one narrow, typed interface ({!S}) that {!Tcp.Make}
    takes as a functor argument, in the spirit of "Beyond socket options:
    making the Linux TCP stack truly extensible" — but with the type
    checker, not eBPF, holding the contract.

    {b Hook semantics} (see DESIGN §12 for the full contract):

    - hooks are pure decisions over a read-only {!ctx} snapshot plus the
      algorithm's own private state [t]; they return a {!reaction} and the
      caller ({!Resend}) applies it to the TCB, clamping to the global
      invariants cwnd ≥ 1 MSS and ssthresh ≥ 2 MSS;
    - [on_ack] runs once per ACK that advances [snd_una] (after the
      retransmission queue was trimmed, so [ctx.flight] is the
      post-trim flight);
    - [on_dup_ack] runs once per duplicate ACK counted by {!Resend}
      ([count] is the running total; 3 is the fast-retransmit threshold,
      and the retransmission of the front entry at [count = 3] is done by
      {!Resend} itself, independent of the algorithm);
    - [on_rto] runs when the retransmission timer fires, before the
      exponential backoff is applied;
    - [on_idle_restart] runs when the application writes after the
      connection went idle with nothing in flight (RFC 5681 §4.1);
    - [pacing_gap_us] is consulted after each data segment is emitted;
      [Some gap] holds the next emission back by [gap] µs via the
      [Pacing] timer (the PR-5 timer wheel), [None] means unpaced — the
      window-only algorithms return [None] and take the exact pre-refactor
      path, which is what keeps the Reno differential-fuzz fingerprint
      identical to the monolithic-era engine.

    Determinism: hooks see only virtual time ([ctx.now], µs) and TCB
    fields, never the wall clock, so every algorithm replays exactly under
    the deterministic scheduler — CUBIC's t-based window included. *)

(** Read-only snapshot of the connection handed to every hook. *)
type ctx = {
  mss : int;  (** sender MSS *)
  flight : int;  (** bytes sent and unacknowledged *)
  cwnd : int;  (** current congestion window, bytes *)
  ssthresh : int;  (** current slow-start threshold, bytes *)
  una : Seq.t;  (** oldest unacknowledged sequence number *)
  nxt : Seq.t;  (** next sequence number to send *)
  srtt_us : int;  (** smoothed RTT estimate; -1 before the first sample *)
  rto_us : int;  (** current retransmission timeout *)
  now : int;  (** virtual time, microseconds *)
}

(** What a hook decided.  [retransmit_front] asks {!Resend} to retransmit
    the front of the retransmission queue — NewReno's partial-ACK
    retransmission (RFC 6582). *)
type reaction = {
  next_cwnd : int;
  next_ssthresh : int;
  retransmit_front : bool;
}

(** [keep ctx] is the identity reaction. *)
let keep ctx =
  { next_cwnd = ctx.cwnd; next_ssthresh = ctx.ssthresh;
    retransmit_front = false }

(** The CONGESTION contract: one value of [t] per connection, created at
    TCB birth and copied (deeply) when the differential checker shadows a
    TCB. *)
module type S = sig
  val name : string

  type t

  val create : unit -> t

  val copy : t -> t
  (** a deep copy: the shadow TCB's instance must evolve independently *)

  val initial_cwnd : mss:int -> int

  val on_ack : t -> ctx -> acked:int -> reaction
  (** an ACK advanced [snd_una] by [acked] bytes *)

  val on_dup_ack : t -> ctx -> count:int -> reaction
  (** the [count]th consecutive duplicate ACK arrived *)

  val on_rto : t -> ctx -> reaction
  (** the retransmission timer fired *)

  val on_idle_restart : t -> ctx -> idle_us:int -> reaction
  (** the user wrote after [idle_us] µs with nothing in flight *)

  val pacing_gap_us : t -> ctx -> seg_bytes:int -> int option
  (** gap to the next data emission; [None] = unpaced *)

  val in_recovery : t -> bool
  (** inside loss recovery (drives the recovery-exit invariant) *)

  val debug : t -> (string * string) list
  (** private state for {!Stats} snapshots and fingerprints *)
end

(** {1 Reno} — the paper-era default.

    Byte-for-byte the arithmetic that previously lived inline in
    [Resend.open_cwnd] / [Resend.duplicate_ack] / [Resend.retransmit]:
    the differential fuzz asserts the refactor preserved it exactly. *)

module Reno = struct
  let name = "reno"

  type t = unit

  let create () = ()
  let copy () = ()
  let initial_cwnd ~mss = 2 * mss

  let on_ack () c ~acked =
    let next_cwnd =
      if c.cwnd < c.ssthresh then c.cwnd + Int.min acked c.mss
      else c.cwnd + Int.max 1 (c.mss * c.mss / Int.max c.cwnd 1)
    in
    { next_cwnd; next_ssthresh = c.ssthresh; retransmit_front = false }

  let on_dup_ack () c ~count =
    if count = 3 then begin
      let ssthresh = Int.max (c.flight / 2) (2 * c.mss) in
      { next_cwnd = ssthresh; next_ssthresh = ssthresh;
        retransmit_front = false }
    end
    else keep c

  let on_rto () c =
    { next_cwnd = c.mss;
      next_ssthresh = Int.max (c.flight / 2) (2 * c.mss);
      retransmit_front = false }

  let on_idle_restart () c ~idle_us:_ = keep c
  let pacing_gap_us () _ ~seg_bytes:_ = None
  let in_recovery () = false
  let debug () = []
end

(** {1 NewReno} — RFC 6582 fast recovery with partial-ACK retransmission.

    On entering recovery, [recover] marks the highest sequence sent; ACKs
    below it are partial (one more segment was lost: retransmit the front
    of the queue and deflate), ACKs at or above it end recovery with the
    window deflated to [ssthresh]. *)

module Newreno = struct
  let name = "newreno"

  type t = { mutable recover : Seq.t; mutable in_rec : bool }

  let create () = { recover = Seq.zero; in_rec = false }
  let copy t = { recover = t.recover; in_rec = t.in_rec }
  let initial_cwnd ~mss = 2 * mss

  let on_ack t c ~acked =
    if t.in_rec then begin
      if Seq.ge c.una t.recover then begin
        (* full acknowledgement: leave recovery, deflate (RFC 6582 §3.2
           option 2) *)
        t.in_rec <- false;
        { next_cwnd = c.ssthresh; next_ssthresh = c.ssthresh;
          retransmit_front = false }
      end
      else begin
        (* partial acknowledgement: the front of the queue is the next
           hole — retransmit it, deflate by the amount acknowledged, and
           add back one MSS if at least one MSS was covered *)
        let next_cwnd =
          Int.max c.mss (c.cwnd - acked + if acked >= c.mss then c.mss else 0)
        in
        { next_cwnd; next_ssthresh = c.ssthresh; retransmit_front = true }
      end
    end
    else Reno.on_ack () c ~acked

  let on_dup_ack t c ~count =
    if count = 3 then begin
      t.in_rec <- true;
      t.recover <- c.nxt;
      let ssthresh = Int.max (c.flight / 2) (2 * c.mss) in
      (* inflate by the three segments known to have left the network *)
      { next_cwnd = ssthresh + (3 * c.mss); next_ssthresh = ssthresh;
        retransmit_front = false }
    end
    else if t.in_rec then
      { next_cwnd = c.cwnd + c.mss; next_ssthresh = c.ssthresh;
        retransmit_front = false }
    else keep c

  let on_rto t c =
    (* a timeout ends fast recovery; remembering [recover] avoids spurious
       re-entry on the duplicate ACKs the retransmission provokes *)
    t.in_rec <- false;
    t.recover <- c.nxt;
    Reno.on_rto () c

  let on_idle_restart _ c ~idle_us =
    (* RFC 5681 §4.1: collapse to the restart window after an RTO of
       idleness *)
    if idle_us >= c.rto_us then
      { next_cwnd = Int.min c.cwnd (2 * c.mss); next_ssthresh = c.ssthresh;
        retransmit_front = false }
    else keep c

  let pacing_gap_us _ _ ~seg_bytes:_ = None
  let in_recovery t = t.in_rec

  let debug t =
    [ ("recover", Seq.to_string t.recover);
      ("in_rec", string_of_bool t.in_rec) ]
end

(** {1 CUBIC} — RFC 8312 window growth.

    W_cubic(t) = C·(t − K)³ + W_max, with t the time since the epoch
    started — {e virtual} time, so the trajectory is exactly reproducible
    under the deterministic scheduler.  Loss recovery is NewReno-style
    (this TCP has no SACK), with β = 0.7 multiplicative decrease and fast
    convergence. *)

module Cubic = struct
  let name = "cubic"

  let c_const = 0.4 (* packets/s³, RFC 8312 §5 *)
  let beta = 0.7

  type t = {
    mutable w_max : float;  (** window (bytes) at the last reduction *)
    mutable epoch_start : int;  (** µs; 0 = no epoch running *)
    mutable recover : Seq.t;
    mutable in_rec : bool;
  }

  let create () =
    { w_max = 0.; epoch_start = 0; recover = Seq.zero; in_rec = false }

  let copy t =
    { w_max = t.w_max; epoch_start = t.epoch_start; recover = t.recover;
      in_rec = t.in_rec }

  let initial_cwnd ~mss = 2 * mss

  let cubic_target t c =
    let mss = float_of_int c.mss in
    let w_max_p = t.w_max /. mss in
    let k = Float.cbrt (w_max_p *. (1. -. beta) /. c_const) in
    let tm = float_of_int (c.now - t.epoch_start) /. 1e6 in
    let d = tm -. k in
    (c_const *. (d *. d *. d) +. w_max_p) *. mss

  let on_ack t c ~acked =
    if t.in_rec then begin
      if Seq.ge c.una t.recover then begin
        t.in_rec <- false;
        t.epoch_start <- 0;
        { next_cwnd = c.ssthresh; next_ssthresh = c.ssthresh;
          retransmit_front = false }
      end
      else
        let next_cwnd =
          Int.max c.mss (c.cwnd - acked + if acked >= c.mss then c.mss else 0)
        in
        { next_cwnd; next_ssthresh = c.ssthresh; retransmit_front = true }
    end
    else if c.cwnd < c.ssthresh then
      (* slow start, as Reno *)
      { next_cwnd = c.cwnd + Int.min acked c.mss; next_ssthresh = c.ssthresh;
        retransmit_front = false }
    else begin
      if t.epoch_start = 0 then begin
        t.epoch_start <- Int.max 1 c.now;
        if t.w_max < float_of_int c.cwnd then t.w_max <- float_of_int c.cwnd
      end;
      let cwnd_f = float_of_int c.cwnd in
      let target = cubic_target t c in
      let next_cwnd =
        if target > cwnd_f then
          (* grow towards the cubic target at (target − cwnd)/cwnd MSS per
             ACK, at least one byte, at most one MSS *)
          let inc =
            int_of_float (float_of_int c.mss *. (target -. cwnd_f) /. cwnd_f)
          in
          c.cwnd + Int.min c.mss (Int.max 1 inc)
        else c.cwnd
      in
      { next_cwnd; next_ssthresh = c.ssthresh; retransmit_front = false }
    end

  let on_dup_ack t c ~count =
    if count = 3 then begin
      let cwnd_f = float_of_int c.cwnd in
      (* fast convergence: release bandwidth when the loss came below the
         previous saturation point *)
      t.w_max <-
        (if cwnd_f < t.w_max then cwnd_f *. (2. -. beta) /. 2. else cwnd_f);
      t.epoch_start <- 0;
      t.in_rec <- true;
      t.recover <- c.nxt;
      let ssthresh =
        Int.max (int_of_float (cwnd_f *. beta)) (2 * c.mss)
      in
      { next_cwnd = ssthresh; next_ssthresh = ssthresh;
        retransmit_front = false }
    end
    else keep c

  let on_rto t c =
    t.w_max <- float_of_int c.cwnd;
    t.epoch_start <- 0;
    t.in_rec <- false;
    t.recover <- c.nxt;
    { next_cwnd = c.mss;
      next_ssthresh = Int.max (int_of_float (float_of_int c.cwnd *. beta))
                        (2 * c.mss);
      retransmit_front = false }

  let on_idle_restart t c ~idle_us =
    if idle_us >= c.rto_us then begin
      t.epoch_start <- 0;
      { next_cwnd = Int.min c.cwnd (2 * c.mss); next_ssthresh = c.ssthresh;
        retransmit_front = false }
    end
    else keep c

  let pacing_gap_us _ _ ~seg_bytes:_ = None
  let in_recovery t = t.in_rec

  let debug t =
    [ ("w_max", string_of_int (int_of_float t.w_max));
      ("epoch", string_of_int t.epoch_start);
      ("in_rec", string_of_bool t.in_rec) ]
end

(** {1 BBR-lite} — a model-based, pacing-driven algorithm.

    Maintains a decaying-maximum bottleneck-bandwidth estimate and a
    minimum-RTT estimate, sets cwnd to twice the bandwidth-delay product,
    and paces emissions at [gain × btl_bw] through the [Pacing] timer
    (the PR-5 wheel makes the short gaps cheap).  Startup doubles the
    window per RTT like slow start until the bandwidth estimate stops
    growing, then enters a ProbeBW gain cycle.  Loss is handled by the
    engine's retransmission machinery; BBR reduces only on RTO. *)

module Bbr_lite = struct
  let name = "bbr"

  let gains = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
  let startup_gain = 2.885
  let bw_window_us = 2_000_000 (* forget a stale bandwidth max after 2 s *)

  type t = {
    mutable btl_bw : float;  (** bottleneck bandwidth, bytes/s *)
    mutable bw_stamp : int;  (** when [btl_bw] was last raised *)
    mutable min_rtt_us : int;  (** 0 until the first RTT sample *)
    mutable delivered : int;  (** bytes acknowledged in the open epoch *)
    mutable epoch_us : int;  (** start of the sample epoch; 0 = unset *)
    mutable cycle_idx : int;
    mutable cycle_stamp : int;
    mutable startup : bool;
    mutable full_bw : float;  (** plateau detector *)
    mutable full_cnt : int;
    mutable loss_until : int;
        (** end of the post-loss interval during which the cwnd floor is
            lowered; 0 = path currently considered clean *)
  }

  let create () =
    { btl_bw = 0.; bw_stamp = 0; min_rtt_us = 0; delivered = 0; epoch_us = 0;
      cycle_idx = 2; cycle_stamp = 0; startup = true; full_bw = 0.;
      full_cnt = 0; loss_until = 0 }

  let copy t =
    { btl_bw = t.btl_bw; bw_stamp = t.bw_stamp; min_rtt_us = t.min_rtt_us;
      delivered = t.delivered; epoch_us = t.epoch_us;
      cycle_idx = t.cycle_idx; cycle_stamp = t.cycle_stamp;
      startup = t.startup; full_bw = t.full_bw; full_cnt = t.full_cnt;
      loss_until = t.loss_until }

  let initial_cwnd ~mss = 4 * mss

  let gain t = if t.startup then startup_gain else gains.(t.cycle_idx)

  let bdp t =
    if t.btl_bw <= 0. || t.min_rtt_us <= 0 then 0
    else int_of_float (t.btl_bw *. float_of_int t.min_rtt_us /. 1e6)

  let on_ack t c ~acked =
    if c.srtt_us > 0 then begin
      if t.min_rtt_us = 0 || c.srtt_us < t.min_rtt_us then
        t.min_rtt_us <- c.srtt_us;
      (* delivery-rate sampling is windowed: every byte acknowledged over
         one smoothed round trip, divided by that round trip.  A per-ACK
         [acked/srtt] sample would undercount by the ACK spacing — each
         ACK covers a couple of segments but the divisor is a whole
         round — and the resulting pacing rate would lock the
         underestimate in. *)
      if t.epoch_us = 0 then t.epoch_us <- c.now;
      t.delivered <- t.delivered + acked;
      let span = c.now - t.epoch_us in
      if span >= c.srtt_us && span > 0 then begin
        let sample =
          float_of_int t.delivered /. (float_of_int span /. 1e6)
        in
        t.delivered <- 0;
        t.epoch_us <- c.now;
        if sample > t.btl_bw then begin
          t.btl_bw <- sample;
          t.bw_stamp <- c.now
        end
        else if c.now - t.bw_stamp > bw_window_us then begin
          (* the maximum went stale: decay so the filter can track down *)
          t.btl_bw <- t.btl_bw *. 0.9;
          t.bw_stamp <- c.now
        end;
        (* startup exits when the bandwidth estimate stops growing 25%
           per sampled round for three rounds *)
        if t.startup then begin
          if t.btl_bw > t.full_bw *. 1.25 then begin
            t.full_bw <- t.btl_bw;
            t.full_cnt <- 0
          end
          else begin
            t.full_cnt <- t.full_cnt + 1;
            if t.full_cnt >= 3 then t.startup <- false
          end
        end
      end;
      if
        (not t.startup)
        && t.min_rtt_us > 0
        && c.now - t.cycle_stamp >= t.min_rtt_us
      then begin
        t.cycle_idx <- (t.cycle_idx + 1) mod Array.length gains;
        t.cycle_stamp <- c.now
      end
    end;
    let next_cwnd =
      if t.startup || bdp t = 0 then
        (* exponential growth while probing for the ceiling *)
        c.cwnd + acked
      else
        (* 2x the BDP, floored at eight segments on a clean path: full
           BBR can run at a tiny window because RACK repairs losses
           without dup-ack feedback, but this lite version relies on
           fast retransmit, so a short-BDP path must keep enough
           segments in flight that a loss burst still leaves three
           duplicate ACKs.  While loss is recent the floor falls to
           four segments — persistent drops mean the headroom itself is
           overflowing a shared bottleneck queue *)
        let floor_segs = if c.now < t.loss_until then 4 else 8 in
        Int.max (floor_segs * c.mss) (2 * bdp t)
    in
    { next_cwnd; next_ssthresh = c.ssthresh; retransmit_front = false }

  (* How long a loss keeps the cwnd floor lowered.  Refreshed on every
     loss signal, so sporadic (random) loss restores the full floor
     within a few round trips while persistent (congestive) loss keeps
     the flow at its minimum window. *)
  let loss_memory_us t c =
    if t.min_rtt_us > 0 then 16 * t.min_rtt_us
    else if c.srtt_us > 0 then 16 * c.srtt_us
    else 100_000

  let on_dup_ack t c ~count =
    (* loss is not a primary congestion signal; fast retransmit (done by
       Resend) repairs the hole, the window stays model-driven — but a
       completed dup-ack threshold still lowers the cwnd floor for a
       while (see [on_ack]) *)
    if count = 3 then t.loss_until <- c.now + loss_memory_us t c;
    keep c

  let on_rto t c =
    (* a timeout means the model lost touch with the path.  Full BBR
       leans on RACK-style repair and rarely gets here; without it, a
       stale (and decaying) bandwidth maximum would keep pacing the
       recovery ever slower.  Restart the model instead: forget the
       filter, re-enter startup, pace nothing until fresh samples
       arrive. *)
    t.btl_bw <- 0.;
    t.bw_stamp <- c.now;
    t.delivered <- 0;
    t.epoch_us <- 0;
    t.startup <- true;
    t.full_bw <- 0.;
    t.full_cnt <- 0;
    t.loss_until <- c.now + loss_memory_us t c;
    { next_cwnd = c.mss; next_ssthresh = c.ssthresh;
      retransmit_front = false }

  let on_idle_restart t c ~idle_us:_ =
    (* restart the ProbeBW cycle so the first packets after idleness are
       not sent at a stale probing gain *)
    t.cycle_idx <- 2;
    t.cycle_stamp <- c.now;
    keep c

  let pacing_gap_us t _c ~seg_bytes =
    if t.btl_bw <= 0. then
      (* no bandwidth estimate yet: let slow start run unpaced until the
         first delivery-rate sample lands *)
      None
    else
      let rate = gain t *. t.btl_bw in
      let gap = int_of_float (float_of_int seg_bytes /. rate *. 1e6) in
      (* cap the inter-segment gap: a filter this stale (pacing slower
         than one segment per 10 ms) is a model failure, and an uncapped
         gap locks it in — delivery-rate samples can never exceed the
         rate the sender itself is pacing at, so the decayed filter
         would ratchet towards zero *)
      Some (Int.min gap 10_000)

  let in_recovery _ = false

  let debug t =
    [ ("btl_bw", string_of_int (int_of_float t.btl_bw));
      ("min_rtt", string_of_int t.min_rtt_us);
      ("cycle", string_of_int t.cycle_idx);
      ("startup", string_of_bool t.startup) ]
end

(** {1 First-class instances}

    A TCB stores one [instance]: the algorithm module packed with its
    per-connection state.  The dispatch helpers below are what {!Resend},
    {!Send} and the checkers call. *)

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let make (module C : S) = Instance ((module C), C.create ())
let copy (Instance ((module C), st)) = Instance ((module C), C.copy st)
let name (Instance ((module C), _)) = C.name
let initial_cwnd (module C : S) ~mss = C.initial_cwnd ~mss
let on_ack (Instance ((module C), st)) ctx ~acked = C.on_ack st ctx ~acked

let on_dup_ack (Instance ((module C), st)) ctx ~count =
  C.on_dup_ack st ctx ~count

let on_rto (Instance ((module C), st)) ctx = C.on_rto st ctx

let on_idle_restart (Instance ((module C), st)) ctx ~idle_us =
  C.on_idle_restart st ctx ~idle_us

let pacing_gap_us (Instance ((module C), st)) ctx ~seg_bytes =
  C.pacing_gap_us st ctx ~seg_bytes

let in_recovery (Instance ((module C), st)) = C.in_recovery st
let debug (Instance ((module C), st)) = C.debug st

(** [describe i] is a one-token rendering of the algorithm and its private
    state — stable across a TCB and its differential shadow, so it is safe
    to fingerprint. *)
let describe i =
  match debug i with
  | [] -> name i
  | kvs ->
    name i ^ "["
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
    ^ "]"

let all : (module S) list =
  [ (module Reno); (module Newreno); (module Cubic); (module Bbr_lite) ]

let of_name s : (module S) option =
  List.find_opt (fun (module C : S) -> C.name = s) all

let names = List.map (fun (module C : S) -> C.name) all
