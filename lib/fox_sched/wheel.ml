(* A hierarchical timing wheel (Varghese & Lauck) behind the paper's
   Figure-11 timer interface.

   The Figure-11 timer costs one scheduler sleeper — one heap entry — per
   armed timer.  That is fine for a handful of connections but at
   thousands of concurrent RTO / delayed-ACK / TIME-WAIT timers the
   scheduler's sleep queue becomes the hot structure, and clearing a
   timer leaves a dead sleeper behind that still must bubble through the
   heap.  The wheel stores entries in an array of slots instead:

     - [levels] wheels of [slots] slots each; level 0 has a granularity
       of [granularity_us] virtual microseconds per slot, each higher
       level is [slots] times coarser.
     - insert and cancel are O(1): a couple of shifts to find the slot
       and a link into its list, or an unlink.  Each slot is an intrusive
       doubly linked list, so a cancelled entry leaves the wheel at once
       (nothing of it stays reachable until its old deadline) and an
       entry can be re-armed in place without allocating.
     - advancing is O(occupied slots crossed + entries fired); empty
       level-0 rounds are skipped in one step, so a long idle gap costs
       one cascade per round rather than one iteration per tick.

   Virtual time makes the classic "tick thread" design wasteful: a
   thread ticking every granule would hold the scheduler hostage and
   inflate every run's end time.  Instead the wheel arms a single
   *alarm*: a scheduler sleeper aimed at the earliest deadline it knows
   about.  Inserting an earlier timer arms a new alarm; the superseded
   alarm wakes, sees it is no longer the armed one, and exits.  When the
   last live entry fires or is cancelled no new alarm is armed, so a run
   can still terminate.

   Handlers may fire up to [granularity_us - 1] microseconds after their
   requested deadline (never before): deadlines are rounded up to the
   next tick boundary.  TCP's timers are tens of milliseconds and up, so
   a ~1 ms grain is far below their natural jitter.

   The wheel is domain-local, like a scheduler run itself: a sharded
   engine runs one scheduler (and therefore one wheel) per domain, and
   the wheels never observe each other.  Each wheel tags its state with
   {!Scheduler.epoch} (also a per-domain notion); entries inserted during
   a previous run on the same domain are unlinked wholesale when a new
   run first arms an entry, and may be armed again in the new run. *)

let levels = 4
let slot_bits = 8
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let granularity_bits = 10
let granularity_us = 1 lsl granularity_bits

(* An entry is linked into at most one list — a slot or [overdue] — and
   only while armed: it leaves the list when it fires or is cancelled.
   Each list is circular through a sentinel entry, and an unlinked entry
   points at itself. *)
type entry = {
  mutable tick : int;
      (* ceil (deadline / granularity): fires when the wheel gets here *)
  handler : unit -> unit;
  mutable level : int; (* level of the slot holding it; -1 = overdue *)
  mutable prev : entry;
  mutable next : entry;
  mutable cancelled : bool; (* cancelled since last armed, before firing *)
  mutable fired : bool; (* fired since last armed *)
}

let make_entry handler =
  let rec e =
    {
      tick = 0;
      handler;
      level = -1;
      prev = e;
      next = e;
      cancelled = false;
      fired = false;
    }
  in
  e

let linked e = e.next != e

(* Append [e] (unlinked) at the tail of the list through [s]. *)
let link_tail s e =
  let last = s.prev in
  e.prev <- last;
  e.next <- s;
  last.next <- e;
  s.prev <- e

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev;
  e.prev <- e;
  e.next <- e

type stats = {
  mutable scheduled : int;
  mutable fires : int;
  mutable cancels : int;
  mutable cascades : int; (* entries moved down a level *)
  mutable alarms : int; (* alarm threads forked *)
}

type t = {
  mutable epoch : int;
  mutable cur_tick : int; (* wheel has processed slots up to this tick *)
  mutable live : int; (* armed entries: linked into a slot or [overdue] *)
  resident : int array; (* entries per level *)
  slot : entry array array; (* level -> slot -> sentinel, in arming order *)
  overdue : entry; (* sentinel: tick already passed, in arming order *)
  mutable armed_at : int;
      (* deadline of the armed alarm; max_int = none, min_int = advancing *)
  stats : stats;
}

let make_wheel () =
  {
    epoch = -1;
    cur_tick = 0;
    live = 0;
    resident = Array.make levels 0;
    slot =
      Array.init levels (fun _ ->
          Array.init slots (fun _ -> make_entry ignore));
    overdue = make_entry ignore;
    armed_at = max_int;
    stats = { scheduled = 0; fires = 0; cancels = 0; cascades = 0; alarms = 0 };
  }

let wheel_key : t Domain.DLS.key = Domain.DLS.new_key make_wheel

(* Unlink every entry of the list through [s], leaving it empty. *)
let clear_list s =
  while linked s do
    unlink s.next
  done

let reset_for w ~epoch ~now =
  w.epoch <- epoch;
  w.cur_tick <- now asr granularity_bits;
  w.live <- 0;
  Array.fill w.resident 0 levels 0;
  Array.iter (Array.iter clear_list) w.slot;
  clear_list w.overdue;
  w.armed_at <- max_int

let ensure_epoch w ~now =
  let epoch = Scheduler.epoch () in
  if epoch <> w.epoch then reset_for w ~epoch ~now

(* Level whose span covers [delta] ticks into the future. *)
let level_of delta =
  if delta < slots then 0
  else if delta < slots * slots then 1
  else if delta < slots * slots * slots then 2
  else 3

let place w e =
  let delta = e.tick - w.cur_tick in
  if delta <= 0 then begin
    e.level <- -1;
    link_tail w.overdue e
  end
  else begin
    let level = level_of delta in
    (* Beyond the top level's horizon entries park in the top wheel and
       re-cascade; [land] keeps the index in range. *)
    let idx = (e.tick lsr (slot_bits * level)) land slot_mask in
    e.level <- level;
    link_tail w.slot.(level).(idx) e;
    w.resident.(level) <- w.resident.(level) + 1
  end

(* Take a linked entry out of the wheel. *)
let remove w e =
  if e.level >= 0 then w.resident.(e.level) <- w.resident.(e.level) - 1;
  unlink e;
  w.live <- w.live - 1

let fire w e =
  remove w e;
  e.fired <- true;
  w.stats.fires <- w.stats.fires + 1;
  e.handler ()

(* Move every entry out of level [level] slot [idx], re-inserting each
   relative to the current tick (they land on a lower level or in
   [overdue]).  The slot's chain is detached first and walked through
   the saved successors, so an entry parked straight back into this
   slot (beyond the top level's horizon) is not walked again. *)
let cascade w level idx =
  let s = w.slot.(level).(idx) in
  let e = ref s.next in
  s.next <- s;
  s.prev <- s;
  while !e != s do
    let cur = !e in
    e := cur.next;
    cur.prev <- cur;
    cur.next <- cur;
    w.resident.(level) <- w.resident.(level) - 1;
    w.stats.cascades <- w.stats.cascades + 1;
    place w cur
  done

(* Cascade whatever feeds the round just entered.  Called right after
   [cur_tick] lands on a level-0 wrap; if a higher level wrapped at the
   same moment it must be drained top-down so entries flow through. *)
let rec cascade_from w level =
  if level < levels then begin
    let idx = (w.cur_tick lsr (slot_bits * level)) land slot_mask in
    if idx = 0 then cascade_from w (level + 1);
    if level > 0 then cascade w level idx
  end

(* Fire a list front to back.  A handler may cancel or re-arm entries
   still waiting in it (they leave it), and may arm new overdue entries
   (they join [overdue]'s tail and fire in this same drain); it cannot
   arm into the level-0 slot being processed, which only a deadline a
   whole round away would map to — and that lands on level 1. *)
let fire_all w s =
  while linked s do
    fire w s.next
  done

let process_slot w idx = fire_all w w.slot.(0).(idx)

let drain_overdue w = fire_all w w.overdue

(* Advance the wheel to [now], firing everything due.  Cost: one step
   per level-0 tick crossed while level 0 is occupied, plus one cascade
   per level-0 round crossed; fully-empty rounds are skipped in a single
   jump. *)
let advance w now =
  let target = now asr granularity_bits in
  drain_overdue w;
  while w.cur_tick < target do
    if w.resident.(0) = 0 then begin
      (* Nothing on level 0: jump straight to the next cascade boundary
         (or to the target if it comes first). *)
      let next_wrap = ((w.cur_tick lsr slot_bits) + 1) lsl slot_bits in
      w.cur_tick <- Int.min next_wrap target;
      if w.cur_tick land slot_mask = 0 then cascade_from w 1
    end
    else begin
      w.cur_tick <- w.cur_tick + 1;
      if w.cur_tick land slot_mask = 0 then cascade_from w 1;
      process_slot w (w.cur_tick land slot_mask)
    end;
    drain_overdue w
  done

(* Earliest tick in the list through [s], or [best] if none is earlier. *)
let earliest best s =
  let best = ref best and e = ref s.next in
  while !e != s do
    if !e.tick < !best then best := !e.tick;
    e := !e.next
  done;
  !best

(* Earliest tick holding a live entry, across all levels.  O(occupied
   levels × slots + resident entries); runs once per alarm wake-up, not
   per insert, and skips levels with nothing resident.  [advance] is
   exact regardless of level, so the alarm can aim straight at the
   entry's own tick even when cascades lie between. *)
let next_alarm w =
  if w.live = 0 then None
  else begin
    let best = ref (earliest max_int w.overdue) in
    for level = 0 to levels - 1 do
      if w.resident.(level) > 0 then begin
        let cells = w.slot.(level) in
        for idx = 0 to slots - 1 do
          best := earliest !best cells.(idx)
        done
      end
    done;
    if !best = max_int then None else Some (!best lsl granularity_bits)
  end

(* The alarm thread re-fetches the calling domain's wheel when it wakes:
   it always runs on the domain that armed it (forked threads stay on
   their scheduler's domain), so this is the same wheel it was armed
   against.  Only the armed alarm advances the wheel: one superseded by
   an earlier insert exits without re-arming, or every superseded alarm
   would go on re-arming a chain of its own and alarms would never die. *)
let rec arm w deadline =
  if deadline < w.armed_at then begin
    w.armed_at <- deadline;
    w.stats.alarms <- w.stats.alarms + 1;
    let epoch = w.epoch in
    Scheduler.fork (fun () ->
        Scheduler.sleep (Int.max 0 (deadline - Scheduler.now ()));
        let w = Domain.DLS.get wheel_key in
        if w.epoch = epoch && w.armed_at = deadline then begin
          (* Handlers may start timers while we advance; claim the alarm
             slot so they don't fork alarms we are about to supersede. *)
          w.armed_at <- min_int;
          advance w (Scheduler.now ());
          w.armed_at <- max_int;
          match next_alarm w with Some t -> arm w t | None -> ()
        end)
  end

let create = make_entry

let cancel e =
  if not e.fired then e.cancelled <- true;
  if linked e then begin
    let w = Domain.DLS.get wheel_key in
    remove w e;
    w.stats.cancels <- w.stats.cancels + 1
  end

let set_at e ~now us =
  let w = Domain.DLS.get wheel_key in
  if linked e then begin
    remove w e;
    w.stats.cancels <- w.stats.cancels + 1
  end;
  ensure_epoch w ~now;
  let deadline = now + Int.max 0 us in
  e.tick <- (deadline + granularity_us - 1) asr granularity_bits;
  e.cancelled <- false;
  e.fired <- false;
  w.live <- w.live + 1;
  w.stats.scheduled <- w.stats.scheduled + 1;
  place w e;
  (* Alarm at the entry's slot boundary: the slot is processed when the
     wheel reaches [tick], i.e. at [tick * granularity_us] ≥ deadline. *)
  arm w (e.tick lsl granularity_bits)

let set e us = set_at e ~now:(Scheduler.now ()) us

let schedule handler us =
  let e = make_entry handler in
  set e us;
  e

let cancelled e = e.cancelled

let armed e = linked e

let pending () = (Domain.DLS.get wheel_key).live

let stats () =
  let w = Domain.DLS.get wheel_key in
  [
    ("scheduled", w.stats.scheduled);
    ("fired", w.stats.fires);
    ("cancelled", w.stats.cancels);
    ("cascaded", w.stats.cascades);
    ("alarms", w.stats.alarms);
  ]

let reset_stats () =
  let w = Domain.DLS.get wheel_key in
  w.stats.scheduled <- 0;
  w.stats.fires <- 0;
  w.stats.cancels <- 0;
  w.stats.cascades <- 0;
  w.stats.alarms <- 0
