open Fox_basis

type stats = {
  switches : int;
  forks : int;
  sleeps : int;
  completed : int;
  blocked : int;
  end_time : int;
}

(* Only the operations that give up the CPU are effects: each captures
   the running thread's continuation.  The clock, [fork], [call_at] and
   [advance] need no continuation, so they read or write the running
   scheduler's state directly (see [running] below). *)
type _ Effect.t +=
  | Yield : unit Effect.t
  | Sleep : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Stop : 'a Effect.t

exception Thread_exit

type state = {
  mutable clock : int;
  runq : (unit -> unit) Ring.t;
  sleepq : (unit -> unit) Heap.t;
  mutable switches : int;
  mutable forks : int;
  mutable sleep_count : int;
  mutable completed : int;
  mutable alive : int;
  mutable stopping : bool;
  (* runs a thunk as a thread under this run's handler, counting the
     switch to it *)
  mutable start : (unit -> unit) -> unit;
  (* [call_at]'s queue entries, in run-queue order: each [hop] on [runq]
     takes the front due time and body, so a [call_at] allocates no
     entry of its own *)
  hop_due : int Ring.t;
  hop_f : (unit -> unit) Ring.t;
  mutable hop : unit -> unit;
}

(* Per-domain scheduler state.  [epoch] is the identity of the run most
   recently started on this domain: per-domain timer state (the timing
   wheel) keys off it to detect that a previous run's entries are stale
   and must be discarded, and a run on another domain must not perturb
   it.  [current] is the run whose threads (or idle hook) are executing
   now, if any: a nested [run] saves it and restores it on exit. *)
type domain = { mutable epoch : int; mutable current : state option }

let domain : domain Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { epoch = 0; current = None })

(* Monotonic count of scheduler runs in this process — atomic, because
   each domain of a sharded engine runs its own scheduler and all of them
   draw run identities from this counter. *)
let runs = Atomic.make 0

let epoch () = (Domain.DLS.get domain).epoch

(* Outside a run there is no clock to read and no queue to fork onto.
   Fail as the effect-performing operations do, which is what callers
   probing for a run ([try now () with Effect.Unhandled _ -> ...]) rely
   on; [No_run] is never performed, it only names what is missing. *)
type _ Effect.t += No_run : unit Effect.t

let running () =
  match (Domain.DLS.get domain).current with
  | Some st -> st
  | None -> raise (Effect.Unhandled No_run)

let spawn st f =
  st.forks <- st.forks + 1;
  st.alive <- st.alive + 1;
  st.start f

let fork f =
  let st = running () in
  Ring.push st.runq (fun () -> spawn st f)

(* [call_at] takes the path through the queues of a thread forked now
   that sleeps until [due], so its body starts where that thread would
   wake, but the body is the queue entry itself: no thread, and nothing
   counted.  The run-queue entry is the run's [hop]. *)
let call_at due f =
  let st = running () in
  Ring.push st.hop_due due;
  Ring.push st.hop_f f;
  Ring.push st.runq st.hop

let yield () = Effect.perform Yield

let sleep us = Effect.perform (Sleep us)

let now () = (running ()).clock

(* [advance us] jumps the virtual clock forward by [us] without yielding:
   every sleeper whose due time falls inside the jump becomes due at once
   (released in due order when the run queue next empties).  This is the
   chaos harness's clock-jump fault — the suspend/resume a real host
   experiences — not a scheduling primitive for ordinary code. *)
let advance us =
  let st = running () in
  st.clock <- st.clock + Int.max 0 us

let suspend f = Effect.perform (Suspend f)

let exit_thread () = raise Thread_exit

let stop () = Effect.perform Stop

let run ?(start_time = 0) ?(realtime = false) ?idle main =
  let dom = Domain.DLS.get domain in
  dom.epoch <- 1 + Atomic.fetch_and_add runs 1;
  let st =
    {
      clock = start_time;
      runq = Ring.create ~dummy:ignore;
      sleepq = Heap.create ~dummy:ignore;
      switches = 0;
      forks = 0;
      sleep_count = 0;
      completed = 0;
      alive = 0;
      stopping = false;
      start = ignore;
      hop_due = Ring.create ~dummy:0;
      hop_f = Ring.create ~dummy:ignore;
      hop = ignore;
    }
  in
  st.hop <-
    (fun () ->
      let due = Ring.pop st.hop_due in
      let f = Ring.pop st.hop_f in
      if due > st.clock then Heap.add st.sleepq due f else f ());
  let finish () =
    st.alive <- st.alive - 1;
    st.completed <- st.completed + 1
  in
  let open Effect.Deep in
  (* A suspended thread's switch is counted when it gets the CPU back,
     in the queue entry that resumes it; a new thread's in [start]. *)
  let yielded : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        Ring.push st.runq (fun () ->
            st.switches <- st.switches + 1;
            continue k ()))
  in
  (* One handler for every thread of the run. *)
  let handler : (unit, unit) handler =
    {
      retc = finish;
      exnc = (function Thread_exit -> finish () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Yield -> yielded
          | Sleep us ->
            Some
              (fun (k : (a, unit) continuation) ->
                st.sleep_count <- st.sleep_count + 1;
                Heap.add st.sleepq (st.clock + Int.max 0 us) (fun () ->
                    st.switches <- st.switches + 1;
                    continue k ()))
          | Suspend f ->
            Some
              (fun (k : (a, unit) continuation) ->
                f (fun v ->
                    Ring.push st.runq (fun () ->
                        st.switches <- st.switches + 1;
                        continue k v)))
          | Stop ->
            Some
              (fun (k : (a, unit) continuation) ->
                ignore k;
                st.stopping <- true;
                Ring.clear st.runq;
                Ring.clear st.hop_due;
                Ring.clear st.hop_f;
                Heap.clear st.sleepq;
                (* The stopping thread never resumes; account for it. *)
                finish ())
          | _ -> None);
    }
  in
  st.start <-
    (fun f ->
      st.switches <- st.switches + 1;
      match_with f () handler);
  Ring.push st.runq (fun () -> spawn st main);
  let wall0 = if realtime then Unix.gettimeofday () else 0.0 in
  let real_now () =
    start_time + int_of_float ((Unix.gettimeofday () -. wall0) *. 1e6)
  in
  (* in realtime mode the clock tracks the wall; due sleepers are released
     eagerly so timers interleave correctly with device I/O *)
  let release_due () =
    while
      (not (Heap.is_empty st.sleepq)) && Heap.min_key st.sleepq <= st.clock
    do
      Ring.push st.runq (Heap.pop_min st.sleepq)
    done
  in
  let rec loop () =
    if not st.stopping then begin
      if realtime then begin
        st.clock <- Int.max st.clock (real_now ());
        release_due ()
      end;
      if not (Ring.is_empty st.runq) then begin
        let thunk = Ring.pop st.runq in
        thunk ();
        loop ()
      end
      else
        match idle with
        | Some hook when st.alive > 0 ->
          (* external I/O gets a chance to make threads runnable; the hook
             may block up to [until] real microseconds *)
          let until =
            if Heap.is_empty st.sleepq then None
            else Some (Int.max 0 (Heap.min_key st.sleepq - st.clock))
          in
          hook until;
          loop ()
        | _ ->
          if not (Heap.is_empty st.sleepq) then begin
            let due = Heap.min_key st.sleepq in
            let thunk = Heap.pop_min st.sleepq in
            if realtime then begin
              let wait = due - st.clock in
              if wait > 0 then Unix.sleepf (float_of_int wait /. 1e6);
              st.clock <- Int.max due (real_now ())
            end
            else st.clock <- Int.max st.clock due;
            Ring.push st.runq thunk;
            loop ()
          end
    end
  in
  (* The loop itself is no thread: an effect performed outside every
     thread (in a [call_at] body or the idle hook) is unhandled, also
     when this run is nested inside another run's thread. *)
  let outside : (unit, unit) handler =
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          Some (fun (k : (a, unit) continuation) -> discontinue k (Effect.Unhandled eff)));
    }
  in
  let outer = dom.current in
  dom.current <- Some st;
  Fun.protect ~finally:(fun () -> dom.current <- outer) (fun () ->
      match_with loop () outside);
  {
    switches = st.switches;
    forks = st.forks;
    sleeps = st.sleep_count;
    completed = st.completed;
    blocked = st.alive;
    end_time = st.clock;
  }

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "switches=%d forks=%d sleeps=%d completed=%d blocked=%d end_time=%dus"
    s.switches s.forks s.sleeps s.completed s.blocked s.end_time
