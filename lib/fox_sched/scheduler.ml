open Fox_basis

type stats = {
  switches : int;
  forks : int;
  sleeps : int;
  completed : int;
  blocked : int;
  end_time : int;
}

type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Fork_at : int * (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Sleep : int -> unit Effect.t
  | Now : int Effect.t
  | Advance : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Stop : 'a Effect.t

exception Thread_exit

let fork f = Effect.perform (Fork f)

let fork_at due f = Effect.perform (Fork_at (due, f))

let yield () = Effect.perform Yield

let sleep us = Effect.perform (Sleep us)

let now () = Effect.perform Now

(* [advance us] jumps the virtual clock forward by [us] without yielding:
   every sleeper whose due time falls inside the jump becomes due at once
   (released in due order when the run queue next empties).  This is the
   chaos harness's clock-jump fault — the suspend/resume a real host
   experiences — not a scheduling primitive for ordinary code. *)
let advance us = Effect.perform (Advance us)

let suspend f = Effect.perform (Suspend f)

let exit_thread () = raise Thread_exit

let stop () = Effect.perform Stop

type state = {
  mutable clock : int;
  mutable runq : (unit -> unit) Fifo.t;
  sleepq : (unit -> unit) Heap.t;
  mutable switches : int;
  mutable forks : int;
  mutable sleep_count : int;
  mutable completed : int;
  mutable alive : int;
  mutable stopping : bool;
}

(* Monotonic count of scheduler runs in this process — atomic, because
   each domain of a sharded engine runs its own scheduler and all of them
   draw run identities from this counter.  The epoch *visible* to a
   domain is the identity of the run most recently started on that
   domain (kept in domain-local storage): per-domain timer state (the
   timing wheel) keys off it to detect that a previous run's entries are
   stale and must be discarded, and a run on another domain must not
   perturb it. *)
let runs = Atomic.make 0

let domain_epoch : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

let epoch () = !(Domain.DLS.get domain_epoch)

let run ?(start_time = 0) ?(realtime = false) ?idle main =
  Domain.DLS.get domain_epoch := 1 + Atomic.fetch_and_add runs 1;
  let st =
    {
      clock = start_time;
      runq = Fifo.empty;
      sleepq = Heap.create ~dummy:ignore;
      switches = 0;
      forks = 0;
      sleep_count = 0;
      completed = 0;
      alive = 0;
      stopping = false;
    }
  in
  let enqueue thunk = st.runq <- Fifo.add thunk st.runq in
  let finish () =
    st.alive <- st.alive - 1;
    st.completed <- st.completed + 1
  in
  let open Effect.Deep in
  (* One handler for every thread of the run. *)
  let rec handler : (unit, unit) handler =
    {
      retc = finish;
      exnc = (function Thread_exit -> finish () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Fork g ->
            Some
              (fun (k : (a, unit) continuation) ->
                enqueue (fun () -> spawn g);
                continue k ())
          | Fork_at (due, g) ->
            Some
              (fun (k : (a, unit) continuation) ->
                enqueue (fun () -> spawn_at due g);
                continue k ())
          | Yield ->
            Some (fun (k : (a, unit) continuation) ->
                enqueue (fun () -> continue k ()))
          | Sleep us ->
            Some
              (fun (k : (a, unit) continuation) ->
                st.sleep_count <- st.sleep_count + 1;
                Heap.add st.sleepq (st.clock + max 0 us) (fun () -> continue k ()))
          | Now -> Some (fun (k : (a, unit) continuation) -> continue k st.clock)
          | Advance us ->
            Some
              (fun (k : (a, unit) continuation) ->
                st.clock <- st.clock + max 0 us;
                continue k ())
          | Suspend f ->
            Some
              (fun (k : (a, unit) continuation) ->
                f (fun v -> enqueue (fun () -> continue k v)))
          | Stop ->
            Some
              (fun (k : (a, unit) continuation) ->
                ignore k;
                st.stopping <- true;
                st.runq <- Fifo.empty;
                Heap.clear st.sleepq;
                (* The stopping thread never resumes; account for it. *)
                finish ())
          | _ -> None);
    }
  and start f = match_with f () handler
  and spawn f =
    st.forks <- st.forks + 1;
    st.alive <- st.alive + 1;
    start f
  (* [fork_at]: counted as a fork (and, if [due] is still ahead, a
     sleep) exactly when the expansion [fork (fun () -> sleep until due;
     f ())] would be, but the thread itself is only created at [due]. *)
  and spawn_at due f =
    st.forks <- st.forks + 1;
    st.alive <- st.alive + 1;
    if due > st.clock then begin
      st.sleep_count <- st.sleep_count + 1;
      Heap.add st.sleepq due (fun () -> start f)
    end
    else start f
  in
  enqueue (fun () -> spawn main);
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
      enqueue (Heap.pop_min st.sleepq)
    done
  in
  let rec loop () =
    if not st.stopping then begin
      if realtime then begin
        st.clock <- max st.clock (real_now ());
        release_due ()
      end;
      match Fifo.next st.runq with
      | Some (thunk, rest) ->
        st.runq <- rest;
        st.switches <- st.switches + 1;
        thunk ();
        loop ()
      | None -> (
        match idle with
        | Some hook when st.alive > 0 ->
          (* external I/O gets a chance to make threads runnable; the hook
             may block up to [until] real microseconds *)
          let until =
            if Heap.is_empty st.sleepq then None
            else Some (max 0 (Heap.min_key st.sleepq - st.clock))
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
              st.clock <- max due (real_now ())
            end
            else st.clock <- max st.clock due;
            enqueue thunk;
            loop ()
          end)
    end
  in
  loop ();
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
