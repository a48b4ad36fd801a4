(* Self-time spans, recorded from outside the stack.

   The benchmark wraps every call that crosses a layer boundary in
   [span layer host conn f x].  A global cursor names the innermost span
   of the thread that is running now, or [-1] when no span is running
   (the scheduler, timer threads, the link's delivery threads): every
   clock interval between two span events is charged to that cursor, so
   a span's self time is its duration minus its children.

   The stack's threads are coroutines of [Fox_sched.Scheduler], and a
   call may block inside a span (a [connect], a [send] waiting for window
   space, ARP resolution, a socket read).  Every thread switch is an
   effect performed inside the thread, so the outermost span a thread
   opens installs an effect handler: an effect performed anywhere below
   it charges the time so far to the innermost span, parks the cursor at
   [-1] while the scheduler runs other threads, and restores it when the
   effect returns.  A span that blocks therefore never absorbs another
   thread's work; the time it waits is charged to the scheduler.  Every
   scheduler effect counts, including [now] and [fork], whose round trip
   through the scheduler is scheduler work too.  The handler's own hop
   is probe cost: effects are counted per span, and {!calibrate} times
   the hop so that {!totals} can subtract it.

   Spans live in preallocated memory outside the OCaml heap, so that
   they add nothing to the heap the benchmark measures: open spans in
   fixed slot arrays, finished spans in a ring that is written out at
   the end. *)

let layer_names = [| "link"; "eth"; "arp"; "ip"; "tcp"; "app" |]

let link = 0
let eth = 1
let arp = 2
let ip = 3
let tcp = 4
let app = 5
let n_layers = Array.length layer_names
let n_hosts = 2

(* Nanoseconds; replaced by a fake clock in the unit tests. *)
let monotonic () = Int64.to_int (Monotonic_clock.now ())

let clock = ref monotonic

let on = ref false

let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* ---- open spans ---- *)

let max_open = 1 lsl 16

let o_layer = ints max_open
let o_host = ints max_open
let o_conn = ints max_open
let o_start = ints max_open
let o_parent = ints max_open
let o_id = ints max_open
let o_self = ints max_open
let free = ints max_open
let n_free = ref 0

let cur = ref (-1)
let last = ref 0
let next_id = ref 0

(* ---- per (host, layer) aggregates ---- *)

let slot_of host layer = (host * n_layers) + layer

let self_ns = Array.make (n_hosts * n_layers) 0

(* spans of this (host, layer) opened with no running span above them,
   and opened below a running span *)
let roots = Array.make (n_hosts * n_layers) 0
let nested = Array.make (n_hosts * n_layers) 0

(* spans opened directly below a span of this (host, layer) *)
let kids = Array.make (n_hosts * n_layers) 0

(* scheduler effects performed while a span of this (host, layer) was
   the innermost one running *)
let effects = Array.make (n_hosts * n_layers) 0

(* time and root spans with no span running: the scheduler's share *)
let sched_ns = ref 0
let sched_kids = ref 0

(* ---- finished-span log: id, parent, layer, host, conn, start, stop,
   self ---- *)

let fields = 8
let log_cap = 1 lsl 17

let log = ints (log_cap * fields)

let logged = ref 0

let reset () =
  cur := -1;
  n_free := max_open;
  for i = 0 to max_open - 1 do
    free.{i} <- i
  done;
  next_id := 0;
  Array.fill self_ns 0 (Array.length self_ns) 0;
  Array.fill roots 0 (Array.length roots) 0;
  Array.fill nested 0 (Array.length nested) 0;
  Array.fill kids 0 (Array.length kids) 0;
  Array.fill effects 0 (Array.length effects) 0;
  sched_ns := 0;
  sched_kids := 0;
  logged := 0;
  last := !clock ()

(* Charge the interval since the last event to whatever is running. *)
let charge now =
  let c = !cur in
  if c >= 0 then o_self.{c} <- o_self.{c} + (now - !last)
  else sched_ns := !sched_ns + (now - !last);
  last := now

(* [finish ()] charges the tail since the last event (to the scheduler
   when the cursor is parked) and returns the clock. *)
let finish () =
  let now = !clock () in
  charge now;
  now

let enter layer host conn =
  let now = !clock () in
  charge now;
  if !n_free = 0 then failwith "Span: too many open spans";
  decr n_free;
  let s = free.{!n_free} in
  let p = !cur in
  let here = slot_of host layer in
  o_layer.{s} <- layer;
  o_host.{s} <- host;
  o_start.{s} <- now;
  o_self.{s} <- 0;
  o_id.{s} <- !next_id;
  incr next_id;
  if p >= 0 then begin
    o_parent.{s} <- o_id.{p};
    o_conn.{s} <- (if conn >= 0 then conn else o_conn.{p});
    let up = slot_of o_host.{p} o_layer.{p} in
    kids.(up) <- kids.(up) + 1;
    nested.(here) <- nested.(here) + 1
  end
  else begin
    o_parent.{s} <- -1;
    o_conn.{s} <- conn;
    incr sched_kids;
    roots.(here) <- roots.(here) + 1
  end;
  cur := s;
  s

let leave s prev =
  let now = !clock () in
  charge now;
  let here = slot_of o_host.{s} o_layer.{s} in
  self_ns.(here) <- self_ns.(here) + o_self.{s};
  let base = !logged land (log_cap - 1) * fields in
  let put i v = Bigarray.Array1.unsafe_set log (base + i) v in
  put 0 o_id.{s};
  put 1 o_parent.{s};
  put 2 o_layer.{s};
  put 3 o_host.{s};
  put 4 o_conn.{s};
  put 5 o_start.{s};
  put 6 now;
  put 7 o_self.{s};
  incr logged;
  free.{!n_free} <- s;
  incr n_free;
  cur := prev

(* The outermost span of a thread: every effect performed below it is a
   possible thread switch. *)
let root layer host conn f x =
  let s = enter layer host conn in
  Effect.Deep.match_with f x
    {
      retc = (fun r -> leave s (-1); r);
      exnc = (fun e -> leave s (-1); raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) ->
              charge (!clock ());
              let running = !cur in
              if running >= 0 then begin
                let here = slot_of o_host.{running} o_layer.{running} in
                effects.(here) <- effects.(here) + 1
              end;
              cur := -1;
              let v = Effect.perform eff in
              charge (!clock ());
              cur := running;
              Effect.Deep.continue k v));
    }

(** [span layer host conn f x] is [f x], timed as work of [layer] on
    [host] for connection [conn] ([-1]: inherit the enclosing span's). *)
let span layer host conn f x =
  if not !on then f x
  else if !cur < 0 then root layer host conn f x
  else begin
    let prev = !cur in
    let s = enter layer host conn in
    match f x with
    | r ->
      leave s prev;
      r
    | exception e ->
      leave s prev;
      raise e
  end

(* ---- probe calibration ---- *)

type probe = {
  nested_parent_ns : float;  (** charged to the caller per nested span *)
  nested_self_ns : float;  (** charged to the nested span itself *)
  root_parent_ns : float;  (** charged to the scheduler per root span *)
  root_self_ns : float;  (** charged to the root span itself *)
  effect_self_ns : float;
      (** charged to the innermost span per effect its root intercepts *)
  effect_sched_ns : float;
      (** charged to the scheduler per intercepted effect, beyond what
          the effect costs with no span around it *)
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Empty spans and bare [Scheduler.now] effects in the same harness: 7
   rounds of 20 000 of each, the median of the rounds.  Clobbers the
   aggregates. *)
let calibrate () =
  let n = 20_000 and reps = 7 in
  let per x = float_of_int x /. float_of_int n in
  let was_on = !on in
  on := true;
  let spans () =
    reset ();
    let h = 0 in
    span app h (-1)
      (fun () ->
        for _ = 1 to n do
          span tcp h (-1) ignore ()
        done)
      ();
    let nested_parent = per self_ns.(slot_of h app) in
    let nested_self = per self_ns.(slot_of h tcp) in
    reset ();
    for _ = 1 to n do
      span eth h (-1) ignore ()
    done;
    ignore (finish ());
    (nested_parent, nested_self, per !sched_ns, per self_ns.(slot_of h eth))
  in
  (* the same effects outside any span, then below one root span *)
  let hops () =
    let now () =
      for _ = 1 to n do
        ignore (Fox_sched.Scheduler.now ())
      done
    in
    let bare = ref 0 in
    ignore
      (Fox_sched.Scheduler.run (fun () ->
           let t0 = !clock () in
           now ();
           bare := !clock () - t0;
           reset ();
           span eth 0 (-1) now ();
           ignore (finish ())));
    (per self_ns.(slot_of 0 eth), Float.max 0.0 (per !sched_ns -. per !bare))
  in
  let rounds = List.init reps (fun _ -> (spans (), hops ())) in
  on := was_on;
  reset ();
  let pick f = median (List.map f rounds) in
  {
    nested_parent_ns = pick (fun ((a, _, _, _), _) -> a);
    nested_self_ns = pick (fun ((_, b, _, _), _) -> b);
    root_parent_ns = pick (fun ((_, _, c, _), _) -> c);
    root_self_ns = pick (fun ((_, _, _, d), _) -> d);
    effect_self_ns = pick (fun (_, (e, _)) -> e);
    effect_sched_ns = pick (fun (_, (_, f)) -> f);
  }

(* ---- results ---- *)

type totals = {
  self : float array;  (** per (host, layer), probe cost subtracted *)
  spans : int array;  (** per (host, layer) *)
  sched : float;  (** probe cost subtracted *)
  probe : float;
      (** the subtracted cost of the spans themselves: with [hop], the
          "counters (est.)" row *)
  hop : float;  (** the subtracted cost of intercepting effects *)
  hops : int;  (** effects intercepted *)
  raw_sum : int;  (** raw self times plus raw scheduler time *)
}

(** [totals probe] reads the aggregates with the probe cost subtracted:
    each span pays its own share and its caller's share, and each
    intercepted effect its hop, on the span and on the scheduler. *)
let totals p =
  let k = n_hosts * n_layers in
  let probe = ref 0.0 and hop = ref 0.0 in
  let self =
    Array.init k (fun i ->
        let raw = float_of_int self_ns.(i) in
        let spans =
          (float_of_int roots.(i) *. p.root_self_ns)
          +. (float_of_int nested.(i) *. p.nested_self_ns)
          +. (float_of_int kids.(i) *. p.nested_parent_ns)
          |> Float.min raw
        in
        let hops = float_of_int effects.(i) *. p.effect_self_ns |> Float.min (raw -. spans) in
        probe := !probe +. spans;
        hop := !hop +. hops;
        raw -. spans -. hops)
  in
  let hops = Array.fold_left ( + ) 0 effects in
  let raw = float_of_int !sched_ns in
  let spans = Float.min (float_of_int !sched_kids *. p.root_parent_ns) raw in
  let sched_hops = Float.min (float_of_int hops *. p.effect_sched_ns) (raw -. spans) in
  {
    self;
    spans = Array.init k (fun i -> roots.(i) + nested.(i));
    sched = raw -. spans -. sched_hops;
    probe = !probe +. spans;
    hop = !hop +. sched_hops;
    hops;
    raw_sum = Array.fold_left ( + ) !sched_ns self_ns;
  }

(** [write_log path] writes the finished spans still in the ring as
    tab-separated lines. *)
let write_log path =
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\thost\tconn\tstart_ns\tstop_ns\tself_ns\n";
  let first = max 0 (!logged - log_cap) in
  for r = first to !logged - 1 do
    let base = r land (log_cap - 1) * fields in
    let g i = Bigarray.Array1.get log (base + i) in
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n" (g 0) (g 1)
      layer_names.(g 2) (g 3) (g 4) (g 5) (g 6) (g 7)
  done;
  close_out oc
