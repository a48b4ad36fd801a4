type timer_event = Set of int | Cleared | Expired

type kind =
  | Send of { bytes : int; flags : string }
  | Deliver of { bytes : int }
  | Retransmit of { seq : int; len : int; backoff : int }
  | Timer of { timer : string; what : timer_event }
  | State of { from_ : string; to_ : string }
  | Span of { name : string; dur_us : int; bytes : int }
  | Note of string

type event = { time : int; layer : string; conn : string; kind : kind }

(* ------------------------------------------------------------------ *)
(* The switch                                                          *)
(* ------------------------------------------------------------------ *)

let live = ref false

let enabled () = !live

(* One process-wide bus, touched by every shard: the registries and rings
   below are guarded by a single mutex.  The switch itself stays a plain
   ref — the hot path reads [!live] before paying for anything else, and
   a torn read there costs at worst one event recorded or skipped around
   the toggle instant.  Subscriber and stats-provider closures are called
   *outside* the lock (they may re-enter the bus). *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

(* ------------------------------------------------------------------ *)
(* Rings: the global one and one per connection, all of typed events   *)
(* ------------------------------------------------------------------ *)

let sentinel = { time = 0; layer = ""; conn = ""; kind = Note "" }

type ring = {
  mutable items : event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let ring capacity =
  { items = Array.make capacity sentinel; head = 0; len = 0; dropped = 0 }

let ring_add r ev =
  let cap = Array.length r.items in
  r.items.((r.head + r.len) mod cap) <- ev;
  if r.len < cap then r.len <- r.len + 1
  else begin
    r.head <- (r.head + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

let ring_events r =
  List.init r.len (fun i -> r.items.((r.head + i) mod Array.length r.items))

let global = ring 4096

let per_conn_capacity = ref 512

let conn_rings : (string, ring) Hashtbl.t = Hashtbl.create 16

let emitted_count = ref 0

(* ------------------------------------------------------------------ *)
(* Subscribers and toggle listeners                                    *)
(* ------------------------------------------------------------------ *)

type subscription = int

let next_sub = ref 0

let subscribers : (int * (event -> unit)) list ref = ref []

let subscribe f =
  locked (fun () ->
      incr next_sub;
      subscribers := (!next_sub, f) :: !subscribers;
      !next_sub)

let unsubscribe id =
  locked (fun () ->
      subscribers := List.filter (fun (i, _) -> i <> id) !subscribers)

let toggle_listeners : (bool -> unit) list ref = ref []

let on_toggle f = locked (fun () -> toggle_listeners := f :: !toggle_listeners)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_kind = function
  | Send { bytes; flags } ->
    if flags = "" then Printf.sprintf "send %dB" bytes
    else Printf.sprintf "send %dB [%s]" bytes flags
  | Deliver { bytes } -> Printf.sprintf "deliver %dB" bytes
  | Retransmit { seq; len; backoff } ->
    Printf.sprintf "retransmit seq=%d len=%d backoff=%d" seq len backoff
  | Timer { timer; what } -> (
    match what with
    | Set us -> Printf.sprintf "timer %s set %dus" timer us
    | Cleared -> Printf.sprintf "timer %s cleared" timer
    | Expired -> Printf.sprintf "timer %s expired" timer)
  | State { from_; to_ } -> Printf.sprintf "state %s -> %s" from_ to_
  | Span { name; dur_us; bytes } ->
    Printf.sprintf "span %s %dus %dB" name dur_us bytes
  | Note msg -> msg

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Emission happens inside scheduler runs; stamping falls back to 0 when
   called from plain code (e.g. a unit test exercising the bus alone). *)
let now () = try Fox_sched.Scheduler.now () with Effect.Unhandled _ -> 0

let emit ?time ?(conn = "-") ~layer kind =
  if !live then begin
    let time = match time with Some t -> t | None -> now () in
    let ev = { time; layer; conn; kind } in
    let subs =
      locked (fun () ->
          incr emitted_count;
          ring_add global ev;
          if conn <> "-" then begin
            match Hashtbl.find_opt conn_rings conn with
            | Some r -> ring_add r ev
            | None ->
              let r = ring !per_conn_capacity in
              Hashtbl.add conn_rings conn r;
              ring_add r ev
          end;
          !subscribers)
    in
    List.iter (fun (_, f) -> f ev) subs
  end

(* ------------------------------------------------------------------ *)
(* Stats providers (lazy: cost is one closure per registered engine)   *)
(* ------------------------------------------------------------------ *)

let stats_providers : (string, unit -> string) Hashtbl.t = Hashtbl.create 16

let register_stats ~id f =
  locked (fun () -> Hashtbl.replace stats_providers id f)

let unregister_stats ~id = locked (fun () -> Hashtbl.remove stats_providers id)

let stats_snapshots () =
  let providers =
    locked (fun () ->
        Hashtbl.fold (fun id f acc -> (id, f) :: acc) stats_providers [])
  in
  List.map (fun (id, f) -> (id, f ())) providers
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Histogram registry                                                  *)
(* ------------------------------------------------------------------ *)

let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

let register_histogram name h = locked (fun () -> Hashtbl.replace hists name h)

let histograms () =
  locked (fun () -> Hashtbl.fold (fun name h acc -> (name, h) :: acc) hists [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Control                                                             *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked (fun () ->
      global.head <- 0;
      global.len <- 0;
      global.dropped <- 0;
      emitted_count := 0;
      Hashtbl.reset conn_rings;
      (* stats providers too: a reset marks a fresh experiment, and stale
         providers would otherwise pin dead engines (and their closures)
         for the life of the process *)
      Hashtbl.reset stats_providers)

(* Flip the switch; the listeners of an actual edge run outside the lock. *)
let toggle on =
  let was = !live in
  live := on;
  if was = on then [] else !toggle_listeners

let enable ?capacity ?per_conn () =
  let listeners =
    locked (fun () ->
        (match capacity with
        | Some c when c > 0 && c <> Array.length global.items ->
          global.items <- Array.make c sentinel;
          global.head <- 0;
          global.len <- 0
        | _ -> ());
        (match per_conn with
        | Some c when c > 0 -> per_conn_capacity := c
        | _ -> ());
        toggle true)
  in
  List.iter (fun f -> f true) listeners

let disable () =
  let listeners = locked (fun () -> toggle false) in
  List.iter (fun f -> f false) listeners

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let events () = locked (fun () -> ring_events global)

let dropped () = locked (fun () -> global.dropped)

let emitted () = locked (fun () -> !emitted_count)

let conn_ids () =
  locked (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) conn_rings [])
  |> List.sort String.compare

let dump () =
  List.map
    (fun ev ->
      Printf.sprintf "[%8d us] %-12s %-24s %s" ev.time ev.layer ev.conn
        (render_kind ev.kind))
    (events ())

let dump_conn id =
  locked (fun () -> Option.map ring_events (Hashtbl.find_opt conn_rings id))
  |> Option.value ~default:[]
  |> List.map (fun ev ->
         Printf.sprintf "[%8d us] %s %s" ev.time ev.layer (render_kind ev.kind))
