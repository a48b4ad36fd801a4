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

(* One process-wide bus, touched by every shard: the registries and rings
   below are guarded by a single mutex.  The switch itself stays a plain
   ref — the hot path reads [!live] before paying for anything else, and
   a torn read there costs at worst one event recorded or skipped around
   the toggle instant.  Stats-provider closures are called *outside* the
   lock (they may re-enter the bus). *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

(* ------------------------------------------------------------------ *)
(* Rings: the global one and one per connection, all of typed events   *)
(* ------------------------------------------------------------------ *)

(* A {!Fox_basis.Ring} holding at most [cap] events: recording into a
   full one drops its oldest event.  The ring grows on demand, so a
   connection's allocates on its first event. *)
type log = { ring : event Fox_basis.Ring.t; cap : int; mutable dropped : int }

let sentinel = { time = 0; layer = ""; conn = ""; kind = Note "" }

let log cap = { ring = Fox_basis.Ring.create ~dummy:sentinel; cap; dropped = 0 }

let record l ev =
  if Fox_basis.Ring.length l.ring = l.cap then begin
    ignore (Fox_basis.Ring.pop l.ring);
    l.dropped <- l.dropped + 1
  end;
  Fox_basis.Ring.push l.ring ev

let global = ref (log 4096)

let per_conn_capacity = ref 512

let conn_rings : (string, log) Hashtbl.t = Hashtbl.create 16

let emitted_count = ref 0

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
    locked (fun () ->
        incr emitted_count;
        record !global ev;
        if conn <> "-" then begin
          match Hashtbl.find_opt conn_rings conn with
          | Some l -> record l ev
          | None ->
            let l = log !per_conn_capacity in
            Hashtbl.add conn_rings conn l;
            record l ev
        end)
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
      global := log !global.cap;
      emitted_count := 0;
      Hashtbl.reset conn_rings;
      (* stats providers too: a reset marks a fresh experiment, and stale
         providers would otherwise pin dead engines (and their closures)
         for the life of the process *)
      Hashtbl.reset stats_providers)

let enable ?capacity ?per_conn () =
  locked (fun () ->
      (match capacity with
      | Some c when c > 0 && c <> !global.cap -> global := log c
      | _ -> ());
      (match per_conn with
      | Some c when c > 0 -> per_conn_capacity := c
      | _ -> ());
      live := true)

let disable () = live := false

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let events () = locked (fun () -> Fox_basis.Ring.to_list !global.ring)

let dropped () = locked (fun () -> !global.dropped)

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
  locked (fun () ->
      Option.map
        (fun l -> Fox_basis.Ring.to_list l.ring)
        (Hashtbl.find_opt conn_rings id))
  |> Option.value ~default:[]
  |> List.map (fun ev ->
         Printf.sprintf "[%8d us] %s %s" ev.time ev.layer (render_kind ev.kind))
