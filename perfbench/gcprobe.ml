(* GC phase time from the runtime's own event ring ([runtime_events],
   bundled with OCaml 5).  Only the outermost phase of each nest is
   counted, so a minor collection and its sub-phases count once.  The
   time overlaps whatever span the collection interrupted: it is not
   subtracted from any layer's self time. *)

let not_gc = function
  | Runtime_events.EV_EXPLICIT_GC_STAT | Runtime_events.EV_EXPLICIT_GC_SET
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT ->
    true
  | _ -> false

let depth = ref 0
let began = ref 0L
let gc_ns = ref 0
let lost = ref 0

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if not (not_gc phase) then begin
        if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if not (not_gc phase) && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          gc_ns :=
            !gc_ns
            + Int64.to_int
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let start () = ignore (Lazy.force cursor)

(** [poll ()] drains the ring; call it often enough that it never wraps
    (every unit of work is plenty). *)
let poll () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

(** [measure f] is [f ()] and the GC nanoseconds it spent. *)
let measure f =
  poll ();
  let before = !gc_ns in
  let r = f () in
  poll ();
  (r, !gc_ns - before)
