(* The reference kernel: the host-speed yardstick of the end-to-end
   wall-clock metrics.

   The machine this benchmark was written on is a share of a busy host
   whose speed moves by up to 2x from one second to the next (another
   tenant on the same core, most likely): the same unit of [bulk] took
   115 ms or 60 ms, and two sets of ten runs gave medians 1.5x apart.
   No estimator over wall time alone survives that.  So each unit of
   work is timed between two runs of this kernel, and the wall-clock
   metrics are scaled by how long the kernel took around the unit
   against {!nominal_ns}, to the power {!exponent} (see fxbench.ml).

   The kernel calls nothing in the library, so it is the same work in
   every version of the repository.  It is a stream of segments, each a
   fresh 1500-byte frame with a 1460-byte copy into it, a 16-bit
   ones'-complement sum over it, a few small records and closures, a
   queue and a hash-table lookup, and then a burst of effect round
   trips through a handler, as the scheduler's thread switches make.
   The effects take most of its time: measured around some 1600 units
   of the three workloads, the unit times followed an effect loop more
   closely than the frame work alone, and far more closely than a
   pointer chase through 8 MB or a loop of indirect calls. *)

let segments = 1000
let effects_per_segment = 1024

(** What {!run} takes, in ns, on a host of the nominal speed: about
    what it took on the 2-vCPU Xeon the benchmark was written on, in
    that host's slower and commoner state. *)
let nominal_ns = 31e6

(** How much further the benchmark's units move than the kernel when
    the host's speed changes: a unit's time goes as the kernel's time
    to this power.  Fitted on the same paired units (0.9 to 1.3 by
    workload and by hour); without it, a run of [bulk] while the host
    was slow read 16 % below one while it was fast. *)
let exponent = 1.2

type seg = { seq : int; len : int; frame : Bytes.t; sum : int }
type _ Effect.t += Switch : int -> int Effect.t

let payload = Bytes.init 1460 (fun i -> Char.chr ((i * 7) land 0xff))

let sum16 b =
  let s = ref 0 in
  let j = ref 0 in
  while !j + 1 < Bytes.length b do
    s := !s + Bytes.get_uint16_be b !j;
    j := !j + 2
  done;
  let s = (!s land 0xffff) + (!s lsr 16) in
  (s land 0xffff) + (s lsr 16)

let handler =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | Switch v ->
          Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k (v land 7))
        | _ -> None);
  }

(** One run of the kernel; the result is a digest, so that nothing in
    it is dead code. *)
let run () =
  let tbl = Hashtbl.create 64 in
  for i = 0 to 63 do
    Hashtbl.replace tbl i (i * 3)
  done;
  let q = Queue.create () in
  let acc = ref 0 in
  let segment i =
    let frame = Bytes.create 1500 in
    Bytes.fill frame 0 40 '\000';
    Bytes.blit payload 0 frame 40 1460;
    Bytes.set_uint16_be frame 2 (i land 0xffff);
    let s = { seq = i; len = 1460; frame; sum = sum16 frame } in
    Queue.push s q;
    if Queue.length q > 3 then begin
      let x = Queue.pop q in
      acc := !acc + x.sum + x.len + Hashtbl.find tbl (x.seq land 63)
    end;
    let l = List.map (fun k -> k + s.sum) [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
    acc := !acc + List.fold_left ( + ) 0 l;
    for e = 1 to effects_per_segment do
      acc := !acc + Effect.perform (Switch (i + e))
    done
  in
  Effect.Deep.match_with
    (fun () ->
      for i = 1 to segments do
        segment i
      done)
    () handler;
  !acc
