(** Synchronous typed channels, CML style.

    The paper's Section 6 names Reppy's Concurrent ML — "typed channels
    and lightweight threads integrated into a parallel programming
    environment" — as the interface it might offer functional programmers
    next.  This module provides the core of that: a ['a t] is a
    rendezvous point; [send] and [recv] block until both parties arrive,
    then transfer the value atomically (with respect to the cooperative
    scheduler).  [select] waits on several channels at once.

    Built entirely on {!Scheduler.suspend}, like everything else in the
    threading layer. *)

open Fox_basis

type 'a t = {
  senders : (unit -> 'a) Ring.t;
      (** blocked senders' offers: each resumes its sender and returns the
          value *)
  receivers : ('a -> unit) Ring.t;  (** resumers of blocked receivers *)
}

let create () =
  {
    senders = Ring.create ~dummy:(fun () -> invalid_arg "Channel: no sender");
    receivers = Ring.create ~dummy:ignore;
  }

(** [send ch v] blocks until a receiver takes [v]. *)
let send ch v =
  if Ring.is_empty ch.receivers then
    Scheduler.suspend (fun resume_tx ->
        Ring.push ch.senders (fun () -> resume_tx (); v))
  else (Ring.pop ch.receivers) v

(** [recv ch] blocks until a sender offers a value. *)
let recv ch =
  if Ring.is_empty ch.senders then
    Scheduler.suspend (fun resume_rx -> Ring.push ch.receivers resume_rx)
  else (Ring.pop ch.senders) ()

(** [try_send ch v] succeeds only if a receiver is already waiting. *)
let try_send ch v =
  if Ring.is_empty ch.receivers then false
  else begin
    (Ring.pop ch.receivers) v;
    true
  end

(** [try_recv ch] succeeds only if a sender is already waiting. *)
let try_recv ch =
  if Ring.is_empty ch.senders then None else Some ((Ring.pop ch.senders) ())

(** [select chans] blocks until any of [chans] has a sender, returning the
    channel index and the value.  A ready channel (sender already waiting)
    wins immediately, earliest channel first. *)
let select chans =
  let rec try_ready i = function
    | [] -> None
    | ch :: rest -> (
      match try_recv ch with
      | Some v -> Some (i, v)
      | None -> try_ready (i + 1) rest)
  in
  match try_ready 0 chans with
  | Some result -> result
  | None ->
    (* park one receiver on every channel; the first sender to arrive
       wins and the others are disarmed *)
    Scheduler.suspend (fun resume ->
        let taken = ref false in
        List.iteri
          (fun i ch ->
            Ring.push ch.receivers (fun v ->
                if !taken then
                  (* already resolved: put the value back for the next
                     receiver (re-offer as a ready sender) *)
                  Ring.push ch.senders (fun () -> v)
                else begin
                  taken := true;
                  resume (i, v)
                end))
          chans)

(** Number of blocked senders / receivers (tests, introspection). *)

let waiting_senders ch = Ring.length ch.senders

let waiting_receivers ch = Ring.length ch.receivers
