(** Segment externalisation and internalisation.

    This is the wire-facing half of the paper's [Action] module ("timers
    and segment externalization and internalization" — the timers
    themselves are armed by the engine through {!Fox_sched.Timer}, since
    they need the connection):

    - [internalize] turns a received packet into a {!Tcb.segment}:
      checksum verification (against the pseudo-header supplied by the
      [IP_AUX] structure) and header decoding.  The caller then queues a
      [Process_data] action — receive processing itself never happens in
      the network upcall.
    - [externalize] turns a {!Tcb.send_segment} into bytes on the wire:
      header encoding, checksumming, and the single-buffer retransmission
      discipline (push headers into the segment's own buffer, send — the
      simulated device copies synchronously, like the paper's Mach
      interface — then restore the buffer for a possible retransmission).
*)

(** [internalize ~pseudo packet ~now] decodes and verifies with the
    Figure 10 checksum; the packet window is left at the segment text. *)
val internalize :
  pseudo:Fox_basis.Checksum.acc ->
  Fox_basis.Packet.t ->
  now:int ->
  (Tcb.segment, Tcp_header.error) result

(** [externalize ?defer ~pseudo_for ~hdr ~data ~allocate ~send]
    encodes and transmits one segment.  [pseudo_for len] must give the
    pseudo-header accumulator for a [len]-byte segment
    ({!Fox_basis.Checksum.none} when checksums are off); [allocate n] must
    return a packet with [n] bytes of window and full lower-stack headroom
    (used when [data] is [None]).  [?defer] is passed to
    {!Tcp_header.encode} (TX checksum offload).  The send action's
    reference to its data packet is consumed: it is
    {!Fox_basis.Packet.release}d after the send returns (the
    retransmission queue holds its own reference while the segment is
    unacknowledged). *)
val externalize :
  ?defer:bool ->
  pseudo_for:(int -> Fox_basis.Checksum.acc) ->
  hdr:Tcp_header.t ->
  data:Fox_basis.Packet.t option ->
  allocate:(int -> Fox_basis.Packet.t) ->
  send:(Fox_basis.Packet.t -> unit) ->
  unit ->
  unit
