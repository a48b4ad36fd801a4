(** Passive open: what a listener holds between a peer's SYN and its
    handshake ACK, and what the engine does with each.

    Three regimes, chosen by {!Tcb.params}:
    - legacy ([syn_cache = false]): every admitted SYN gets a full
      SYN-RECEIVED TCB, at most [listen_backlog] of them per listener;
    - SYN cache: a half-open handshake is a compact entry, promoted to a
      TCB only by the handshake ACK; an entry expires once the peer has
      been silent for [2 × rto_max_us], longer than any retransmission
      gap its engine would use, and is purged lazily when the cache is
      consulted;
    - SYN cookies (RFC 4987 §3.6), when even the cache is full: the
      SYN-ACK's sequence number carries the handshake, and the listener
      holds nothing until the ACK echoes it back.

    Like {!Receive} and {!State}, this module takes the listener's state
    and a segment and returns a decision; the engine carries it out (the
    wire, the counters, the bus, the TCB).  Given the same calls it gives
    the same decisions. *)

(** What the engine does with one segment for a listening port. *)
type decision =
  | Syn_ack of { iss : Seq.t; irs : Seq.t }
      (** answer with a SYN-ACK from no TCB: a cache entry's (new, or
          again for a retransmitted SYN) or a cookie's *)
  | Open
      (** legacy regime: build a SYN-RECEIVED TCB from the SYN; the
          listener counts it half-open until {!Make.leave} *)
  | Promote of { iss : Seq.t; irs : Seq.t; peer_mss : int option }
      (** the handshake ACK of a cached or cookie handshake: build the
          TCB in ESTABLISHED ({!State.promote_passive}) and feed it the
          ACK *)
  | Refuse of string
      (** refuse the attempt per [refuse_with_rst]; the reason goes on
          the bus *)
  | Unknown  (** answer as for a segment of no connection *)
  | Drop
      (** an RST with the SYN cache on: count it and send nothing (its
          handshake, if exact, is already forgotten) *)

(** Cookies are minted under a tick of this many virtual µs (64 s), and
    one is accepted during its own tick and the next. *)
val cookie_tick_us : int

(** The four MSS values a cookie can carry, by class (its low two
    bits). *)
val mss_classes : int array

(** One listener's passive-open state, for peers named by ['h]. *)
type 'h t

(** [create params ~equal ~to_string ~secret ~iss] is a listener with
    no handshakes held.  It compares and formats hosts with [equal] and
    [to_string] ([Aux.equal] and [Aux.to_string] in the engine).
    [secret] keys the cookies (the engine's RFC 6528 secret); [iss]
    mints the ISS of a new cache entry. *)
val create :
  Tcb.params ->
  equal:('h -> 'h -> bool) ->
  to_string:('h -> string) ->
  secret:int * int ->
  iss:(host:'h -> local_port:int -> remote_port:int -> Seq.t) ->
  'h t

(** [segment t host hdr ~now ~room ~mss path] decides on [hdr], from
    [host], for no connection the engine has but a port [t] listens
    on.  [room] is whether the engine is under its [max_connections]
    cap; [mss path] is the MSS of the path the segment came on, asked
    for only when a SYN that announces none gets a cookie.

    A SYN (no ACK, no RST) gets [Syn_ack], [Open] or [Refuse]; with
    the SYN cache on, an ACK (no SYN, no RST) gets [Promote], [Refuse]
    (the cap) or [Unknown], and an RST gets [Drop], forgetting the
    handshake only when its sequence number is exactly the IRS plus
    one (RFC 5961 §3.2).  Anything else is [Unknown]. *)
val segment :
  'h t ->
  'h ->
  Tcp_header.t ->
  now:int ->
  room:bool ->
  mss:('path -> int) ->
  'path ->
  decision

(** [held t] is the number of SYN-cache entries, expired ones not yet
    purged included. *)
val held : _ t -> int

(** [half_open t] is the number of SYN-RECEIVED TCBs the legacy regime
    holds for [t]. *)
val half_open : _ t -> int

(** [leave t] frees a legacy half-open slot: its TCB established or
    died. *)
val leave : _ t -> unit
