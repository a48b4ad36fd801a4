(** A blocking, socket-style veneer over any protocol.

    The stack's native interface is upcall-driven (received data is pushed
    into the handler supplied at open time — Clark's upcalls, as in the
    x-kernel and the paper).  Many applications are more naturally written
    pull-style: a thread that [recv]s in a loop.  [Make (P)] bridges the
    two with a mailbox per connection: the upcall deposits packets, [recv]
    blocks (cooperatively) until one is available, and connection status
    transitions resolve pending reads to end-of-stream or errors.

    On top of the raw packet mailbox sits a {e byte-stream} layer —
    {!S.read_line}, {!S.read_exactly}, {!S.write_all} — with an internal
    receive buffer, so applications written against it never observe
    segment boundaries: a request line split across two segments, or two
    pipelined requests arriving in one segment, parse identically.  This
    framing contract is what the application layer ([Fox_app]) is written
    against.

    This is also the shape of interface the paper's Section 6 gestures at
    when it mentions CML-style abstractions as future work for "use by
    functional programmers". *)

open Fox_basis

type error = Closed | Reset | Timed_out | Line_too_long | Deadline_expired

let error_to_string = function
  | Closed -> "closed"
  | Reset -> "reset"
  | Timed_out -> "timed out"
  | Line_too_long -> "line too long"
  | Deadline_expired -> "read deadline expired"

exception Socket_error of error

(** The slice of {!Protocol.PROTOCOL} the veneer needs.  A structural
    signature so protocols whose specific signatures renamed
    [address_pattern] (e.g. to [pattern], via destructive substitution)
    can be adapted with a two-line [struct include P ... end]. *)
module type CONNECTOR = sig
  type t

  type address

  type address_pattern

  type connection

  type listener

  val connect :
    t -> address ->
    (connection -> (Packet.t -> unit) * (Status.t -> unit)) ->
    connection

  val start_passive :
    t -> address_pattern ->
    (connection -> (Packet.t -> unit) * (Status.t -> unit)) ->
    listener

  val allocate_send : connection -> int -> Packet.t

  val send : connection -> Packet.t -> unit

  val close : connection -> unit

  val abort : connection -> unit
end

(** The protocol-independent byte-stream operations — what applications
    ([Fox_app]) are functorized over.  Any [Make (P)] instance satisfies
    it, so the same application code serves over the simulated hub, the
    TAP device, or any congestion-control variant of the stack. *)
module type S = sig
  type t

  (** [recv sock] blocks until data arrives; [None] means the peer closed
      its side (end of stream).  Raises [Socket_error] on reset/timeout.
      Returns buffered bytes first, so it composes with the buffered
      reads below. *)
  val recv : t -> Packet.t option

  (** [recv_string sock] is [recv] as a string. *)
  val recv_string : t -> string option

  (** [read_exactly sock n] accumulates exactly [n] bytes across as many
      segments as needed ([None] if the stream ends first; surplus bytes
      stay buffered for the next read).  [read_exactly sock 0] is
      [Some ""]. *)
  val read_exactly : t -> int -> string option

  (** [recv_exactly] is the historical name of {!read_exactly}. *)
  val recv_exactly : t -> int -> string option

  (** [read_line sock] accumulates up to the next ["\n"] and returns the
      line without its terminator (["\r\n"] and ["\n"] both stripped).
      [None] at a clean end of stream; a final unterminated line is
      returned as-is.  If [max > 0] and no terminator appears within
      [max] bytes, raises [Socket_error Line_too_long] — the guard
      against a peer streaming an unbounded header line (the surplus
      stays buffered; the caller decides whether to answer or abort). *)
  val read_line : ?max:int -> t -> string option

  (** [write_all sock s] queues all of [s], segmenting as needed (may
      block on flow control). *)
  val write_all : t -> string -> unit

  (** [send sock packet] queues data (may block on flow control). *)
  val send : t -> Packet.t -> unit

  (** [send_string sock s] is {!write_all}. *)
  val send_string : t -> string -> unit

  (** [close sock] closes the send side gracefully. *)
  val close : t -> unit

  (** [abort sock] resets. *)
  val abort : t -> unit

  (** [peer_closed sock] is true once EOF has been observed. *)
  val peer_closed : t -> bool

  (** [set_read_deadline sock (Some us)] arms a read deadline [us] µs
      from now: a read still blocked when it passes raises
      [Socket_error Deadline_expired] (buffered bytes are always
      consumable — the deadline only interrupts waiting on the wire).
      The deadline is one-shot: it is disarmed when it fires.  [None]
      disarms; re-arming replaces the previous deadline.  This is the
      primitive slow-loris defenses are built on. *)
  val set_read_deadline : t -> int option -> unit
end

module Make (P : CONNECTOR) : sig
  include S

  (** [connect instance address] opens actively and returns once
      established. *)
  val connect : P.t -> P.address -> t

  (** [listen instance pattern serve] accepts connections and forks one
      scheduler thread per connection running [serve socket]. *)
  val listen : P.t -> P.address_pattern -> (t -> unit) -> P.listener

  (** The underlying connection, for statistics. *)
  val connection : t -> P.connection
end = struct
  type item = Data of Packet.t | Eof | Failed of error | Expired of int

  type t = {
    conn : P.connection;
    mailbox : item Fox_sched.Cond.t;
    (* the receive buffer: the delivered packet whose bytes are not all
       consumed yet, read in place — [rbuf] is its buffer and
       [rpos, rend) the unconsumed bytes.  The socket owns the packet
       and releases it when its last byte is consumed, or on abort;
       [rpkt] is {!Packet.placeholder} while nothing is buffered *)
    mutable rpkt : Packet.t;
    mutable rbuf : Bytes.t;
    mutable rpos : int;
    mutable rend : int;
    mutable eof_seen : bool;
    mutable failed : error option;
    (* read-deadline state: [deadline_gen] stamps each arming so an
       [Expired] from a replaced or disarmed deadline is recognisably
       stale and dropped *)
    mutable read_deadline : int option;
    mutable deadline_gen : int;
  }

  let connection t = t.conn

  let peer_closed t = t.eof_seen

  let buffered t = t.rend - t.rpos

  let drop_buffer t =
    Packet.release t.rpkt;
    t.rpkt <- Packet.placeholder;
    t.rbuf <- Bytes.empty;
    t.rpos <- 0;
    t.rend <- 0

  (* Consume [n] buffered bytes; the packet goes back with its last. *)
  let consume t n =
    t.rpos <- t.rpos + n;
    if t.rpos = t.rend then drop_buffer t

  (* Index of the first ['\n'] in [b] from [i] up to [stop], or -1. *)
  let rec newline b i stop =
    if i >= stop then -1
    else if Bytes.unsafe_get b i = '\n' then i
    else newline b (i + 1) stop

  let status_item = function
    | Status.Remote_close -> Some Eof
    | Status.Reset -> Some (Failed Reset)
    | Status.Timed_out -> Some (Failed Timed_out)
    | Status.Closed | Status.Aborted -> Some (Failed Closed)
    | Status.Connected | Status.Protocol_error _ -> None

  let make_handler cell conn =
    let mailbox = Fox_sched.Cond.create () in
    let sock =
      {
        conn;
        mailbox;
        rpkt = Packet.placeholder;
        rbuf = Bytes.empty;
        rpos = 0;
        rend = 0;
        eof_seen = false;
        failed = None;
        read_deadline = None;
        deadline_gen = 0;
      }
    in
    cell := Some sock;
    let data packet = Fox_sched.Cond.signal mailbox (Data packet) in
    let status s =
      match status_item s with
      | Some item -> Fox_sched.Cond.signal mailbox item
      | None -> ()
    in
    (sock, data, status)

  let connect instance address =
    let cell = ref None in
    let _conn =
      P.connect instance address (fun conn ->
          let _sock, data, status = make_handler cell conn in
          (data, status))
    in
    match !cell with
    | Some sock -> sock
    | None -> invalid_arg "Socket.connect: handler was not applied"

  let listen instance pattern serve =
    P.start_passive instance pattern (fun conn ->
        let cell = ref None in
        let sock, data, status = make_handler cell conn in
        Fox_sched.Scheduler.fork (fun () -> serve sock);
        (data, status))

  (* Pull the next segment into the receive buffer.  True if bytes became
     available, false at end of stream; raises on a failed connection
     (unless EOF was already seen — a clean close wins over the teardown
     statuses that follow it). *)
  let rec refill t =
    if t.eof_seen then false
    else (
      match t.failed with
      | Some e -> raise (Socket_error e)
      | None -> (
        match Fox_sched.Cond.wait t.mailbox with
        | Data packet ->
          if Packet.length packet = 0 then begin
            (* zero-length segments (pure FINs are not data, but a peer
               may send empty writes) carry no bytes: keep waiting *)
            Packet.release packet;
            refill t
          end
          else begin
            (* the upcall transferred ownership to the receive buffer *)
            t.rpkt <- packet;
            t.rbuf <- Packet.buffer packet;
            t.rpos <- Packet.offset packet;
            t.rend <- t.rpos + Packet.length packet;
            true
          end
        | Eof ->
          t.eof_seen <- true;
          false
        | Failed e ->
          t.failed <- Some e;
          refill t
        | Expired gen ->
          if gen = t.deadline_gen && t.read_deadline <> None then begin
            (* one-shot: the caller answers (e.g. HTTP 408) and decides
               whether to keep the connection *)
            t.read_deadline <- None;
            raise (Socket_error Deadline_expired)
          end
          else (* stale: a replaced or disarmed deadline *) refill t))

  (* Consume and return the whole receive buffer. *)
  let take_buffered t =
    let s = Bytes.sub_string t.rbuf t.rpos (buffered t) in
    drop_buffer t;
    s

  let recv_string t =
    if buffered t > 0 || refill t then Some (take_buffered t) else None

  let recv t = Option.map Packet.of_string (recv_string t)

  (* A read that is already buffered is one [Bytes.sub_string] of the
     packet; only one that spans segments gathers in a [Buffer]. *)
  let read_exactly t n =
    if n < 0 then invalid_arg "Socket.read_exactly: negative length";
    if n = 0 then Some ""
    else if buffered t >= n || (buffered t = 0 && refill t && buffered t >= n)
    then begin
      let s = Bytes.sub_string t.rbuf t.rpos n in
      consume t n;
      Some s
    end
    else begin
      let out = Buffer.create n in
      let rec go () =
        let want = n - Buffer.length out in
        if want = 0 then Some (Buffer.contents out)
        else begin
          let have = buffered t in
          if have > 0 then begin
            let take = Int.min have want in
            Buffer.add_subbytes out t.rbuf t.rpos take;
            consume t take;
            go ()
          end
          else if refill t then go ()
          else None
        end
      in
      go ()
    end

  let recv_exactly = read_exactly

  let strip_cr line =
    let len = String.length line in
    if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1)
    else line

  (* [out] holds the start of a line that spans segments, if any. *)
  let read_line ?(max = 0) t =
    let too_long n = max > 0 && n > max in
    let rec go out =
      let sofar = match out with Some b -> Buffer.length b | None -> 0 in
      if buffered t = 0 && not (refill t) then
        if sofar > 0 then Option.map Buffer.contents out else None
      else begin
        let have = buffered t in
        let nl = newline t.rbuf t.rpos t.rend in
        if nl >= 0 then begin
          let line_len = nl - t.rpos in
          if too_long (sofar + line_len) then
            raise (Socket_error Line_too_long);
          let line =
            match out with
            | None ->
              let cr = line_len > 0 && Bytes.get t.rbuf (nl - 1) = '\r' in
              Bytes.sub_string t.rbuf t.rpos
                (if cr then line_len - 1 else line_len)
            | Some b ->
              Buffer.add_subbytes b t.rbuf t.rpos line_len;
              strip_cr (Buffer.contents b)
          in
          consume t (line_len + 1);
          Some line
        end
        else begin
          if too_long (sofar + have) then raise (Socket_error Line_too_long);
          let b = match out with Some b -> b | None -> Buffer.create 64 in
          Buffer.add_subbytes b t.rbuf t.rpos have;
          consume t have;
          go (Some b)
        end
      end
    in
    go None

  let send t packet = P.send t.conn packet

  (* Bound per-packet allocation: very long writes are split before the
     send queue, so one [write_all] of a large response body does not
     pin one giant buffer. *)
  let write_chunk = 8192

  let write_all t s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      let n = Int.min write_chunk (len - !off) in
      let p = P.allocate_send t.conn n in
      Packet.blit_from_string s !off p 0 n;
      (* the protocol consumes the packet on success; on failure (closed
         or reset connection) ownership never transferred, so it must be
         released here *)
      (match P.send t.conn p with
      | () -> ()
      | exception e ->
        Packet.release p;
        raise e);
      off := !off + n
    done

  let send_string = write_all

  let close t = P.close t.conn

  let abort t =
    (* an abort abandons the receive buffer and the mailbox: release the
       held packet and any undelivered segments so a reset connection
       leaves no live buffers behind *)
    drop_buffer t;
    let rec drain () =
      match Fox_sched.Cond.try_wait t.mailbox with
      | Some (Data packet) ->
        Packet.release packet;
        drain ()
      | Some (Eof | Failed _ | Expired _) -> drain ()
      | None -> ()
    in
    drain ();
    P.abort t.conn

  let set_read_deadline t d =
    t.deadline_gen <- t.deadline_gen + 1;
    match d with
    | None -> t.read_deadline <- None
    | Some us ->
      let gen = t.deadline_gen in
      let due = Fox_sched.Scheduler.now () + Int.max 0 us in
      t.read_deadline <- Some due;
      (* the watcher runs from the scheduler loop at [due] on the
         virtual clock and posts into the mailbox like any other event,
         so expiry is serialised with data arrival — no racing wakeups *)
      Fox_sched.Scheduler.call_at due (fun () ->
          if t.deadline_gen = gen then
            Fox_sched.Cond.signal t.mailbox (Expired gen))
end
