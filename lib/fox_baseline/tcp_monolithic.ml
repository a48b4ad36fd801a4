(** A monolithic TCP, the comparison baseline.

    The paper benchmarks the Fox Net against the x-kernel's TCP — a
    conventional C implementation derived from the Berkeley code.  This
    module is that comparator's stand-in: the {e same} protocol on the
    {e same} wire format (it interoperates with {!Fox_tcp.Tcp} segment for
    segment, which the test suite checks in both directions), but written
    the conventional way the paper is arguing against:

    - one flat module, with all connection state in a single record and
      all processing in straight-line code — no [Tcb]/[State]/[Receive]
      decomposition;
    - {e direct synchronous calls} instead of the quasi-synchronous
      [to_do] queue: a segment arrival is fully processed, replies sent
      and data delivered, inside the network upcall;
    - the basic 16-bit checksum loop (the algorithm the paper attributes
      to the x-kernel) instead of Figure 10's;
    - immediate ACKs, no Nagle, no congestion window — the early-90s
      fast-but-blunt configuration.

    Because every effect happens inline, this engine does strictly less
    bookkeeping per segment than the structured one — which is exactly the
    performance-versus-structure trade-off Table 1 quantifies — but its
    behaviour under event reordering is not deterministic in the paper's
    sense, and none of its pieces can be tested in isolation.

    Deliberate simplifications (documented for the ablation study): no
    simultaneous-open support, no zero-window probing, retransmission
    always restarts from the oldest unacknowledged segment. *)

open Fox_basis
module Protocol = Fox_proto.Protocol
module Status = Fox_proto.Status
module Seq = Fox_tcp.Seq
module Tcp_header = Fox_tcp.Tcp_header
module Bus = Fox_obs.Bus

(** The settings the harnesses move: the fuzzers and [test_time_wait]
    shorten the timers and the backlog. *)
module type PARAMS = sig
  val rto_initial_us : int
  val rto_min_us : int
  val time_wait_us : int

  (** Half-open (SYN-RECEIVED) connections a listener may hold; further
      SYNs are silently dropped.  0 = unbounded. *)
  val listen_backlog : int
end

module Default_params : PARAMS = struct
  let rto_initial_us = 1_000_000
  let rto_min_us = 200_000
  let time_wait_us = 60_000_000
  let listen_backlog = 128
end

(* The fixed rest of the configuration.  Checksums are always computed,
   and the RFC 5961 blind-attack defenses (exact-match RST acceptance,
   SYN challenge instead of reset, ACK-range validation) are always on.
   Unlike the structured engine, the baseline sends its challenge ACKs
   unthrottled — straight-line code has nowhere natural to hang a global
   budget, which is itself part of the comparison. *)
let initial_window = 4096

let rto_max_us = 64_000_000

let max_retransmits = 12

let send_buffer_bytes = 65536

type stats = {
  segs_in : int;
  segs_out : int;
  bad_segments : int;
  rsts_sent : int;
  retransmissions : int;
  syn_dropped : int;  (** SYNs dropped because a listener's backlog was full *)
}

module Make
    (Lower : Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Aux : Protocol.IP_AUX
             with type lower_address = Lower.address
              and type lower_pattern = Lower.address_pattern
              and type lower_connection = Lower.connection)
    (Params : PARAMS) : sig
  type address = { peer : Aux.host; port : int; local_port : int option }

  type pattern = { local_port : int }

  include
    Protocol.PROTOCOL
      with type address := address
       and type address_pattern := pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  val create : Lower.t -> t

  val state_of : connection -> string

  val retransmissions_of : connection -> int

  val stats : t -> stats
end = struct
  include Fox_proto.Common

  let proto_number = 6

  type address = { peer : Aux.host; port : int; local_port : int option }

  type pattern = { local_port : int }

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  type conn_state =
    | SYN_SENT
    | SYN_RCVD
    | ESTAB
    | FIN_WAIT_1
    | FIN_WAIT_2
    | CLOSE_WAIT
    | CLOSING
    | LAST_ACK
    | TIME_WAIT
    | DEAD

  let state_name = function
    | SYN_SENT -> "SYN-SENT"
    | SYN_RCVD -> "SYN-RECEIVED"
    | ESTAB -> "ESTABLISHED"
    | FIN_WAIT_1 -> "FIN-WAIT-1"
    | FIN_WAIT_2 -> "FIN-WAIT-2"
    | CLOSE_WAIT -> "CLOSE-WAIT"
    | CLOSING -> "CLOSING"
    | LAST_ACK -> "LAST-ACK"
    | TIME_WAIT -> "TIME-WAIT"
    | DEAD -> "CLOSED"

  (* one entry per in-flight segment: (first seq, syn, fin, data) *)
  type entry = {
    e_seq : Seq.t;
    e_len : int;
    e_syn : bool;
    e_fin : bool;
    e_data : Packet.t option;
    mutable e_sends : int;
  }

  (* fills the unacked ring's empty cells; never read *)
  let no_entry =
    { e_seq = Seq.zero; e_len = 0; e_syn = false; e_fin = false;
      e_data = None; e_sends = 0 }

  type connection = {
    t : t;
    host : Aux.host;
    local_port : int;
    remote_port : int;
    lower : Lower.connection;
    lower_send : Packet.t -> unit;
    mutable st : conn_state;
    mutable iss : Seq.t;
    mutable snd_una : Seq.t;
    mutable snd_nxt : Seq.t;
    mutable snd_wnd : int;
    mutable max_snd_wnd : int;
        (* largest window the peer ever advertised — the RFC 5961 §5
           tolerance for how far behind snd_una an acceptable ACK may sit *)
    mutable irs : Seq.t;
    mutable rcv_nxt : Seq.t;
    mutable mss : int;
    unacked : entry Ring.t;
    pending : Packet.t Ring.t; (* user data not yet sent *)
    mutable pending_bytes : int;
    mutable fin_wanted : bool;
    mutable fin_sent : bool;
    mutable fin_acked : bool;
    mutable ooo : (Seq.t * Tcp_header.t * Packet.t) list;
    mutable rtx_timer : Fox_sched.Timer.t option;
    mutable wait_timer : Fox_sched.Timer.t option;
    mutable srtt : int;
    mutable rttvar : int;
    mutable rto : int;
    mutable backoff : int;
    mutable timing : (Seq.t * int) option;
    mutable retransmissions : int;
    mutable data : data_handler;
    mutable status : status_handler;
    open_mb : (unit, string) result Fox_sched.Cond.t;
    send_space : unit Fox_sched.Cond.t;
    mutable open_done : bool;
    mutable close_reason : Status.t option;
    mutable half_open_of : listener option;
        (** the listener whose backlog this SYN-RECEIVED connection
            occupies, until established or torn down *)
  }

  and listener = {
    l_t : t;
    l_port : int;
    l_handler : handler;
    mutable l_active : bool;
    mutable l_half_open : int;  (** SYN-RECEIVED connections held *)
  }

  and handler = connection -> data_handler * status_handler

  and t = {
    lower_instance : Lower.t;
    conns : (string * int * int, connection) Hashtbl.t;
    listeners : (int, listener) Hashtbl.t;
    lower_conns : (string, Lower.connection) Hashtbl.t;
    mutable iss_salt : int;
    mutable next_ephemeral : int;
    mutable init_count : int;
    mutable segs_in : int;
    mutable segs_out : int;
    mutable bad_segments : int;
    mutable rsts_sent : int;
    mutable syn_dropped : int;
    (* retransmissions of connections already removed from [conns], so
       [stats] stays accurate after teardown *)
    mutable dead_retransmissions : int;
  }

  let key host lp rp = (Aux.to_string host, lp, rp)

  (* Flight-recorder identity, built only when the bus is live. *)
  let obs_id conn =
    Printf.sprintf "%s:%d>%d" (Aux.to_string conn.host) conn.local_port
      conn.remote_port

  let state_of conn = state_name conn.st

  let retransmissions_of conn = conn.retransmissions

  let now () = Fox_sched.Scheduler.now ()

  let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

  (* ---- direct transmission: everything happens right here ---- *)

  let transmit conn ~seq ~syn ~fin ~rst ~ack ~data ~mss_opt =
    let hdr =
      {
        Tcp_header.src_port = conn.local_port;
        dst_port = conn.remote_port;
        seq;
        ack = (if ack then conn.rcv_nxt else Seq.zero);
        urg = false;
        ack_flag = ack;
        psh = data <> None;
        rst;
        syn;
        fin;
        window = initial_window;
        urgent = 0;
        mss = mss_opt;
      }
    in
    conn.t.segs_out <- conn.t.segs_out + 1;
    if rst then conn.t.rsts_sent <- conn.t.rsts_sent + 1;
    if !Bus.live then begin
      let b = Buffer.create 4 in
      if syn then Buffer.add_char b 'S';
      if fin then Buffer.add_char b 'F';
      if rst then Buffer.add_char b 'R';
      if ack then Buffer.add_char b 'A';
      Bus.emit ~layer:"baseline" ~conn:(obs_id conn)
        (Bus.Send
           {
             bytes = (match data with Some p -> Packet.length p | None -> 0);
             flags = Buffer.contents b;
           })
    end;
    let pseudo_for len =
      Aux.pseudo conn.lower ~proto:proto_number ~len
    in
    (* The shared codec's checksum.  A lower-layer refusal is treated
       like a lost packet: the retransmit timer recovers.  [externalize]
       consumes one reference to the text; the unacked queue keeps its
       own, so retransmits still see the bytes. *)
    (match data with Some d -> Packet.retain d | None -> ());
    try
      Fox_tcp.Action.externalize ~pseudo_for ~hdr ~data
        ~allocate:(fun len ->
          Packet.create
            ~headroom:(24 + Lower.headroom conn.lower)
            ~tailroom:(Lower.tailroom conn.lower)
            len)
        ~send:conn.lower_send ()
    with Send_failed _ -> ()

  let current_rto conn =
    clamp Params.rto_min_us rto_max_us (conn.rto lsl conn.backoff)

  let stop_rtx_timer conn =
    match conn.rtx_timer with
    | Some timer ->
      Fox_sched.Timer.clear timer;
      conn.rtx_timer <- None
    | None -> ()

  (* A SYN-RECEIVED connection stops occupying its listener's backlog
     slot: it established, or it died. *)
  let leave_half_open conn =
    match conn.half_open_of with
    | Some l ->
      conn.half_open_of <- None;
      l.l_half_open <- l.l_half_open - 1
    | None -> ()

  let teardown conn reason =
    if conn.st <> DEAD then begin
      leave_half_open conn;
      if !Bus.live then
        Bus.emit ~layer:"baseline" ~conn:(obs_id conn)
          (Bus.Note ("teardown: " ^ Status.to_string reason));
      conn.st <- DEAD;
      stop_rtx_timer conn;
      (match conn.wait_timer with
      | Some timer -> Fox_sched.Timer.clear timer
      | None -> ());
      Hashtbl.remove conn.t.conns (key conn.host conn.local_port conn.remote_port);
      conn.t.dead_retransmissions <-
        conn.t.dead_retransmissions + conn.retransmissions;
      if not conn.open_done then
        Fox_sched.Cond.signal conn.open_mb (Error (Status.to_string reason));
      Fox_sched.Cond.broadcast conn.send_space ();
      conn.status reason
    end

  let rec start_rtx_timer conn =
    stop_rtx_timer conn;
    let timer =
      Fox_sched.Timer.start (fun () -> on_rtx_timeout conn) (current_rto conn)
    in
    conn.rtx_timer <- Some timer

  and on_rtx_timeout conn =
    if conn.st <> DEAD then begin
      conn.rtx_timer <- None;
      if not (Ring.is_empty conn.unacked) then begin
        let e = Ring.peek conn.unacked in
        if e.e_sends > max_retransmits then begin
          conn.close_reason <- Some Status.Timed_out;
          teardown conn Status.Timed_out
        end
        else begin
          e.e_sends <- e.e_sends + 1;
          conn.retransmissions <- conn.retransmissions + 1;
          conn.backoff <- min (conn.backoff + 1) 16;
          if !Bus.live then
            Bus.emit ~layer:"baseline" ~conn:(obs_id conn)
              (Bus.Retransmit
                 { seq = Seq.to_int e.e_seq; len = e.e_len;
                   backoff = conn.backoff });
          (* Karn *)
          conn.timing <- None;
          transmit conn ~seq:e.e_seq ~syn:e.e_syn ~fin:e.e_fin ~rst:false
            ~ack:(not e.e_syn || conn.st <> SYN_SENT)
            ~data:e.e_data
            ~mss_opt:(if e.e_syn then Some conn.mss else None);
          start_rtx_timer conn
        end
      end
    end

  (* push out whatever the peer's window allows, straight off the pending
     queue — called from user sends and from ACK processing alike *)
  let rec push_output conn =
    let flight = Seq.diff conn.snd_nxt conn.snd_una in
    let usable = max 0 (conn.snd_wnd - flight) in
    (* sender-side SWS avoidance: emit a full MSS or the final piece of
       the stream, never a window-shaped sliver *)
    let budget = min conn.mss conn.pending_bytes in
    if conn.pending_bytes > 0 && budget > 0 && budget <= usable then begin
      let packet = Ring.pop conn.pending in
      let len = Packet.length packet in
      let data =
        if len <= budget then begin
          conn.pending_bytes <- conn.pending_bytes - len;
          packet
        end
        else begin
          let head = Packet.sub ~headroom:128 packet 0 budget in
          let tail = Packet.sub ~headroom:128 packet budget (len - budget) in
          conn.pending_bytes <- conn.pending_bytes - budget;
          Ring.push_front conn.pending tail;
          head
        end
      in
      let fin =
        conn.fin_wanted && (not conn.fin_sent) && Ring.is_empty conn.pending
        && 1 + Packet.length data <= usable
      in
      if fin then conn.fin_sent <- true;
      let e =
        {
          e_seq = conn.snd_nxt;
          e_len = Packet.length data + (if fin then 1 else 0);
          e_syn = false;
          e_fin = fin;
          e_data = Some data;
          e_sends = 1;
        }
      in
      conn.snd_nxt <- Seq.add conn.snd_nxt e.e_len;
      Ring.push conn.unacked e;
      if conn.timing = None then
        conn.timing <- Some (Seq.add e.e_seq e.e_len, now ());
      transmit conn ~seq:e.e_seq ~syn:false ~fin ~rst:false ~ack:true
        ~data:(Some data) ~mss_opt:None;
      if conn.rtx_timer = None then start_rtx_timer conn;
      push_output conn
    end
    else if
      conn.fin_wanted && (not conn.fin_sent) && conn.pending_bytes = 0
      && usable >= 1
    then begin
      conn.fin_sent <- true;
      let e =
        { e_seq = conn.snd_nxt; e_len = 1; e_syn = false; e_fin = true;
          e_data = None; e_sends = 1 }
      in
      conn.snd_nxt <- Seq.add conn.snd_nxt 1;
      Ring.push conn.unacked e;
      transmit conn ~seq:e.e_seq ~syn:false ~fin:true ~rst:false ~ack:true
        ~data:None ~mss_opt:None;
      if conn.rtx_timer = None then start_rtx_timer conn
    end

  let sample_rtt conn sample =
    if conn.srtt < 0 then begin
      conn.srtt <- sample;
      conn.rttvar <- sample / 2
    end
    else begin
      let err = sample - conn.srtt in
      conn.srtt <- conn.srtt + (err / 8);
      conn.rttvar <- conn.rttvar + ((abs err - conn.rttvar) / 4)
    end;
    conn.rto <-
      clamp Params.rto_min_us rto_max_us
        (conn.srtt + max 1 (4 * conn.rttvar))

  let ack_now conn = transmit conn ~seq:conn.snd_nxt ~syn:false ~fin:false
      ~rst:false ~ack:true ~data:None ~mss_opt:None

  (* [false] means RFC 5961 ack validation rejected the segment: a
     challenge ACK went out and the caller must drop the rest (text
     riding on an unacceptable ack is exactly the blind data-injection
     vector). *)
  let process_ack conn (hdr : Tcp_header.t) =
    if not hdr.Tcp_header.ack_flag then true
    else begin
      let ack = hdr.Tcp_header.ack in
      if
        Seq.gt ack conn.snd_nxt
        || Seq.lt ack (Seq.add conn.snd_una (-conn.max_snd_wnd))
      then begin
        ack_now conn;
        false
      end
      else begin
      if Seq.gt ack conn.snd_una && Seq.le ack conn.snd_nxt then begin
        conn.snd_una <- ack;
        conn.backoff <- 0;
        while
          (not (Ring.is_empty conn.unacked))
          &&
          let e = Ring.peek conn.unacked in
          Seq.le (Seq.add e.e_seq e.e_len) ack
        do
          if (Ring.pop conn.unacked).e_fin then conn.fin_acked <- true
        done;
        (match conn.timing with
        | Some (timed_end, sent_at) when Seq.le timed_end ack ->
          conn.timing <- None;
          sample_rtt conn (now () - sent_at)
        | _ -> ());
        if Ring.is_empty conn.unacked then stop_rtx_timer conn
        else start_rtx_timer conn;
        Fox_sched.Cond.broadcast conn.send_space ()
      end;
      conn.snd_wnd <- hdr.Tcp_header.window;
      conn.max_snd_wnd <- max conn.max_snd_wnd hdr.Tcp_header.window;
      push_output conn;
      true
      end
    end

  (* deliver in-order text (and any contiguous out-of-order backlog);
     returns true if a FIN was consumed *)
  let deliver conn (hdr : Tcp_header.t) packet =
    let fin_seen = ref false in
    let consume (seq : Seq.t) (h : Tcp_header.t) (data : Packet.t) =
      let len = Packet.length data in
      let offset = Seq.diff conn.rcv_nxt seq in
      if offset < len then begin
        let fresh = if offset = 0 then data else Packet.sub data offset (len - offset) in
        conn.rcv_nxt <- Seq.add seq len;
        conn.data fresh;
        if !Bus.live then
          Bus.emit ~layer:"baseline" ~conn:(obs_id conn)
            (Bus.Deliver { bytes = Packet.length fresh })
      end;
      if h.Tcp_header.fin && Seq.equal conn.rcv_nxt (Seq.add seq len) then begin
        conn.rcv_nxt <- Seq.add conn.rcv_nxt 1;
        fin_seen := true
      end
    in
    consume hdr.Tcp_header.seq hdr packet;
    let rec absorb () =
      match conn.ooo with
      | (seq, h, data) :: rest when Seq.le seq conn.rcv_nxt ->
        conn.ooo <- rest;
        if
          Seq.ge
            (Seq.add seq
               (Packet.length data + if h.Tcp_header.fin then 1 else 0))
            conn.rcv_nxt
        then consume seq h data;
        absorb ()
      | _ -> ()
    in
    absorb ();
    !fin_seen

  let enter_time_wait conn =
    conn.st <- TIME_WAIT;
    (match conn.wait_timer with
    | Some timer -> Fox_sched.Timer.clear timer
    | None -> ());
    conn.wait_timer <-
      Some
        (Fox_sched.Timer.start
           (fun () -> teardown conn Status.Closed)
           Params.time_wait_us)

  (* the whole receive side, straight-line *)
  let segment_arrives conn (hdr : Tcp_header.t) packet =
    match conn.st with
    | DEAD -> ()
    | SYN_SENT ->
      let ack_ok =
        hdr.Tcp_header.ack_flag
        && Seq.gt hdr.Tcp_header.ack conn.iss
        && Seq.le hdr.Tcp_header.ack conn.snd_nxt
      in
      if hdr.Tcp_header.rst then begin
        if ack_ok then begin
          conn.close_reason <- Some Status.Reset;
          teardown conn Status.Reset
        end
      end
      else if hdr.Tcp_header.syn && ack_ok then begin
        conn.irs <- hdr.Tcp_header.seq;
        conn.rcv_nxt <- Seq.add hdr.Tcp_header.seq 1;
        conn.snd_una <- hdr.Tcp_header.ack;
        conn.snd_wnd <- hdr.Tcp_header.window;
        conn.max_snd_wnd <- hdr.Tcp_header.window;
        (match hdr.Tcp_header.mss with
        | Some m -> conn.mss <- min conn.mss m
        | None -> ());
        Ring.clear conn.unacked;
        stop_rtx_timer conn;
        conn.st <- ESTAB;
        ack_now conn;
        conn.open_done <- true;
        Fox_sched.Cond.signal conn.open_mb (Ok ());
        conn.status Status.Connected;
        push_output conn
      end
    | _ ->
      (* window acceptability, abbreviated: tolerate anything overlapping
         [rcv_nxt, rcv_nxt + window) *)
      let seg_len =
        Packet.length packet
        + (if hdr.Tcp_header.syn then 1 else 0)
        + if hdr.Tcp_header.fin then 1 else 0
      in
      let seq = hdr.Tcp_header.seq in
      let in_window =
        Seq.in_window ~base:conn.rcv_nxt ~size:initial_window seq
        || (seg_len > 0
           && Seq.in_window ~base:conn.rcv_nxt ~size:initial_window
                (Seq.add seq (seg_len - 1)))
        || (seg_len = 0 && Seq.equal seq conn.rcv_nxt)
      in
      if not in_window then begin
        if not hdr.Tcp_header.rst then ack_now conn
      end
      else if hdr.Tcp_header.rst then begin
        (* RFC 5961 §3: only an RST at exactly rcv_nxt tears the
           connection down; a merely in-window one draws a challenge ACK
           so a blind forger has to hit one sequence number in 2^32 *)
        if Seq.equal seq conn.rcv_nxt then begin
          conn.close_reason <- Some Status.Reset;
          teardown conn Status.Reset
        end
        else ack_now conn
      end
      else if hdr.Tcp_header.syn && Seq.ge seq conn.rcv_nxt then begin
        (* RFC 5961 §4: challenge instead of reset — the legitimate peer
           answers a challenge with a RST at the exact sequence number,
           a forger gets nothing *)
        ack_now conn
      end
      else begin
        (* SYN-RCVD completes on any acceptable ack *)
        if
          conn.st = SYN_RCVD && hdr.Tcp_header.ack_flag
          && Seq.gt hdr.Tcp_header.ack conn.snd_una
          && Seq.le hdr.Tcp_header.ack conn.snd_nxt
        then begin
          conn.st <- ESTAB;
          leave_half_open conn;
          conn.open_done <- true;
          Fox_sched.Cond.signal conn.open_mb (Ok ());
          conn.status Status.Connected
        end;
        if not (process_ack conn hdr) then ()
        else if conn.st = DEAD then ()
        else begin
          (* state follow-ups of our FIN being acked *)
          (match conn.st with
          | FIN_WAIT_1 when conn.fin_acked -> conn.st <- FIN_WAIT_2
          | CLOSING when conn.fin_acked -> enter_time_wait conn
          | LAST_ACK when conn.fin_acked -> teardown conn Status.Closed
          | _ -> ());
          if conn.st = DEAD then ()
          else if Packet.length packet > 0 || hdr.Tcp_header.fin then begin
            if Seq.le seq conn.rcv_nxt then begin
              let fin = deliver conn hdr packet in
              ack_now conn;
              if fin then begin
                conn.status Status.Remote_close;
                match conn.st with
                | ESTAB -> conn.st <- CLOSE_WAIT
                | FIN_WAIT_1 ->
                  if conn.fin_acked then enter_time_wait conn
                  else conn.st <- CLOSING
                | FIN_WAIT_2 -> enter_time_wait conn
                | _ -> ()
              end
            end
            else begin
              (* out of order: stash and duplicate-ack *)
              conn.ooo <-
                List.sort (fun (a, _, _) (b, _, _) -> Seq.diff a b)
                  ((seq, hdr, Packet.copy packet) :: conn.ooo);
              ack_now conn
            end
          end
        end
      end

  (* ---- demux ---- *)

  let fresh_iss t =
    t.iss_salt <- t.iss_salt + 1;
    Seq.of_int ((now () / 4) + (t.iss_salt * 91199))

  let make_conn t ~host ~local_port ~remote_port ~lower ~st ~iss =
    {
      t;
      host;
      local_port;
      remote_port;
      lower;
      lower_send = Lower.prepare_send lower;
      st;
      iss;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = 0;
      max_snd_wnd = 0;
      irs = Seq.zero;
      rcv_nxt = Seq.zero;
      mss = 536;
      unacked = Ring.create ~dummy:no_entry;
      pending = Ring.create ~dummy:Packet.placeholder;
      pending_bytes = 0;
      fin_wanted = false;
      fin_sent = false;
      fin_acked = false;
      ooo = [];
      rtx_timer = None;
      wait_timer = None;
      srtt = -1;
      rttvar = 0;
      rto = Params.rto_initial_us;
      backoff = 0;
      timing = None;
      retransmissions = 0;
      data = ignore;
      status = ignore;
      open_mb = Fox_sched.Cond.create ();
      send_space = Fox_sched.Cond.create ();
      open_done = false;
      close_reason = None;
      half_open_of = None;
    }

  let accept t lconn (hdr : Tcp_header.t) listener =
    let host = Aux.source lconn in
    let conn =
      make_conn t ~host ~local_port:hdr.Tcp_header.dst_port
        ~remote_port:hdr.Tcp_header.src_port ~lower:lconn ~st:SYN_RCVD
        ~iss:(fresh_iss t)
    in
    conn.half_open_of <- Some listener;
    listener.l_half_open <- listener.l_half_open + 1;
    conn.irs <- hdr.Tcp_header.seq;
    conn.rcv_nxt <- Seq.add hdr.Tcp_header.seq 1;
    conn.snd_wnd <- hdr.Tcp_header.window;
    conn.max_snd_wnd <- hdr.Tcp_header.window;
    conn.mss <- max 64 (Aux.mtu lconn - Tcp_header.min_length);
    (match hdr.Tcp_header.mss with
    | Some m -> conn.mss <- min conn.mss m
    | None -> ());
    Hashtbl.replace t.conns
      (key host hdr.Tcp_header.dst_port hdr.Tcp_header.src_port)
      conn;
    let data, status = listener.l_handler conn in
    conn.data <- data;
    conn.status <- status;
    (* SYN-ACK, tracked for retransmission *)
    let e =
      { e_seq = conn.iss; e_len = 1; e_syn = true; e_fin = false;
        e_data = None; e_sends = 1 }
    in
    conn.snd_nxt <- Seq.add conn.iss 1;
    Ring.push conn.unacked e;
    transmit conn ~seq:conn.iss ~syn:true ~fin:false ~rst:false ~ack:true
      ~data:None ~mss_opt:(Some conn.mss);
    start_rtx_timer conn

  let send_refusal t lconn (hdr : Tcp_header.t) text_len =
    t.rsts_sent <- t.rsts_sent + 1;
    let lower_send = Lower.prepare_send lconn in
    let rst_hdr =
      if hdr.Tcp_header.ack_flag then
        { (Tcp_header.basic ~src_port:hdr.Tcp_header.dst_port
             ~dst_port:hdr.Tcp_header.src_port)
          with Tcp_header.seq = hdr.Tcp_header.ack; rst = true }
      else
        { (Tcp_header.basic ~src_port:hdr.Tcp_header.dst_port
             ~dst_port:hdr.Tcp_header.src_port)
          with
          Tcp_header.rst = true;
          ack_flag = true;
          ack =
            Seq.add hdr.Tcp_header.seq
              (text_len
              + (if hdr.Tcp_header.syn then 1 else 0)
              + if hdr.Tcp_header.fin then 1 else 0);
        }
    in
    let pseudo_for len = Aux.pseudo lconn ~proto:proto_number ~len in
    try
      Fox_tcp.Action.externalize ~pseudo_for ~hdr:rst_hdr
        ~data:None
        ~allocate:(fun len ->
          Packet.create ~headroom:(24 + Lower.headroom lconn)
            ~tailroom:(Lower.tailroom lconn) len)
        ~send:lower_send ()
    with Send_failed _ -> ()

  let receive t lconn packet =
    let pseudo =
      Aux.pseudo lconn ~proto:proto_number ~len:(Packet.length packet)
    in
    match Tcp_header.decode ~pseudo packet with
    | Error _ -> t.bad_segments <- t.bad_segments + 1
    | Ok hdr -> (
      t.segs_in <- t.segs_in + 1;
      let host = Aux.source lconn in
      match
        Hashtbl.find_opt t.conns
          (key host hdr.Tcp_header.dst_port hdr.Tcp_header.src_port)
      with
      | Some conn -> segment_arrives conn hdr packet
      | None -> (
        match Hashtbl.find_opt t.listeners hdr.Tcp_header.dst_port with
        | Some l
          when l.l_active && hdr.Tcp_header.syn
               && (not hdr.Tcp_header.ack_flag)
               && not hdr.Tcp_header.rst ->
          if
            Params.listen_backlog > 0
            && l.l_half_open >= Params.listen_backlog
          then begin
            (* backlog full: drop the SYN silently, like the classic BSD
               stacks this engine mirrors — the client's retransmission
               is the retry *)
            t.syn_dropped <- t.syn_dropped + 1;
            if !Bus.live then
              Bus.emit ~layer:"baseline"
                (Bus.Note "syn dropped: backlog full")
          end
          else accept t lconn hdr l
        | _ -> if not hdr.Tcp_header.rst then send_refusal t lconn hdr (Packet.length packet)))

  let lower_conn_for t host =
    let k = Aux.to_string host in
    match Hashtbl.find_opt t.lower_conns k with
    | Some lconn -> lconn
    | None ->
      let lconn =
        Lower.connect t.lower_instance
          (Aux.lower_address ~proto:proto_number host)
          (fun lconn -> ((fun packet -> receive t lconn packet), ignore))
      in
      Hashtbl.replace t.lower_conns k lconn;
      lconn

  (* ---- PROTOCOL ---- *)

  let connect t { peer; port = remote_port; local_port } handler =
    let local_port =
      match local_port with
      | Some p -> p
      | None ->
        let p = 49152 + (t.next_ephemeral land 0x3FFF) in
        t.next_ephemeral <- t.next_ephemeral + 1;
        p
    in
    let lconn = lower_conn_for t peer in
    let conn =
      make_conn t ~host:peer ~local_port ~remote_port ~lower:lconn
        ~st:SYN_SENT ~iss:(fresh_iss t)
    in
    conn.mss <- max 64 (Aux.mtu lconn - Tcp_header.min_length);
    Hashtbl.replace t.conns (key peer local_port remote_port) conn;
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    let e =
      { e_seq = conn.iss; e_len = 1; e_syn = true; e_fin = false;
        e_data = None; e_sends = 1 }
    in
    conn.snd_nxt <- Seq.add conn.iss 1;
    Ring.push conn.unacked e;
    transmit conn ~seq:conn.iss ~syn:true ~fin:false ~rst:false ~ack:false
      ~data:None ~mss_opt:(Some conn.mss);
    start_rtx_timer conn;
    match Fox_sched.Cond.wait conn.open_mb with
    | Ok () -> conn
    | Error msg -> raise (Connection_failed ("tcp open failed: " ^ msg))

  let start_passive t ({ local_port } : pattern) handler =
    if Hashtbl.mem t.listeners local_port then
      raise (Connection_failed "baseline tcp: port busy");
    let l =
      {
        l_t = t;
        l_port = local_port;
        l_handler = handler;
        l_active = true;
        l_half_open = 0;
      }
    in
    Hashtbl.replace t.listeners local_port l;
    l

  let stop_passive l =
    l.l_active <- false;
    Hashtbl.remove l.l_t.listeners l.l_port

  let send conn packet =
    if conn.st = DEAD then raise (Send_failed "baseline tcp: closed");
    while conn.st <> DEAD && conn.pending_bytes >= send_buffer_bytes do
      Fox_sched.Cond.wait conn.send_space
    done;
    if conn.st = DEAD then raise (Send_failed "baseline tcp: closed");
    Ring.push conn.pending packet;
    conn.pending_bytes <- conn.pending_bytes + Packet.length packet;
    push_output conn

  let prepare_send conn = send conn

  let close conn =
    match conn.st with
    | ESTAB | SYN_RCVD ->
      conn.fin_wanted <- true;
      conn.st <- FIN_WAIT_1;
      push_output conn
    | CLOSE_WAIT ->
      conn.fin_wanted <- true;
      conn.st <- LAST_ACK;
      push_output conn
    | SYN_SENT -> teardown conn Status.Closed
    | _ -> ()

  let abort conn =
    if conn.st <> DEAD then begin
      transmit conn ~seq:conn.snd_nxt ~syn:false ~fin:false ~rst:true ~ack:true
        ~data:None ~mss_opt:None;
      teardown conn Status.Aborted
    end

  let initialize t =
    if t.init_count = 0 then ignore (Lower.initialize t.lower_instance);
    t.init_count <- t.init_count + 1;
    t.init_count

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      Hashtbl.reset t.listeners;
      let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter abort conns;
      ignore (Lower.finalize t.lower_instance)
    end;
    t.init_count

  let max_packet_size conn = conn.mss

  let headroom conn = 24 + Lower.headroom conn.lower

  let tailroom conn = Lower.tailroom conn.lower

  let allocate_send conn len =
    Packet.create ~headroom:(headroom conn) ~tailroom:(tailroom conn) len

  let stats t =
    {
      segs_in = t.segs_in;
      segs_out = t.segs_out;
      bad_segments = t.bad_segments;
      rsts_sent = t.rsts_sent;
      retransmissions =
        Hashtbl.fold
          (fun _ c acc -> acc + c.retransmissions)
          t.conns t.dead_retransmissions;
      syn_dropped = t.syn_dropped;
    }

  let pp_address fmt { peer; port; local_port } =
    Format.fprintf fmt "%s:%d%s" (Aux.to_string peer) port
      (match local_port with
      | Some p -> Printf.sprintf " (from :%d)" p
      | None -> "")

  let create lower =
    let t =
      {
        lower_instance = lower;
        conns = Hashtbl.create 64;
        listeners = Hashtbl.create 8;
        lower_conns = Hashtbl.create 8;
        iss_salt = 0;
        next_ephemeral = 0;
        init_count = 0;
        segs_in = 0;
        segs_out = 0;
        bad_segments = 0;
        rsts_sent = 0;
        syn_dropped = 0;
        dead_retransmissions = 0;
      }
    in
    ignore
      (Lower.start_passive lower
         (Aux.default_pattern ~proto:proto_number)
         (fun lconn -> ((fun packet -> receive t lconn packet), ignore)));
    t
end
