(** Address Resolution Protocol.

    [Make (Eth)] slots between Ethernet and IP: it satisfies the generic
    {!Fox_proto.Protocol.PROTOCOL} signature with IPv4 {e next-hop
    addresses}, so the IP functor can be applied to it directly — IP asks
    for "a connection to 10.0.0.2" and ARP turns that into an Ethernet
    connection to the right station, broadcasting requests and answering
    peers' requests for our own address along the way.

    Opening a connection never blocks.  On a cache miss {!connect}
    returns an unresolved connection and starts the request/retry
    exchange; frames sent on it before the reply are held on the pending
    entry and the reply's delivery sends them.  RFC 1122 §2.3.2.2 asks
    for at least the latest; we keep the latest 64 KiB, so that the
    fragments of one maximal datagram survive together.  So a receive
    upcall that answers a station it has not resolved yet — a SYN-ACK
    to a peer that reached us through a static entry — never waits.
    Only {!resolve} blocks its (thread) caller.

    Passively accepted connections (frames from stations that spoke first)
    carry an unknown peer IP — IP does not care, it demultiplexes on its own
    header — and are keyed by station instead. *)

open Fox_basis
module Mac = Fox_eth.Mac
module Frame = Fox_eth.Frame
module Ipv4_addr = Fox_ip.Ipv4_addr

type config = {
  cache_timeout_us : int;  (** lifetime of a learned entry *)
  request_timeout_us : int;  (** wait per request before retrying *)
  retries : int;  (** requests sent before giving up *)
}

let default_config =
  { cache_timeout_us = 600_000_000; request_timeout_us = 100_000; retries = 3 }

type stats = {
  requests_sent : int;
  replies_sent : int;
  replies_received : int;
  resolution_failures : int;
  cache_hits : int;
  cache_misses : int;
}

(** The ARP-specific protocol signature. *)
module type S = sig
  include
    Fox_proto.Protocol.PROTOCOL
      with type address = Ipv4_addr.t
       and type address_pattern = unit
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  type eth_instance

  (** [create eth ~local_ip ?config ()] installs the ARP listener on
      [eth] and starts answering requests for [local_ip]. *)
  val create : eth_instance -> local_ip:Ipv4_addr.t -> ?config:config -> unit -> t

  (** [resolve t ip] is the station address for [ip], from cache or by a
      blocking request exchange; [None] after all retries time out.  It
      suspends the calling thread, so it is not for receive upcalls:
      {!connect} never waits. *)
  val resolve : t -> Ipv4_addr.t -> Mac.t option

  (** [lookup t ip] peeks at the cache without generating traffic. *)
  val lookup : t -> Ipv4_addr.t -> Mac.t option

  (** [add_static t ip mac] pins a permanent entry. *)
  val add_static : t -> Ipv4_addr.t -> Mac.t -> unit

  val stats : t -> stats
end

(* ARP packet layout for Ethernet/IPv4 (28 bytes). *)
let arp_length = 28

let op_request = 1

let op_reply = 2

(* The most a pending entry holds; older frames are dropped first. *)
let hold_bytes = 65_536

module Make (Eth : Fox_eth.Eth.S) : S with type eth_instance = Eth.t = struct
  include Fox_proto.Common

  type address = Ipv4_addr.t

  type address_pattern = unit

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Fox_proto.Status.t -> unit

  type eth_instance = Eth.t

  type cache_entry = { mac : Mac.t; expires_at : int option }

  (* A request exchange in flight.  [held] are the frames sent on the
     connection to the station while it runs, oldest first (copies, this
     layer's to release), [held_bytes] their length: the reply sends
     them, a failed exchange drops them. *)
  type resolution = {
    mailbox : Mac.t option Fox_sched.Cond.t;
    held : Packet.t Queue.t;
    mutable held_bytes : int;
  }

  type connection = {
    arp : t;
    peer_ip : Ipv4_addr.t option; (* None for passively accepted stations *)
    mutable eth_conn : Eth.connection option; (* None until resolved *)
    mutable data : data_handler;
    mutable status : status_handler;
    mutable alive : bool;
  }

  and listener = { l_arp : t; mutable l_active : bool }

  and handler = connection -> data_handler * status_handler

  and t = {
    eth : Eth.t;
    local_ip : Ipv4_addr.t;
    config : config;
    cache : (int, cache_entry) Hashtbl.t;
    pending : (int, resolution) Hashtbl.t;
    conns : (int, connection) Hashtbl.t; (* by peer ip *)
    mutable passive : (listener * handler) option;
    mutable broadcast_conn : Eth.connection option;
    mutable init_count : int;
    mutable requests_sent : int;
    mutable replies_sent : int;
    mutable replies_received : int;
    mutable resolution_failures : int;
    mutable cache_hits : int;
    mutable cache_misses : int;
  }

  (* ---------------- the ARP protocol itself ---------------- *)

  let encode_arp ~op ~sha ~spa ~tha ~tpa =
    let p = Packet.create ~headroom:(Frame.header_length + 4) arp_length in
    Packet.set_u16 p 0 1 (* htype ethernet *);
    Packet.set_u16 p 2 Frame.ethertype_ipv4;
    Packet.set_u8 p 4 6;
    Packet.set_u8 p 5 4;
    Packet.set_u16 p 6 op;
    Mac.write sha (Packet.buffer p) (Packet.offset p + 8);
    Ipv4_addr.write spa (Packet.buffer p) (Packet.offset p + 14);
    Mac.write tha (Packet.buffer p) (Packet.offset p + 18);
    Ipv4_addr.write tpa (Packet.buffer p) (Packet.offset p + 24);
    p

  type arp_message = {
    op : int;
    sha : Mac.t;
    spa : Ipv4_addr.t;
    tpa : Ipv4_addr.t;
  }

  let decode_arp p =
    if
      Packet.length p < arp_length
      || Packet.get_u16 p 0 <> 1
      || Packet.get_u16 p 2 <> Frame.ethertype_ipv4
      || Packet.get_u8 p 4 <> 6
      || Packet.get_u8 p 5 <> 4
    then None
    else
      Some
        {
          op = Packet.get_u16 p 6;
          sha = Mac.read (Packet.buffer p) (Packet.offset p + 8);
          spa = Ipv4_addr.read (Packet.buffer p) (Packet.offset p + 14);
          tpa = Ipv4_addr.read (Packet.buffer p) (Packet.offset p + 24);
        }

  (* Bind an active connection to its peer's station.  The Ethernet
     session may already exist (the peer spoke first); in that case its
     handler — installed by our own IPv4 listener — already routes to the
     same place. *)
  let attach conn mac =
    conn.eth_conn <-
      Some
        (Eth.connect conn.arp.eth
           { dest = mac; proto = Frame.ethertype_ipv4 }
           (fun _econn -> ((fun packet -> conn.data packet), ignore)))

  (* End an exchange's hold: [f] each held frame, oldest first, then
     release it. *)
  let drain res f =
    Queue.iter
      (fun frame ->
        f frame;
        Packet.release frame)
      res.held;
    Queue.clear res.held;
    res.held_bytes <- 0

  let learn t ip mac =
    let expires_at =
      if t.config.cache_timeout_us <= 0 then None
      else Some (Fox_sched.Scheduler.now () + t.config.cache_timeout_us)
    in
    let key = Ipv4_addr.to_int ip in
    Hashtbl.replace t.cache key { mac; expires_at };
    match Hashtbl.find_opt t.pending key with
    | Some res ->
      Hashtbl.remove t.pending key;
      t.replies_received <- t.replies_received + 1;
      Fox_sched.Cond.broadcast res.mailbox (Some mac);
      let econn =
        match Hashtbl.find_opt t.conns key with
        | Some conn ->
          if Option.is_none conn.eth_conn then attach conn mac;
          conn.eth_conn
        | None -> None (* closed meanwhile: its frames are dropped *)
      in
      drain res (fun frame -> Option.iter (fun e -> Eth.send e frame) econn)
    | None -> ()

  (* Handle an ARP frame arriving on [econn] (the Ethernet session to the
     frame's source station).  The frame is this layer's to give back:
     everything it carries is decoded before it is released.  A message
     whose sender hardware address is not the frame's source is dropped
     unlearned and unanswered: the FCS is not checked, so a bit flipped
     on the wire would otherwise poison the cache for a whole timeout. *)
  let receive_arp t econn frame =
    let message = decode_arp frame in
    Packet.release frame;
    match message with
    | Some { sha; _ } when not (Mac.equal sha (Eth.peer econn)) -> ()
    | None -> ()
    | Some { op; sha; spa; tpa } ->
      if op = op_request && Ipv4_addr.equal tpa t.local_ip then begin
        (* learn the asker and answer on its session *)
        learn t spa sha;
        let reply =
          encode_arp ~op:op_reply ~sha:(Eth.local_mac t.eth) ~spa:t.local_ip
            ~tha:sha ~tpa:spa
        in
        t.replies_sent <- t.replies_sent + 1;
        (* a lower-layer send copies what it transmits; the caller keeps
           its packet, so both messages this layer builds go back here *)
        Fun.protect ~finally:(fun () -> Packet.release reply) (fun () ->
            Eth.send econn reply)
      end
      else if op = op_reply && Ipv4_addr.equal tpa t.local_ip then
        learn t spa sha

  let arp_handler t econn = ((fun frame -> receive_arp t econn frame), ignore)

  let broadcast_conn t =
    match t.broadcast_conn with
    | Some c -> c
    | None ->
      let c =
        Eth.connect t.eth
          { dest = Mac.broadcast; proto = Frame.ethertype_arp }
          (fun econn -> arp_handler t econn)
      in
      t.broadcast_conn <- Some c;
      c

  let send_request t ip =
    let request =
      encode_arp ~op:op_request ~sha:(Eth.local_mac t.eth) ~spa:t.local_ip
        ~tha:(Mac.of_int 0) ~tpa:ip
    in
    t.requests_sent <- t.requests_sent + 1;
    Fun.protect ~finally:(fun () -> Packet.release request) (fun () ->
        Eth.send (broadcast_conn t) request)

  let cache_lookup t ip =
    match Hashtbl.find_opt t.cache (Ipv4_addr.to_int ip) with
    | Some { mac; expires_at = None } -> Some mac
    | Some { mac; expires_at = Some exp } ->
      if Fox_sched.Scheduler.now () < exp then Some mac
      else begin
        Hashtbl.remove t.cache (Ipv4_addr.to_int ip);
        None
      end
    | None -> None

  (* The pending exchange for [ip], started (one request now, a retry
     per timeout) if none is in flight. *)
  let request t ip =
    let key = Ipv4_addr.to_int ip in
    match Hashtbl.find_opt t.pending key with
    | Some res -> res (* somebody is already asking; join it *)
    | None ->
      let res =
        { mailbox = Fox_sched.Cond.create (); held = Queue.create ();
          held_bytes = 0 }
      in
      Hashtbl.add t.pending key res;
      Fox_sched.Scheduler.fork (fun () ->
          let rec attempt n =
            if Hashtbl.mem t.pending key then begin
              send_request t ip;
              Fox_sched.Scheduler.sleep t.config.request_timeout_us;
              if Hashtbl.mem t.pending key then
                if n + 1 < t.config.retries then attempt (n + 1)
                else begin
                  Hashtbl.remove t.pending key;
                  t.resolution_failures <- t.resolution_failures + 1;
                  drain res ignore;
                  Fox_sched.Cond.broadcast res.mailbox None
                end
            end
          in
          attempt 0);
      res

  (* The station for [ip] if it is known, counting the cache's hit or
     miss; a miss starts the exchange that will learn it. *)
  let station t ip =
    if Ipv4_addr.is_broadcast ip then Ok Mac.broadcast
    else if Ipv4_addr.equal ip t.local_ip then Ok (Eth.local_mac t.eth)
    else
      match cache_lookup t ip with
      | Some mac ->
        t.cache_hits <- t.cache_hits + 1;
        Ok mac
      | None ->
        t.cache_misses <- t.cache_misses + 1;
        Error (request t ip)

  let resolve t ip =
    match station t ip with
    | Ok mac -> Some mac
    | Error res -> Fox_sched.Cond.wait res.mailbox

  let lookup = cache_lookup

  let add_static t ip mac =
    Hashtbl.replace t.cache (Ipv4_addr.to_int ip) { mac; expires_at = None }

  (* ---------------- the PROTOCOL face ---------------- *)

  let install_connection t ~peer_ip ~econn (handler : handler) =
    let conn =
      { arp = t; peer_ip; eth_conn = econn; data = ignore; status = ignore;
        alive = true }
    in
    (match peer_ip with
    | Some ip -> Hashtbl.replace t.conns (Ipv4_addr.to_int ip) conn
    | None -> ());
    let data, status = handler conn in
    conn.data <- data;
    conn.status <- status;
    conn.status Fox_proto.Status.Connected;
    conn

  let connect t ip handler =
    match Hashtbl.find_opt t.conns (Ipv4_addr.to_int ip) with
    | Some conn -> conn
    | None ->
      let conn = install_connection t ~peer_ip:(Some ip) ~econn:None handler in
      (match station t ip with
      | Ok mac -> attach conn mac
      | Error _ -> ());
      conn

  let start_passive t () handler =
    (match t.passive with
    | Some _ ->
      raise (Connection_failed "arp: a passive open is already installed")
    | None -> ());
    let l = { l_arp = t; l_active = true } in
    t.passive <- Some (l, handler);
    (* listen for IPv4 frames from stations we have not opened to *)
    ignore
      (Eth.start_passive t.eth { match_proto = Frame.ethertype_ipv4 }
         (fun econn ->
           let conn_cell = ref None in
           let data packet =
             match !conn_cell with Some c -> c.data packet | None -> ()
           in
           let conn = install_connection t ~peer_ip:None ~econn:(Some econn)
               (fun conn -> if l.l_active then handler conn else (ignore, ignore))
           in
           conn_cell := Some conn;
           (data, ignore)));
    l

  let stop_passive l =
    l.l_active <- false;
    l.l_arp.passive <- None

  let initialize t =
    if t.init_count = 0 then ignore (Eth.initialize t.eth);
    t.init_count <- t.init_count + 1;
    t.init_count

  let teardown reason conn =
    if conn.alive then begin
      conn.alive <- false;
      (match conn.peer_ip with
      | Some ip -> Hashtbl.remove conn.arp.conns (Ipv4_addr.to_int ip)
      | None -> ());
      conn.status reason
    end

  let finalize t =
    if t.init_count > 0 then t.init_count <- t.init_count - 1;
    if t.init_count = 0 then begin
      let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (teardown Fox_proto.Status.Aborted) conns;
      ignore (Eth.finalize t.eth)
    end;
    t.init_count

  (* A send before the station is known: to the station if it has been
     learned meanwhile, else held until the exchange ends. *)
  let send_unresolved conn packet =
    let t = conn.arp in
    let ip = Option.get conn.peer_ip in
    match station t ip with
    | Ok mac ->
      attach conn mac;
      Eth.send (Option.get conn.eth_conn) packet
    | Error res ->
      Queue.push (Packet.copy_fused packet) res.held;
      res.held_bytes <- res.held_bytes + Packet.length packet;
      while res.held_bytes > hold_bytes do
        let oldest = Queue.pop res.held in
        res.held_bytes <- res.held_bytes - Packet.length oldest;
        Packet.release oldest
      done

  let send conn packet =
    if not conn.alive then raise (Send_failed "arp connection closed");
    match conn.eth_conn with
    | Some econn -> Eth.send econn packet
    | None -> send_unresolved conn packet

  let prepare_send conn =
    match conn.eth_conn with
    | Some econn -> Eth.prepare_send econn
    | None -> send conn

  let close conn = teardown Fox_proto.Status.Closed conn

  let abort conn = teardown Fox_proto.Status.Aborted conn

  (* Sizes are the device's: an unresolved connection asks the broadcast
     session, which its request goes out on anyway. *)
  let sized conn =
    match conn.eth_conn with
    | Some econn -> econn
    | None -> broadcast_conn conn.arp

  let allocate_send conn len = Eth.allocate_send (sized conn) len

  let max_packet_size conn = Eth.max_packet_size (sized conn)

  let headroom conn = Eth.headroom (sized conn)

  let tailroom conn = Eth.tailroom (sized conn)

  let stats t =
    {
      requests_sent = t.requests_sent;
      replies_sent = t.replies_sent;
      replies_received = t.replies_received;
      resolution_failures = t.resolution_failures;
      cache_hits = t.cache_hits;
      cache_misses = t.cache_misses;
    }

  let pp_address = Ipv4_addr.pp

  let create eth ~local_ip ?(config = default_config) () =
    let t =
      {
        eth;
        local_ip;
        config;
        cache = Hashtbl.create 32;
        pending = Hashtbl.create 8;
        conns = Hashtbl.create 16;
        passive = None;
        broadcast_conn = None;
        init_count = 0;
        requests_sent = 0;
        replies_sent = 0;
        replies_received = 0;
        resolution_failures = 0;
        cache_hits = 0;
        cache_misses = 0;
      }
    in
    (* answer requests addressed to us (and learn from them) *)
    ignore
      (Eth.start_passive eth { match_proto = Frame.ethertype_arp }
         (fun econn -> arp_handler t econn));
    t
end
