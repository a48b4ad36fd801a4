(* Passive open; see the interface. *)

type decision =
  | Syn_ack of { iss : Seq.t; irs : Seq.t }
  | Open
  | Promote of { iss : Seq.t; irs : Seq.t; peer_mss : int option }
  | Refuse of string
  | Unknown
  | Drop

let cookie_tick_us = 64_000_000

let mss_classes = [| 536; 1220; 1460; 4096 |]

let mss_class_of mss =
  let idx = ref 0 in
  Array.iteri (fun i c -> if c <= mss then idx := i) mss_classes;
  !idx

(* A half-open handshake held compactly: everything the handshake ACK
   needs to build the real TCB, a few dozen bytes instead of a TCB with
   its queues.  This is what a SYN flood pins. *)
type 'h entry = {
  host : 'h;
  local_port : int;
  remote_port : int;
  iss : Seq.t;
  irs : Seq.t;
  peer_mss : int option;
  mutable created : int;
      (** virtual time of the latest SYN, for lazy expiry: refreshed on
          each retransmitted SYN so a live handshake never expires *)
}

type 'h t = {
  params : Tcb.params;
  equal : 'h -> 'h -> bool;
  to_string : 'h -> string;
  k0 : int;
  k1 : int;
  iss_of : host:'h -> local_port:int -> remote_port:int -> Seq.t;
  mutable half_open : int;  (** legacy regime: SYN-RECEIVED TCBs held *)
  mutable cache : 'h entry list;
      (** newest first; never longer than [listen_backlog] *)
}

let create params ~equal ~to_string ~secret:(k0, k1) ~iss =
  { params; equal; to_string; k0; k1; iss_of = iss; half_open = 0;
    cache = [] }

let held l = List.length l.cache

let half_open l = l.half_open

let leave l = l.half_open <- l.half_open - 1

let purge l ~now =
  let ttl = 2 * l.params.rto_max_us in
  let stale e = now - e.created > ttl in
  if List.exists stale l.cache then
    l.cache <- List.filter (fun e -> not (stale e)) l.cache

let find l host ~local_port ~remote_port =
  List.find_opt
    (fun e ->
      e.local_port = local_port
      && e.remote_port = remote_port
      && l.equal e.host host)
    l.cache

let forget l e = l.cache <- List.filter (fun e' -> e' != e) l.cache

(* The cookie: a SipHash of the endpoints, the client's ISN and the
   tick under the engine's secret, cut to 30 bits whose low two carry
   the peer's MSS class.  The handshake ACK echoes it (ack = iss + 1),
   proving the peer saw our SYN-ACK, with no state held in between. *)
let cookie_hash l host ~local_port ~remote_port ~irs ~tick =
  Fox_basis.Siphash.hash ~k0:l.k0 ~k1:l.k1
    (Printf.sprintf "cookie|%s|%d|%d|%d|%d" (l.to_string host) local_port
       remote_port (Seq.to_int irs) tick)
  land 0x3FFFFFFC

(* [cookie_check] recovers the peer's MSS class iff [ack - 1] is the
   cookie this tick or the last would have minted for the handshake. *)
let cookie_check l host ~local_port ~remote_port ~irs ~ack ~now =
  let c = Seq.to_int (Seq.add ack (-1)) in
  let tick = now / cookie_tick_us in
  let minted tick =
    c land 0xFFFFFFFC = cookie_hash l host ~local_port ~remote_port ~irs ~tick
  in
  if minted tick || minted (tick - 1) then Some mss_classes.(c land 3)
  else None

let syn l host (hdr : Tcp_header.t) ~now ~room ~mss path =
  let p = l.params in
  let local_port = hdr.dst_port and remote_port = hdr.src_port in
  if p.syn_cache then begin
    purge l ~now;
    match find l host ~local_port ~remote_port with
    | Some e ->
      (* retransmitted SYN: our SYN-ACK was lost; answer again and keep
         the entry alive *)
      e.created <- now;
      Syn_ack { iss = e.iss; irs = e.irs }
    | None ->
      if
        (p.listen_backlog = 0 || List.length l.cache < p.listen_backlog)
        && room
      then begin
        let iss = l.iss_of ~host ~local_port ~remote_port in
        l.cache <-
          {
            host;
            local_port;
            remote_port;
            iss;
            irs = hdr.seq;
            peer_mss = hdr.mss;
            created = now;
          }
          :: l.cache;
        Syn_ack { iss; irs = hdr.seq }
      end
      else if p.syn_cookies && room then begin
        let peer_mss =
          match hdr.mss with Some m -> m | None -> mss path
        in
        let c =
          cookie_hash l host ~local_port ~remote_port ~irs:hdr.seq
            ~tick:(now / cookie_tick_us)
        in
        Syn_ack
          { iss = Seq.of_int (c lor mss_class_of peer_mss); irs = hdr.seq }
      end
      else Refuse "backlog full"
  end
  else if
    (p.listen_backlog > 0 && l.half_open >= p.listen_backlog) || not room
  then Refuse "backlog full"
  else begin
    l.half_open <- l.half_open + 1;
    Open
  end

let promote ~room ~iss ~irs ~peer_mss =
  if room then Promote { iss; irs; peer_mss }
  else Refuse "connection cap (promotion)"

(* A bare ACK: the third step of a handshake whose half-open state is
   an entry or a cookie. *)
let ack l host (hdr : Tcp_header.t) ~now ~room =
  let local_port = hdr.dst_port and remote_port = hdr.src_port in
  purge l ~now;
  match find l host ~local_port ~remote_port with
  | Some e ->
    if
      Seq.equal hdr.ack (Seq.add e.iss 1)
      && Seq.equal hdr.seq (Seq.add e.irs 1)
    then begin
      forget l e;
      promote ~room ~iss:e.iss ~irs:e.irs ~peer_mss:e.peer_mss
    end
    else Unknown
  | None when l.params.syn_cookies -> (
    let irs = Seq.add hdr.seq (-1) in
    match
      cookie_check l host ~local_port ~remote_port ~irs ~ack:hdr.ack ~now
    with
    | Some peer_mss ->
      promote ~room ~iss:(Seq.add hdr.ack (-1)) ~irs
        ~peer_mss:(Some peer_mss)
    | None -> Unknown)
  | None -> Unknown

(* The peer aborted a half-open handshake.  The entry goes only for
   the RST a SYN-RECEIVED TCB would accept, at its [rcv_nxt]. *)
let rst l host (hdr : Tcp_header.t) =
  match
    find l host ~local_port:hdr.dst_port ~remote_port:hdr.src_port
  with
  | Some e when Seq.equal hdr.seq (Seq.add e.irs 1) -> forget l e
  | _ -> ()

let segment l host (hdr : Tcp_header.t) ~now ~room ~mss path =
  if hdr.syn && (not hdr.ack_flag) && not hdr.rst then
    syn l host hdr ~now ~room ~mss path
  else if l.params.syn_cache && hdr.ack_flag && (not hdr.syn) && not hdr.rst
  then ack l host hdr ~now ~room
  else if l.params.syn_cache && hdr.rst then begin
    rst l host hdr;
    Drop
  end
  else Unknown
