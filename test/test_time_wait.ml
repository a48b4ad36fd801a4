(* TIME-WAIT conformance, the RFC 793 §3.9 "SEGMENT ARRIVES" row for
   TIME-WAIT, on both engines.  A scripted peer — a host with an IP stack
   and no TCP, crafting raw segments the way [test_overload]'s attacker
   does — takes each engine's active open through the close handshake so
   the engine parks in TIME-WAIT, then injects one segment.  Each case
   pins the engine's reply (flags, sequence and acknowledgement numbers
   relative to the two ISNs, window), the state afterwards and the
   virtual instant the 2·MSL ends.  The last case pins the order in
   which a [max_time_wait = 2] table recycles its oldest entries.

   Where the two engines differ, the difference is pinned here and
   listed as deliberate in DESIGN's [fox_baseline] entry: the monolithic
   oracle does not restart 2·MSL on a retransmitted FIN, and it answers
   every challenge, with no budget. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Status = Fox_proto.Status
module World = Fox_check.World
module Tcp_header = Fox_tcp.Tcp_header
module Seq = Fox_tcp.Seq
module Action = Fox_tcp.Action
module Ip = World.Ip
module Ip_aux = World.Ip_aux

let subnet = 9

let engine_addr = World.addr ~subnet 1

let peer_addr = World.addr ~subnet 2

let port = 80

(* the peer's ISN and the window it advertises *)
let peer_iss = 70_000

let peer_window = 8192

let two_msl_us = 1_000_000

(* ------------------------------------------------------------------ *)
(* The engines                                                        *)
(* ------------------------------------------------------------------ *)

module type TCP =
  Fox_tcp.Tcp.S with type lower = Ip.t and type host = Fox_ip.Ipv4_addr.t

let fox_params =
  {
    Fox_tcp.Tcb.default_params with
    time_wait_us = two_msl_us;
    isn_secret = Some (0x7157, 0x7157);
  }

module Fox_tcp_engine =
  Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = fox_params
    end)

module Fox_bounded =
  Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Fox_tcp.Congestion.Reno)
    (struct
      let params = { fox_params with max_time_wait = 2 }
    end)

module Baseline =
  Fox_baseline.Tcp_monolithic.Make (Ip) (Ip_aux)
    (struct
      include Fox_baseline.Tcp_monolithic.Default_params

      let time_wait_us = two_msl_us
    end)

(* ------------------------------------------------------------------ *)
(* The scripted peer                                                  *)
(* ------------------------------------------------------------------ *)

type peer = {
  lconn : Ip.connection;
  send : Packet.t -> unit;
  heard : Tcp_header.t list ref;
      (** the headers of the segments the engine sent, newest first *)
}

let create_peer ip =
  let heard = ref [] in
  let lconn =
    Ip.connect ip
      (Ip_aux.lower_address ~proto:6 engine_addr)
      (fun lconn ->
        ( (fun packet ->
            let pseudo =
              Ip_aux.pseudo lconn ~proto:6 ~len:(Packet.length packet)
            in
            (match
               Action.internalize ~pseudo packet ~now:(Scheduler.now ())
             with
            | Ok seg -> heard := seg.Fox_tcp.Tcb.hdr :: !heard
            | Error _ -> Alcotest.fail "peer: undecodable segment");
            Packet.release packet),
          ignore ))
  in
  { lconn; send = Ip.prepare_send lconn; heard }

let transmit p ?(text = "") hdr =
  let data =
    if text = "" then None
    else begin
      let d =
        Packet.create ~headroom:(24 + Ip.headroom p.lconn)
          ~tailroom:(Ip.tailroom p.lconn) (String.length text)
      in
      Packet.blit_from_string text 0 d 0 (String.length text);
      Some d
    end
  in
  Action.externalize
    ~pseudo_for:(fun lconn len -> Ip_aux.pseudo lconn ~proto:6 ~len)
    ~allocate:(fun lconn len ->
      Packet.create ~headroom:(24 + Ip.headroom lconn)
        ~tailroom:(Ip.tailroom lconn) len)
    p.lconn ~hdr ~data ~send:p.send

(* A segment from the peer to the engine's [local_port]. *)
let segment ~local_port ?(syn = false) ?(fin = false) ?(rst = false)
    ?(ack = None) ~seq () =
  {
    (Tcp_header.basic ~src_port:port ~dst_port:local_port) with
    Tcp_header.seq = Seq.of_int seq;
    syn;
    fin;
    rst;
    ack_flag = ack <> None;
    ack = Seq.of_int (Option.value ack ~default:0);
    window = peer_window;
  }

(* ------------------------------------------------------------------ *)
(* Parking a connection                                               *)
(* ------------------------------------------------------------------ *)

type parked = {
  iss : int;  (** the engine's ISN *)
  parked_at : int;  (** when the peer's FIN went out *)
  statuses : (int * int * Status.t) list ref;
      (** newest first: virtual time, a sequence number across every
          connection, the status *)
}

let status_seq = ref 0

(* Run the engine's active open from [local_port] against the scripted
   peer, close it, and answer with FIN+ACK: the engine enters TIME-WAIT
   about 3 ms after the call.  Must run inside the scheduler. *)
let park (type e c) (module E : TCP with type t = e and type connection = c)
    (engine : e) peer ~local_port (conn : c option ref) =
  let statuses = ref [] in
  let on_status s =
    incr status_seq;
    statuses := (Scheduler.now (), !status_seq, s) :: !statuses
  in
  Scheduler.fork (fun () ->
      let c =
        E.connect engine
          { E.peer = peer_addr; port; local_port = Some local_port }
          (fun _ -> (Packet.release, on_status))
      in
      conn := Some c;
      E.close c);
  Scheduler.sleep 1_000;
  let syn =
    match
      List.find_opt
        (fun h -> h.Tcp_header.syn && h.Tcp_header.src_port = local_port)
        !(peer.heard)
    with
    | Some h -> h
    | None -> Alcotest.fail "no SYN from the engine"
  in
  let iss = Seq.to_int syn.Tcp_header.seq in
  transmit peer
    {
      (segment ~local_port ~syn:true ~ack:(Some (iss + 1)) ~seq:peer_iss ())
      with
      Tcp_header.mss = Some 1460;
    };
  Scheduler.sleep 1_000;
  let parked_at = Scheduler.now () in
  transmit peer
    (segment ~local_port ~fin:true ~ack:(Some (iss + 2)) ~seq:(peer_iss + 1) ());
  Scheduler.sleep 1_000;
  { iss; parked_at; statuses }

(* ------------------------------------------------------------------ *)
(* The cases                                                          *)
(* ------------------------------------------------------------------ *)

(* Render one reply relative to the two ISNs: "A seq=iss+2 ack=peer+2
   win=4096". *)
let render ~iss hdr =
  let flags =
    String.concat ""
      [
        (if hdr.Tcp_header.syn then "S" else "");
        (if hdr.Tcp_header.fin then "F" else "");
        (if hdr.Tcp_header.rst then "R" else "");
        (if hdr.Tcp_header.ack_flag then "A" else "");
      ]
  in
  Printf.sprintf "%s seq=iss%+d ack=%s win=%d" flags
    (Seq.diff hdr.Tcp_header.seq (Seq.of_int iss))
    (if hdr.Tcp_header.ack_flag then
       Printf.sprintf "peer%+d"
         (Seq.diff hdr.Tcp_header.ack (Seq.of_int peer_iss))
     else "-")
    hdr.Tcp_header.window

type outcome = {
  replies : string list;  (** to the injected segment, oldest first *)
  state : string;  (** just after it *)
  closed : string;  (** the final status and when, from the park *)
}

(* Park a connection from port 5000, 100 ms later inject the segment
   [inject] builds, and report what came back. *)
let run_case (module E : TCP) inject =
  let link = Link.hub ~ports:2 Netem.gigabit in
  let engine_ip = World.host ~subnet link 0 ~addr:engine_addr in
  let peer_ip = World.host ~subnet link 1 ~addr:peer_addr in
  let engine = E.create engine_ip in
  let local_port = 5000 in
  let outcome = ref None in
  ignore
    (Scheduler.run (fun () ->
         let peer = create_peer peer_ip in
         let conn = ref None in
         let parked = park (module E) engine peer ~local_port conn in
         let c = Option.get !conn in
         Alcotest.(check string) "parked" "TIME-WAIT" (E.state_of c);
         Scheduler.sleep 100_000;
         peer.heard := [];
         List.iter
           (fun (text, hdr) -> transmit peer ?text hdr)
           (inject ~iss:parked.iss ~local_port);
         Scheduler.sleep 1_000;
         let replies = List.rev_map (render ~iss:parked.iss) !(peer.heard) in
         let state = E.state_of c in
         Scheduler.sleep (3 * two_msl_us);
         let closed =
           match !(parked.statuses) with
           | (at, _, s) :: _ ->
             Printf.sprintf "%s at +%d us" (Status.to_string s)
               (at - parked.parked_at)
           | [] -> "never"
         in
         outcome := Some { replies; state; closed }));
  Option.get !outcome

(* The injected segments.  Every one that carries an ACK acknowledges
   the engine's FIN, [iss + 2], as the real peer would; the peer's own
   FIN took [peer_iss + 1], so the engine expects [peer_iss + 2].  Each
   case pins the structured engine's outcome, then the oracle's. *)
let cases =
  let one ?text hdr = [ (text, hdr) ] in
  let acked = "replies [A seq=iss+2 ack=peer+2 win=4096]; TIME-WAIT" in
  let expires = "closed at +1000496 us" in
  [
    ( "retransmitted FIN",
      (fun ~iss ~local_port ->
        one
          (segment ~local_port ~fin:true ~ack:(Some (iss + 2))
             ~seq:(peer_iss + 1) ())),
      (* RFC 793 p. 73 restarts 2·MSL; the oracle keeps the first one *)
      acked ^ "; closed at +1101872 us",
      acked ^ "; " ^ expires );
    ( "exact RST",
      (fun ~iss:_ ~local_port ->
        one (segment ~local_port ~rst:true ~seq:(peer_iss + 2) ())),
      "replies []; CLOSED; reset at +101011 us",
      "replies []; CLOSED; reset at +101011 us" );
    ( "in-window RST",
      (fun ~iss:_ ~local_port ->
        one (segment ~local_port ~rst:true ~seq:(peer_iss + 102) ())),
      acked ^ "; " ^ expires,
      acked ^ "; " ^ expires );
    ( "in-window SYN",
      (fun ~iss:_ ~local_port ->
        one (segment ~local_port ~syn:true ~seq:(peer_iss + 102) ())),
      acked ^ "; " ^ expires,
      acked ^ "; " ^ expires );
    ( "old duplicate data",
      (fun ~iss ~local_port ->
        one ~text:"0123456789"
          (segment ~local_port ~ack:(Some (iss + 2)) ~seq:(peer_iss - 9) ())),
      acked ^ "; " ^ expires,
      acked ^ "; " ^ expires );
    ( "out-of-window data",
      (fun ~iss ~local_port ->
        one ~text:"0123456789"
          (segment ~local_port ~ack:(Some (iss + 2)) ~seq:(peer_iss + 20_002)
             ())),
      acked ^ "; " ^ expires,
      acked ^ "; " ^ expires );
    ( "bare in-window ACK",
      (fun ~iss ~local_port ->
        one (segment ~local_port ~ack:(Some (iss + 2)) ~seq:(peer_iss + 2) ())),
      "replies []; TIME-WAIT; " ^ expires,
      "replies []; TIME-WAIT; " ^ expires );
    ( "ACK of unsent data",
      (fun ~iss ~local_port ->
        one (segment ~local_port ~ack:(Some (iss + 100)) ~seq:(peer_iss + 2) ())),
      acked ^ "; " ^ expires,
      acked ^ "; " ^ expires );
    ( "12 in-window RSTs",
      (fun ~iss:_ ~local_port ->
        List.init 12 (fun i ->
            (None, segment ~local_port ~rst:true ~seq:(peer_iss + 102 + i) ()))),
      (* the per-connection budget allows 10 challenges a second; the
         oracle answers every one *)
      String.concat "; "
        ("replies [A seq=iss+2 ack=peer+2 win=4096"
        :: List.init 9 (fun _ -> "A seq=iss+2 ack=peer+2 win=4096"))
      ^ "]; TIME-WAIT; " ^ expires,
      String.concat "; "
        ("replies [A seq=iss+2 ack=peer+2 win=4096"
        :: List.init 11 (fun _ -> "A seq=iss+2 ack=peer+2 win=4096"))
      ^ "]; TIME-WAIT; " ^ expires );
  ]

let show o =
  Printf.sprintf "replies [%s]; %s; %s" (String.concat "; " o.replies) o.state
    o.closed

let case_tests =
  List.concat_map
    (fun (name, inject, fox, base) ->
      [
        Alcotest.test_case (name ^ ", structured") `Quick (fun () ->
            Alcotest.(check string) name fox
              (show (run_case (module Fox_tcp_engine) inject)));
        Alcotest.test_case (name ^ ", oracle") `Quick (fun () ->
            Alcotest.(check string) name base
              (show (run_case (module Baseline) inject)));
      ])
    cases

(* Four connections park one after another against a two-entry table:
   the third's arrival recycles the first, the fourth's the second, and
   the last two run out their full 2·MSL. *)
let test_recycling_order () =
  let link = Link.hub ~ports:2 Netem.gigabit in
  let engine_ip = World.host ~subnet link 0 ~addr:engine_addr in
  let peer_ip = World.host ~subnet link 1 ~addr:peer_addr in
  let engine = Fox_bounded.create engine_ip in
  let t0 = ref 0 and events = ref [] in
  ignore
    (Scheduler.run (fun () ->
         let peer = create_peer peer_ip in
         t0 := Scheduler.now ();
         let parks =
           List.map
             (fun local_port ->
               let p =
                 park (module Fox_bounded) engine peer ~local_port (ref None)
               in
               (local_port, p))
             [ 5001; 5002; 5003; 5004 ]
         in
         Scheduler.sleep (2 * two_msl_us);
         events :=
           List.concat_map
             (fun (local_port, p) ->
               List.map
                 (fun (at, n, s) ->
                   ( n,
                     Printf.sprintf "%d %s at +%d us" local_port
                       (Status.to_string s) (at - !t0) ))
                 !(p.statuses))
             parks));
  let order = List.map snd (List.sort compare !events) in
  Alcotest.(check (list string)) "recycled oldest first"
    [
      "5001 connected at +1011 us";
      "5001 remote-close at +2011 us";
      "5002 connected at +4011 us";
      "5002 remote-close at +5011 us";
      "5003 connected at +7011 us";
      "5001 closed at +8011 us";
      "5003 remote-close at +8011 us";
      "5004 connected at +10011 us";
      "5002 closed at +11011 us";
      "5004 remote-close at +11011 us";
      "5003 closed at +1008640 us";
      "5004 closed at +1011712 us";
    ]
    order;
  Alcotest.(check int) "recycled" 2
    (Fox_bounded.stats engine).Fox_tcp.Tcp.time_wait_recycled

(* What the application sees of a parked connection: the handle reads
   TIME-WAIT and counts as an active connection with a snapshot row
   until 2·MSL ends; [close_sync] called then returns at the expiry; an
   abort ends the parking at once. *)
let test_parked_handle () =
  let module T = Fox_tcp_engine in
  let link = Link.hub ~ports:2 Netem.gigabit in
  let engine_ip = World.host ~subnet link 0 ~addr:engine_addr in
  let peer_ip = World.host ~subnet link 1 ~addr:peer_addr in
  let engine = T.create engine_ip in
  let seen = ref [] in
  let see what = seen := what :: !seen in
  ignore
    (Scheduler.run (fun () ->
         let peer = create_peer peer_ip in
         let view c =
           Printf.sprintf "%s, %d active, rows [%s]" (T.state_of c)
             (T.stats engine).Fox_tcp.Tcp.active_conns
             (String.concat "; "
                (List.map
                   (fun s -> s.Fox_tcp.Stats.state)
                   (T.snapshots engine)))
         in
         let conn = ref None in
         let p = park (module Fox_tcp_engine) engine peer ~local_port:5000 conn in
         let c = Option.get !conn in
         see (view c);
         T.close_sync c;
         see (Printf.sprintf "close_sync returned at +%d us"
                (Scheduler.now () - p.parked_at));
         see (view c);
         let conn = ref None in
         let p = park (module Fox_tcp_engine) engine peer ~local_port:5001 conn in
         let c = Option.get !conn in
         T.abort c;
         see (view c);
         match !(p.statuses) with
         | (at, _, s) :: _ ->
           see (Printf.sprintf "%s at +%d us" (Status.to_string s)
                  (at - p.parked_at))
         | [] -> ()));
  Alcotest.(check (list string)) "what the handle shows"
    [
      "TIME-WAIT, 1 active, rows [TIME-WAIT]";
      "close_sync returned at +1000496 us";
      "CLOSED, 0 active, rows []";
      "CLOSED, 0 active, rows []";
      "aborted at +1000 us";
    ]
    (List.rev !seen)

let () =
  Alcotest.run "fox_time_wait"
    [
      ("segment arrives", case_tests);
      ( "bounded table",
        [ Alcotest.test_case "recycling order" `Quick test_recycling_order ] );
      ( "handle",
        [ Alcotest.test_case "parked, then closed" `Quick test_parked_handle ] );
    ]
