(** The paper's evaluation runs.

    [Run(E).transfer] is Section 5's benchmark verbatim: "the receiver
    starts a timer, sends the designated sender a small packet specifying
    the amount of data desired, and stops the timer after all the
    specified data has been received.  The received data is discarded when
    it is received at the application level."  The TCP window is the
    library default 4096 bytes; the wire is the simulated isolated 10 Mb/s
    Ethernet; the optional {!Cost_model} puts the run on a virtual
    DECstation.

    [Run(E).round_trip] measures Table 1's second row: a small-message
    ping-pong over an established connection.

    Both are generic over the engine, any {!Fox_tcp.Tcp.S} over the
    standard stack's metered IP, so the structured TCP and the monolithic
    baseline run the identical experiment code.  Each takes the function
    that finds a host's engine instance ([Network.fox_tcp],
    [Network.baseline_tcp], or one that creates an ablation variant on a
    bare host); it is called once per host, sender first. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler

type profile = (string * int * int) list
(** (component, total µs, updates) *)

type transfer_result = {
  bytes : int;
  elapsed_us : int;  (** virtual time, request sent → last byte received *)
  throughput_mbps : float;
  sender_segments : int;
  receiver_segments : int;
  retransmissions : int;
  sender_profile : profile;
  receiver_profile : profile;
  sender_busy_us : int;
  receiver_busy_us : int;
  minor_collections : int;  (** real OCaml GC activity during the run *)
  major_collections : int;
  sched : Scheduler.stats;
}

type rtt_result = {
  samples : int;
  mean_rtt_us : int;
  min_rtt_us : int;
  max_rtt_us : int;
}

module Run
    (E : Fox_tcp.Tcp.S
           with type lower = Stack.Metered_ip.t
            and type host = Fox_ip.Ipv4_addr.t) =
struct
  (* Sender side: accept a connection, read the 8-byte request
     (magic ++ count), stream that many bytes back in MSS-sized packets —
     synthesised in place, one copy into the packet, as the paper counts.
     Stream byte [k] is [k land 255]; each packet is one block write
     straight into its buffer from a pattern that repeats every 256
     bytes, so the fill is not metered as a copy. *)
  let install_sender tcp ~port ~server_conn =
    let on_request conn request =
      if Packet.length request >= 8 then begin
        let wanted = Packet.get_u32 request 4 in
        Packet.release request;
        Scheduler.fork (fun () ->
            let mss = E.max_packet_size conn in
            let pattern =
              String.init (256 + mss) (fun k -> Char.chr (k land 255))
            in
            let sent = ref 0 in
            while !sent < wanted do
              let n = min mss (wanted - !sent) in
              let p = E.allocate_send conn n in
              Bytes.blit_string pattern (!sent land 255) (Packet.buffer p)
                (Packet.offset p) n;
              E.send conn p;
              sent := !sent + n
            done)
      end
    in
    ignore
      (E.start_passive tcp { E.local_port = port } (fun conn ->
           server_conn := Some conn;
           (on_request conn, ignore)))

  let connect tcp ~(peer : Network.host) ~port handler =
    E.connect tcp { E.peer = peer.Network.addr; port; local_port = None }
      (fun _ -> (handler, ignore))

  (* [?during] forks an observer thread inside the run, handing it a
     "transfer finished?" predicate — the [foxnet stat] sampler loops on
     [Scheduler.sleep] until the predicate holds, photographing the live
     TCBs in virtual time.  [?app_us] makes the receiving application
     slow: each data upcall charges that much receiver CPU before it
     returns, i.e. inside the engine's drain loop, which therefore runs
     on a thread per arrival. *)
  let transfer ?during ?(app_us = 0) instance ~(sender : Network.host)
      ~(receiver : Network.host) ~bytes () =
    let port = 5001 in
    let server_conn = ref None in
    let sender_tcp = instance sender in
    let receiver_tcp = instance receiver in
    install_sender sender_tcp ~port ~server_conn;
    if app_us > 0 then Fox_dev.Device.thread_receives receiver.Network.dev;
    let received = ref 0 in
    let t0 = ref 0 and t1 = ref 0 in
    (* an empty minor heap, so the count of minor collections does not
       depend on what ran before *)
    Gc.minor ();
    let gc0 = Gc.quick_stat () in
    let sched =
      Scheduler.run (fun () ->
          (match during with
          | Some observer ->
            Scheduler.fork (fun () -> observer (fun () -> !received >= bytes))
          | None -> ());
          let conn =
            connect receiver_tcp ~peer:sender ~port (fun packet ->
                if app_us > 0 then
                  Fox_sched.Cpu.charge receiver.Network.cpu "application" app_us;
                (* data is discarded at the application level; release
                   the buffer *)
                received := !received + Packet.length packet;
                Packet.release packet;
                if !received >= bytes then t1 := Scheduler.now ())
          in
          t0 := Scheduler.now ();
          let request = E.allocate_send conn 8 in
          Packet.set_u32 request 0 0xF0C5F0C5;
          Packet.set_u32 request 4 bytes;
          E.send conn request)
    in
    let gc1 = Gc.quick_stat () in
    if !received < bytes then
      failwith
        (Printf.sprintf "transfer incomplete: %d of %d bytes" !received bytes);
    let elapsed_us = !t1 - !t0 in
    {
      bytes;
      elapsed_us;
      throughput_mbps = float_of_int (bytes * 8) /. float_of_int elapsed_us;
      sender_segments = E.segments_sent sender_tcp;
      receiver_segments = E.segments_sent receiver_tcp;
      retransmissions =
        (match !server_conn with
        | Some conn -> E.retransmissions conn
        | None -> 0);
      sender_profile = Counters.dump sender.Network.counters;
      receiver_profile = Counters.dump receiver.Network.counters;
      sender_busy_us = Counters.grand_total sender.Network.counters;
      receiver_busy_us = Counters.grand_total receiver.Network.counters;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      sched;
    }

  (* Table 1, row 2: echo a small message back and forth over one
     established connection and time each round. *)
  let round_trip instance ~(client : Network.host) ~(server : Network.host)
      ?(payload = 64) ?(rounds = 20) () =
    let port = 5007 in
    let echo_tcp = instance server in
    let client_tcp = instance client in
    let echo conn packet =
      let reply = E.allocate_send conn (Packet.length packet) in
      Packet.blit packet 0 (Packet.buffer reply) (Packet.offset reply)
        (Packet.length packet);
      Packet.release packet;
      E.send conn reply
    in
    ignore
      (E.start_passive echo_tcp { E.local_port = port } (fun conn ->
           (echo conn, ignore)));
    let rtts = ref [] in
    let reply_mb = Fox_sched.Cond.create () in
    let _ =
      Scheduler.run (fun () ->
          let conn =
            connect client_tcp ~peer:server ~port (fun _reply ->
                Fox_sched.Cond.signal reply_mb ())
          in
          for _ = 1 to rounds do
            let sent_at = Scheduler.now () in
            let p = E.allocate_send conn payload in
            Packet.fill p 0x5A;
            E.send conn p;
            Fox_sched.Cond.wait reply_mb;
            rtts := (Scheduler.now () - sent_at) :: !rtts
          done)
    in
    let rtts = !rtts in
    let n = List.length rtts in
    {
      samples = n;
      mean_rtt_us = List.fold_left ( + ) 0 rtts / max 1 n;
      min_rtt_us = List.fold_left min max_int rtts;
      max_rtt_us = List.fold_left max 0 rtts;
    }
end

module Fox_run = Run (Stack.Tcp)
module Baseline_run = Run (Stack.Baseline_tcp)

(** [table1 ?bytes ()] reproduces Table 1: throughput and round-trip for
    both engines under their respective DECstation cost models. *)
let table1 ?(bytes = 1_000_000) () =
  let fox_tp =
    let _, sender, receiver =
      Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
    in
    Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes ()
  in
  let fox_rtt =
    let _, client, server =
      Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
    in
    Fox_run.round_trip Network.fox_tcp ~client ~server ()
  in
  let base_tp =
    let _, sender, receiver =
      Network.pair ~engine:Network.Baseline ~cost:Cost_model.xkernel ()
    in
    Baseline_run.transfer Network.baseline_tcp ~sender ~receiver ~bytes ()
  in
  let base_rtt =
    let _, client, server =
      Network.pair ~engine:Network.Baseline ~cost:Cost_model.xkernel ()
    in
    Baseline_run.round_trip Network.baseline_tcp ~client ~server ()
  in
  (fox_tp, fox_rtt, base_tp, base_rtt)

(** [table2 ?bytes ()] reproduces Table 2: the per-component execution
    profile of the fox transfer, for sender and receiver.  Percentages are
    of each host's {e accounted} (busy) time — the paper's profile also
    sums to ≈100% because its counters covered nearly the whole run. *)
let table2 ?(bytes = 1_000_000) () =
  let _, sender, receiver =
    Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
  in
  let result = Fox_run.transfer Network.fox_tcp ~sender ~receiver ~bytes () in
  let percent profile busy =
    List.map
      (fun (name, us, updates) ->
        (name, 100.0 *. float_of_int us /. float_of_int (max 1 busy), updates))
      profile
  in
  ( result,
    percent result.sender_profile result.sender_busy_us,
    percent result.receiver_profile result.receiver_busy_us )
