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

    Both are generic over the engine through a small adapter module type,
    so the structured TCP and the monolithic baseline run the identical
    experiment code. *)

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

(** What the experiments need from a TCP implementation. *)
module type ENGINE = sig
  type t

  type connection

  val instance : Network.host -> t

  (** [connect t ~peer ~port ~handler] opens actively; [handler] is the
      data upcall of the new connection. *)
  val connect :
    t -> peer:Fox_ip.Ipv4_addr.t -> port:int -> handler:(Packet.t -> unit) ->
    connection

  (** [listen t ~port handler] passively accepts; [handler conn] returns
      the data upcall. *)
  val listen : t -> port:int -> (connection -> Packet.t -> unit) -> unit

  val allocate : connection -> int -> Packet.t

  val send : connection -> Packet.t -> unit

  val mss : connection -> int

  val segments_sent : t -> int

  val conn_retransmissions : connection -> int
end

(** [Fox_engine_of (P)] is the structured TCP under the settings [P]:
    [T] is one more application of {!Fox_tcp.Tcp.Make} over the standard
    stack's metered IP, and [On (I)] is [T] as an engine whose hosts'
    instances [I.instance] finds. *)
module Fox_engine_of (P : Fox_tcp.Tcp.PARAMS) = struct
  module T =
    Fox_tcp.Tcp.Make (Stack.Metered_ip) (Stack.Metered_ip_aux)
      (Fox_tcp.Congestion.Reno)
      (P)

  module On (I : sig
    val instance : Network.host -> T.t
  end) : ENGINE with type t = T.t = struct
    type t = T.t

    type connection = T.connection

    let instance = I.instance

    let connect t ~peer ~port ~handler =
      T.connect t { T.peer; port; local_port = None } (fun _ ->
          (handler, ignore))

    let listen t ~port handler =
      ignore
        (T.start_passive t { T.local_port = port } (fun conn ->
             (handler conn, ignore)))

    let allocate = T.allocate_send

    let send = T.send

    let mss = T.max_packet_size

    let segments_sent t = (T.stats t).Fox_tcp.Tcp.segs_out

    let conn_retransmissions conn =
      (T.conn_stats conn).Fox_tcp.Tcp.retransmissions
  end
end

(* The same application as {!Stack.Tcp} (functors are applicative, so
   [Default_fox.T.t] is [Stack.Tcp.t]): the engine of a [Network.Fox]
   host. *)
module Default_fox = Fox_engine_of (Fox_tcp.Tcp.Default_params)

module Fox_engine : ENGINE with type t = Stack.Tcp.t = Default_fox.On (struct
  let instance = Network.fox_tcp
end)

module Baseline_engine : ENGINE with type t = Stack.Baseline_tcp.t = struct
  module T = Stack.Baseline_tcp

  type t = T.t

  type connection = T.connection

  let instance = Network.baseline_tcp

  let connect t ~peer ~port ~handler =
    T.connect t { T.peer; port; local_port = None } (fun _ -> (handler, ignore))

  let listen t ~port handler =
    ignore
      (T.start_passive t { T.local_port = port } (fun conn ->
           (handler conn, ignore)))

  let allocate = T.allocate_send

  let send = T.send

  let mss = T.max_packet_size

  let segments_sent t = (T.stats t).Fox_baseline.Tcp_monolithic.segs_out

  let conn_retransmissions = T.retransmissions_of
end

module Run (E : ENGINE) = struct
  (* Sender side: accept a connection, read the 8-byte request
     (magic ++ count), stream that many bytes back in MSS-sized packets —
     synthesised in place, one copy into the packet, as the paper counts. *)
  let install_sender host ~port ~server_conn =
    let tcp = E.instance host in
    E.listen tcp ~port (fun conn ->
        server_conn := Some conn;
        fun request ->
          if Packet.length request >= 8 then begin
            let wanted = Packet.get_u32 request 4 in
            Packet.release request;
            Scheduler.fork (fun () ->
                let mss = E.mss conn in
                let sent = ref 0 in
                while !sent < wanted do
                  let n = min mss (wanted - !sent) in
                  let p = E.allocate conn n in
                  for i = 0 to n - 1 do
                    Packet.set_u8 p i (!sent + i)
                  done;
                  E.send conn p;
                  sent := !sent + n
                done)
          end)

  (* [?during] forks an observer thread inside the run, handing it a
     "transfer finished?" predicate — the [foxnet stat] sampler loops on
     [Scheduler.sleep] until the predicate holds, photographing the live
     TCBs in virtual time. *)
  let transfer ?during ~(sender : Network.host) ~(receiver : Network.host)
      ~bytes () =
    let port = 5001 in
    let server_conn = ref None in
    install_sender sender ~port ~server_conn;
    let received = ref 0 in
    let t0 = ref 0 and t1 = ref 0 in
    let gc0 = Gc.quick_stat () in
    let sched =
      Scheduler.run (fun () ->
          let tcp = E.instance receiver in
          (match during with
          | Some observer ->
            Scheduler.fork (fun () -> observer (fun () -> !received >= bytes))
          | None -> ());
          let conn =
            E.connect tcp ~peer:sender.Network.addr ~port ~handler:(fun packet ->
                (* data is discarded at the application level; release
                   the buffer *)
                received := !received + Packet.length packet;
                Packet.release packet;
                if !received >= bytes then t1 := Scheduler.now ())
          in
          t0 := Scheduler.now ();
          let request = E.allocate conn 8 in
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
      sender_segments = E.segments_sent (E.instance sender);
      receiver_segments = E.segments_sent (E.instance receiver);
      retransmissions =
        (match !server_conn with
        | Some conn -> E.conn_retransmissions conn
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
  let round_trip ~(client : Network.host) ~(server : Network.host)
      ?(payload = 64) ?(rounds = 20) () =
    let port = 5007 in
    let echo_tcp = E.instance server in
    E.listen echo_tcp ~port (fun conn packet ->
        let reply = E.allocate conn (Packet.length packet) in
        Packet.blit packet 0 (Packet.buffer reply) (Packet.offset reply)
          (Packet.length packet);
        Packet.release packet;
        E.send conn reply);
    let rtts = ref [] in
    let reply_mb = Fox_sched.Cond.create () in
    let _ =
      Scheduler.run (fun () ->
          let tcp = E.instance client in
          let conn =
            E.connect tcp ~peer:server.Network.addr ~port
              ~handler:(fun _reply -> Fox_sched.Cond.signal reply_mb ())
          in
          for _ = 1 to rounds do
            let sent_at = Scheduler.now () in
            let p = E.allocate conn payload in
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

module Fox_run = Run (Fox_engine)
module Baseline_run = Run (Baseline_engine)

(** [table1 ?bytes ()] reproduces Table 1: throughput and round-trip for
    both engines under their respective DECstation cost models. *)
let table1 ?(bytes = 1_000_000) () =
  let fox_tp =
    let _, sender, receiver =
      Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
    in
    Fox_run.transfer ~sender ~receiver ~bytes ()
  in
  let fox_rtt =
    let _, client, server =
      Network.pair ~engine:Network.Fox ~cost:Cost_model.fox ()
    in
    Fox_run.round_trip ~client ~server ()
  in
  let base_tp =
    let _, sender, receiver =
      Network.pair ~engine:Network.Baseline ~cost:Cost_model.xkernel ()
    in
    Baseline_run.transfer ~sender ~receiver ~bytes ()
  in
  let base_rtt =
    let _, client, server =
      Network.pair ~engine:Network.Baseline ~cost:Cost_model.xkernel ()
    in
    Baseline_run.round_trip ~client ~server ()
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
  let result = Fox_run.transfer ~sender ~receiver ~bytes () in
  let percent profile busy =
    List.map
      (fun (name, us, updates) ->
        (name, 100.0 *. float_of_int us /. float_of_int (max 1 busy), updates))
      profile
  in
  ( result,
    percent result.sender_profile result.sender_busy_us,
    percent result.receiver_profile result.receiver_busy_us )
