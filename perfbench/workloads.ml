(* The three workloads, each in two builds of the same stack:

   - the library build, through the library's public entry points
     ([Fox_stack.Network.pair] for the stream workloads,
     [Fox_check.Load.run] for [rpc]), which the end-to-end metrics time;
   - the benchmark's own copy of that stack, assembled from the same
     functors with a span shim at every boundary ({!Shim}), which the
     traced run times layer by layer.  The copy is only trusted when it
     reproduces the library build's segment counts, retransmissions and
     virtual clock exactly ({!same_protocol_work}).

   All of it runs the library's default configuration: no datapath
   switch is set here. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Status = Fox_proto.Status
module Mac = Fox_eth.Mac
module Ipv4_addr = Fox_ip.Ipv4_addr
module Route = Fox_ip.Route
module Load = Fox_check.Load
module Bus = Fox_obs.Bus

(** What one unit of work reports.  Times are wall-clock nanoseconds of
    the timed phase (world construction excluded, except what [Load.run]
    builds itself); [sim_us] and the latencies are virtual microseconds. *)
type outcome = {
  run_ns : int;
  cpu_ns : int;
  ops : int;  (** messages ([bulk], [lossy]) or requests ([rpc]) *)
  failed : int;
  payload : int;  (** verified payload bytes *)
  segs : int;  (** TCP segments sent by both hosts *)
  rtx : int;
  fast_hits : int;
  segs_in : int;  (** segments that reached either TCP engine *)
  frames : int;  (** frames put on the wire *)
  dropped : int;
  queue_drops : int;
  sim_us : int;
  end_time : int;  (** virtual clock when the unit's scheduler stopped *)
  samples : int;  (** latency samples: one per operation *)
  p50_us : int;
  p99_us : int;
  digest : int array;
      (** the latencies the copy check compares: every message's on the
          stream workloads, [rpc]'s p50/p95/p99/max *)
  sched : Scheduler.stats option;
}

let now_ns = Span.monotonic

let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* Engine and connection stats providers stay registered on the bus
   until a TCB is deleted; a world that is thrown away must take them
   along, or every unit leaks the previous one. *)
let forget_worlds () =
  List.iter (fun (id, _) -> Bus.unregister_stats ~id) (Bus.stats_snapshots ())

(* ------------------------------------------------------------------ *)
(* The stream: seeded messages of whole MSS-sized segments             *)
(* ------------------------------------------------------------------ *)

(* The byte at stream offset [o] is [pat.(o land (window - 1))]; the
   pattern holds two copies so any segment is one contiguous slice.
   Messages are marks in the byte stream, each 2 segments plus
   [size_units]/4096ths of a segment, and the stream is padded to whole
   segments: the sender writes full segments regardless of where a
   message starts or ends. *)
let window = 65536

type plan = { pat : Bytes.t; size_units : int array }

let plan ~seed ~messages =
  let rng = Rng.create seed in
  let half = Rng.bytes rng window in
  let pat = Bytes.create (2 * window) in
  Bytes.blit half 0 pat 0 window;
  Bytes.blit half 0 pat window window;
  { pat; size_units = Array.init messages (fun _ -> Rng.int rng ((4 * 4096) + 1)) }

type stream = {
  plan : plan;
  ends : int array;  (** cumulative end offset of each message *)
  start_at : int array;
  done_at : int array;
  bad : bool array;
  mutable got : int;
  mutable next : int;  (** first message not yet complete *)
}

let stream plan =
  let n = Array.length plan.size_units in
  {
    plan;
    ends = Array.make n 0;
    start_at = Array.make n 0;
    done_at = Array.make n (-1);
    bad = Array.make n false;
    got = 0;
    next = 0;
  }

let same a ao b bo n =
  let rec words i =
    if i + 8 <= n then
      (Bytes.get_int64_ne a (ao + i) : int64) = Bytes.get_int64_ne b (bo + i)
      && words (i + 8)
    else tail i
  and tail i = i >= n || (Bytes.get a (ao + i) = Bytes.get b (bo + i) && tail (i + 1)) in
  words 0

(* The receiver's data upcall: check the bytes against the pattern and
   stamp every message the segment completes. *)
let receive st p =
  let n = Packet.length p in
  let msgs = Array.length st.ends in
  let ok =
    st.next < msgs
    && st.got + n <= st.ends.(msgs - 1)
    && same (Packet.buffer p) (Packet.offset p) st.plan.pat
         (st.got land (window - 1)) n
  in
  if not ok then begin
    let j = ref st.next in
    while !j < msgs && (!j = st.next || st.ends.(!j - 1) < st.got + n) do
      st.bad.(!j) <- true;
      incr j
    done
  end;
  st.got <- st.got + n;
  while st.next < msgs && st.got >= st.ends.(st.next) do
    st.done_at.(st.next) <- Scheduler.now ();
    st.next <- st.next + 1
  done;
  Packet.release p

let stream_results st =
  let msgs = Array.length st.ends in
  let failed = ref 0 in
  let lat = ref [] in
  for i = 0 to msgs - 1 do
    if st.bad.(i) || st.done_at.(i) < 0 then incr failed
    else lat := (st.done_at.(i) - st.start_at.(i)) :: !lat
  done;
  if st.got <> st.ends.(msgs - 1) && !failed = 0 then failed := 1;
  let lat = Array.of_list !lat in
  Array.sort compare lat;
  let last_done = Array.fold_left max 0 st.done_at in
  (!failed, lat, max 1 (last_done - st.start_at.(0)), min st.got st.ends.(msgs - 1))

let port = 5001

(** What the stream app needs of a TCP; both [Fox_stack.Stack.Tcp] and
    the shimmed copies match it. *)
module type TCP = sig
  type t
  type connection
  type listener
  type address = { peer : Ipv4_addr.t; port : int; local_port : int option }
  type pattern = { local_port : int }

  val connect :
    t -> address -> (connection -> (Packet.t -> unit) * (Status.t -> unit)) ->
    connection

  val start_passive :
    t -> pattern -> (connection -> (Packet.t -> unit) * (Status.t -> unit)) ->
    listener

  val allocate_send : connection -> int -> Packet.t
  val send : connection -> Packet.t -> unit
  val close : connection -> unit
  val max_packet_size : connection -> int
  val stats : t -> Fox_tcp.Tcp.stats
  val conn_stats : connection -> Fox_tcp.Tcp.conn_stats
end

(* Sender [S] streams to receiver [R]; [app] wraps the sender thread
   (a root span in the traced copy). *)
module Stream_app (S : TCP) (R : TCP) = struct
  let listen st (r : R.t) =
    let conn_in = ref None in
    ignore
      (R.start_passive r { R.local_port = port } (fun conn ->
           conn_in := Some conn;
           ( receive st,
             function Status.Remote_close -> R.close conn | _ -> () )));
    conn_in

  let send_all st (s : S.t) ~peer ~app =
    let conn_out = ref None in
    let sched =
      Scheduler.run (fun () ->
          app (fun () ->
              let conn =
                S.connect s { S.peer; port; local_port = None } (fun _ ->
                    (Packet.release, ignore))
              in
              conn_out := Some conn;
              let mss = S.max_packet_size conn in
              let total = ref 0 in
              Array.iteri
                (fun i u ->
                  total := !total + (2 * mss) + (u * mss / 4096);
                  st.ends.(i) <- !total)
                st.plan.size_units;
              let last = Array.length st.ends - 1 in
              st.ends.(last) <- (st.ends.(last) + mss - 1) / mss * mss;
              total := st.ends.(last);
              (* a message starts when the segment holding its first
                 byte is written *)
              let next = ref 0 in
              let off = ref 0 in
              while !off < !total do
                let n = min mss (!total - !off) in
                while
                  !next < Array.length st.ends
                  && (if !next = 0 then 0 else st.ends.(!next - 1)) < !off + n
                do
                  st.start_at.(!next) <- Scheduler.now ();
                  incr next
                done;
                let p = S.allocate_send conn n in
                Packet.blit_from_bytes st.plan.pat (!off land (window - 1)) p 0 n;
                S.send conn p;
                off := !off + n
              done;
              S.close conn))
    in
    (sched, conn_out)

  let outcome st ~run_ns ~cpu_ns ~sched ~link (s : S.t) (r : R.t)
      sconn rconn =
    let failed, latencies, sim_us, payload = stream_results st in
    let cs = Option.map S.conn_stats sconn and cr = Option.map R.conn_stats rconn in
    let get f = function Some c -> f c | None -> 0 in
    let l0 = Link.stats link 0 and l1 = Link.stats link 1 in
    {
      run_ns;
      cpu_ns;
      ops = Array.length st.ends;
      failed;
      payload;
      segs = (S.stats s).Fox_tcp.Tcp.segs_out + (R.stats r).Fox_tcp.Tcp.segs_out;
      rtx =
        get (fun c -> c.Fox_tcp.Tcp.retransmissions) cs
        + get (fun c -> c.Fox_tcp.Tcp.retransmissions) cr;
      fast_hits =
        get (fun c -> c.Fox_tcp.Tcp.fast_path_hits) cs
        + get (fun c -> c.Fox_tcp.Tcp.fast_path_hits) cr;
      segs_in = (S.stats s).Fox_tcp.Tcp.segs_in + (R.stats r).Fox_tcp.Tcp.segs_in;
      frames = l0.Link.tx_frames + l1.Link.tx_frames;
      dropped = l0.Link.dropped + l1.Link.dropped;
      queue_drops = l0.Link.queue_drops + l1.Link.queue_drops;
      sim_us;
      end_time = sched.Scheduler.end_time;
      samples = Array.length latencies;
      p50_us = Load.percentile latencies 0.50;
      p99_us = Load.percentile latencies 0.99;
      digest = latencies;
      sched = Some sched;
    }
end

(* ---- library build: the standard two-host stack ---- *)

module Lib_stream = Stream_app (Stack.Tcp) (Stack.Tcp)

let stream_setup_ns netem plan =
  let t0 = now_ns () in
  let _, _, b = Network.pair ~engine:Network.Fox ~netem () in
  ignore (Lib_stream.listen (stream plan) (Network.fox_tcp b));
  let t1 = now_ns () in
  forget_worlds ();
  t1 - t0

let stream_lib netem plan () =
  let st = stream plan in
  let link, a, b = Network.pair ~engine:Network.Fox ~netem () in
  let s = Network.fox_tcp a and r = Network.fox_tcp b in
  let rconn = Lib_stream.listen st r in
  let t1 = now_ns () in
  let c0 = cpu_ns () in
  let sched, sconn = Lib_stream.send_all st s ~peer:b.Network.addr ~app:(fun f -> f ()) in
  let c1 = cpu_ns () in
  let t2 = now_ns () in
  let o =
    Lib_stream.outcome st ~run_ns:(t2 - t1) ~cpu_ns:(c1 - c0)
      ~sched ~link s r !sconn !rconn
  in
  forget_worlds ();
  o

(* ---- the traced copy ---- *)

(* A TCP seen as a [PROTOCOL] (it renames [address_pattern] to
   [pattern]), and its connections named by their port pair. *)
module Tcp_p (T : sig
  type pattern

  include Fox_proto.Protocol.PROTOCOL with type address_pattern := pattern
end) =
struct
  include T

  type address_pattern = pattern
end

module Conn_id (T : sig
  type connection

  val endpoints : connection -> Ipv4_addr.t * int * int
end) =
struct
  let id c =
    let _, local, remote = T.endpoints c in
    (local lsl 16) lor remote
end

module type HOST = sig
  val host : int
end

let layers host lower upper =
  (module struct
    let host = host
    let lower = lower
    let upper = upper
  end : Shim.LAYERS)

(* [Device → Eth → Arp → Ip → Tcp], as [Fox_stack.Network.create_host]
   builds it, with a span shim wherever the library has a meter or
   probe and at the application boundary. *)
module Stream_host (H : HOST) = struct
  module E = Fox_eth.Eth.Standard

  module Eth_t = struct
    include E
    include Shim.Ops (E) ((val layers H.host Span.eth Span.arp)) (Shim.Inherit)
  end

  module A = Fox_arp.Arp.Make (Eth_t)

  module Arp_t = struct
    include A
    include Shim.Ops (A) ((val layers H.host Span.arp Span.ip)) (Shim.Inherit)
  end

  module I = Fox_ip.Ip.Make (Arp_t) (Fox_ip.Ip.Default_params)

  module Ip_t = struct
    include I
    include Shim.Ops (I) ((val layers H.host Span.ip Span.tcp)) (Shim.Inherit)
  end

  module T =
    Fox_tcp.Tcp.Make (Ip_t) (Fox_ip.Ip_aux.Make (Ip_t)) (Fox_tcp.Congestion.Reno)
      (Fox_tcp.Tcp.Default_params)

  module Tcp_t = struct
    include T
    include Shim.Ops (Tcp_p (T)) ((val layers H.host Span.tcp Span.app)) (Conn_id (T))
  end

  let create link ~mac ~addr =
    let route = Route.local ~network:(Ipv4_addr.of_string "10.0.0.0") ~prefix:24 in
    let dev =
      Device.create
        ~name:(Printf.sprintf "eth%d" H.host)
        (Shim.port H.host (Link.port link H.host))
    in
    let eth = Eth_t.create dev ~mac:(Mac.of_string mac) in
    let arp = Arp_t.create eth ~local_ip:(Ipv4_addr.of_string addr) () in
    let ip =
      Ip_t.create arp
        { I.local_ip = Ipv4_addr.of_string addr; route; lower_address = Fun.id;
          lower_pattern = () }
    in
    Tcp_t.create ip
end

module Stream0 = Stream_host (struct let host = 0 end)
module Stream1 = Stream_host (struct let host = 1 end)
module Copy_stream = Stream_app (Stream0.Tcp_t) (Stream1.Tcp_t)

(** [traced f] runs [f] with the span aggregates reset and returns its
    result and the wall nanoseconds the aggregates cover. *)
let traced f =
  Span.reset ();
  let t0 = !Span.last in
  let r = f () in
  let t1 = Span.finish () in
  (r, t1 - t0)

let stream_copy netem plan () =
  let st = stream plan in
  let link = Link.point_to_point netem in
  let s = Stream0.create link ~mac:"02:00:00:00:00:01" ~addr:"10.0.0.1" in
  let r = Stream1.create link ~mac:"02:00:00:00:00:02" ~addr:"10.0.0.2" in
  let rconn = Copy_stream.listen st r in
  let c0 = cpu_ns () in
  let (sched, sconn), run_ns =
    traced (fun () ->
        Copy_stream.send_all st s ~peer:(Ipv4_addr.of_string "10.0.0.2")
          ~app:(fun f -> Span.span Span.app 0 (-1) f ()))
  in
  let c1 = cpu_ns () in
  let o =
    Copy_stream.outcome st ~run_ns ~cpu_ns:(c1 - c0) ~sched
      ~link s r !sconn !rconn
  in
  forget_worlds ();
  o

(* ------------------------------------------------------------------ *)
(* rpc: the serve stack under Load's closed loop                       *)
(* ------------------------------------------------------------------ *)

let rpc_config ~seed ~clients ~requests =
  {
    Load.default_config with
    Load.seed;
    app = Load.Http_app;
    conns = clients;
    requests;
    payload = 1024;
    ramp_us = 100;
    shards = 1;
  }

(* Load builds its world internally and reports no segment counts, but
   its engines register their counters on the bus ("segs=in/out"). *)
let engine_segs_out () =
  let key = "segs=" in
  let rec find s i =
    if i + String.length key > String.length s then None
    else if String.sub s i (String.length key) = key then Some i
    else find s (i + 1)
  in
  List.fold_left
    (fun acc (id, s) ->
      match find s 0 with
      | Some i when String.starts_with ~prefix:"tcp-engine-" id ->
        Scanf.sscanf (String.sub s i (String.length s - i)) "segs=%d/%d"
          (fun _ out -> acc + out)
      | _ -> acc)
    0 (Bus.stats_snapshots ())

let rpc_lib cfg () =
  forget_worlds ();
  let c0 = cpu_ns () in
  let t0 = now_ns () in
  let r = Load.run cfg in
  let t1 = now_ns () in
  let c1 = cpu_ns () in
  let segs = engine_segs_out () in
  forget_worlds ();
  {
    run_ns = t1 - t0;
    cpu_ns = c1 - c0;
    ops = r.Load.requests_attempted;
    failed = r.Load.requests_attempted - r.Load.requests_ok;
    payload = r.Load.bytes_received;
    segs;
    rtx = 0;
    fast_hits = 0;
    segs_in = 0;
    frames = 0;
    dropped = 0;
    queue_drops = 0;
    sim_us = r.Load.elapsed_us;
    end_time = r.Load.elapsed_us;
    samples = r.Load.requests_attempted;
    p50_us = r.Load.p50_us;
    p99_us = r.Load.p99_us;
    digest = [| r.Load.p50_us; r.Load.p95_us; r.Load.p99_us; r.Load.max_us |];
    sched = None;
  }

(* [Device → Eth → Ip → Tcp → Socket → Http], as [Fox_check.Load]
   builds it (the serve stack has no ARP). *)
module Rpc_host (H : HOST) = struct
  module E = Fox_eth.Eth.Standard

  module Eth_t = struct
    include E
    include Shim.Ops (E) ((val layers H.host Span.eth Span.ip)) (Shim.Inherit)
  end

  module I = Fox_ip.Ip.Make (Eth_t) (Fox_ip.Ip.Default_params)

  module Ip_t = struct
    include I
    include Shim.Ops (I) ((val layers H.host Span.ip Span.tcp)) (Shim.Inherit)
  end

  module T =
    Fox_tcp.Tcp.Make (Ip_t) (Fox_ip.Ip_aux.Make (Ip_t)) (Fox_tcp.Congestion.Reno)
      (Load.Serve_params)

  module Tcp_t = struct
    include T
    include Shim.Ops (Tcp_p (T)) ((val layers H.host Span.tcp Span.app)) (Conn_id (T))
  end

  module Sock = Fox_proto.Socket.Make (struct
    include Tcp_t

    type address_pattern = pattern
  end)

  module Http = Fox_app.Http.Make (Sock)

  let create link ~addr =
    let addr = Ipv4_addr.of_string addr in
    let dev = Device.create (Shim.port H.host (Link.port link H.host)) in
    let eth = Eth_t.create dev ~mac:(Load.mac_of addr) in
    Tcp_t.create
      (Ip_t.create eth
         {
           I.local_ip = addr;
           route = Route.local ~network:(Ipv4_addr.of_string "10.2.0.0") ~prefix:24;
           lower_address =
             (fun next_hop ->
               { Fox_eth.Eth.dest = Load.mac_of next_hop;
                 proto = Fox_eth.Frame.ethertype_ipv4 });
           lower_pattern = { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 };
         })
end

module Client = Rpc_host (struct let host = 0 end)
module Server = Rpc_host (struct let host = 1 end)

let rpc_netem (cfg : Load.config) =
  { Netem.gigabit with Netem.queue_frames = 4096; seed = cfg.Load.seed lxor 0x10ad }

let site (cfg : Load.config) =
  Fox_app.Http.Site.of_pages
    [
      ("/index.html", "text/html", "<html><body><h1>foxnet</h1></body></html>\n");
      ("/payload", "application/octet-stream", String.make cfg.Load.payload 'x');
    ]

(* The constructors [Load.run] calls before its first segment. *)
let rpc_setup_ns (cfg : Load.config) () =
  let t0 = now_ns () in
  let link = Link.hub ~ports:2 (rpc_netem cfg) in
  let client = Load.make_host link 0 ~addr:(Ipv4_addr.of_string "10.2.0.1") in
  let server = Load.make_host link 1 ~addr:(Ipv4_addr.of_string "10.2.0.2") in
  let server_t = Load.Tcp.create server in
  let _client_t = Load.Tcp.create client in
  let site = site cfg in
  ignore
    (Load.Sock.listen server_t { Load.Tcp.local_port = Load.http_port }
       (Load.Http.serve site));
  let t1 = now_ns () in
  forget_worlds ();
  t1 - t0

(* [Load.run_world]'s HTTP exchange, on the shimmed copy. *)
let rpc_copy (cfg : Load.config) () =
  forget_worlds ();
  let link = Link.hub ~ports:2 (rpc_netem cfg) in
  let client_t = Client.create link ~addr:"10.2.0.1" in
  let server_t = Server.create link ~addr:"10.2.0.2" in
  let server_addr = Ipv4_addr.of_string "10.2.0.2" in
  let site = site cfg in
  let ok = ref 0 and errors = ref 0 and bytes = ref 0 and last_done = ref 0 in
  let latencies = ref [] in
  let rtx = ref 0 and fast = ref 0 in
  let tally (cs : Fox_tcp.Tcp.conn_stats) =
    rtx := !rtx + cs.Fox_tcp.Tcp.retransmissions;
    fast := !fast + cs.Fox_tcp.Tcp.fast_path_hits
  in
  let app host f x = Span.span Span.app host (-1) f x in
  let client i =
    Scheduler.sleep (i * cfg.Load.ramp_us);
    match
      Client.Sock.connect client_t
        { Client.Tcp_t.peer = server_addr; port = Load.http_port; local_port = None }
    with
    | exception Fox_proto.Common.Connection_failed _ -> incr errors
    | sock -> (
      match
        for _ = 0 to cfg.Load.requests - 1 do
          let t0 = Scheduler.now () in
          let good =
            match Client.Http.get sock "/payload" with
            | Some (200, _, body) when String.length body = cfg.Load.payload ->
              bytes := !bytes + String.length body;
              true
            | Some _ | None -> false
          in
          let t1 = Scheduler.now () in
          latencies := (t1 - t0) :: !latencies;
          if good then incr ok;
          if t1 > !last_done then last_done := t1
        done
      with
      | () ->
        tally (Client.Tcp_t.conn_stats (Client.Sock.connection sock));
        Client.Sock.close sock
      | exception (Fox_proto.Socket.Socket_error _ | Fox_proto.Common.Send_failed _)
        ->
        incr errors;
        Client.Sock.abort sock)
  in
  let serve sock =
    Server.Http.serve site sock;
    tally (Server.Tcp_t.conn_stats (Server.Sock.connection sock))
  in
  let c0 = cpu_ns () in
  let sched, run_ns =
    traced (fun () ->
        Scheduler.run (fun () ->
            ignore
              (Server.Sock.listen server_t { Server.Tcp_t.local_port = Load.http_port }
                 (app 1 serve));
            List.iter
              (fun i -> Scheduler.fork (fun () -> app 0 client i))
              (Fox_shard.Shard.split ~total:cfg.Load.conns ~shards:1 ~shard:0)))
  in
  let c1 = cpu_ns () in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let l0 = Link.stats link 0 and l1 = Link.stats link 1 in
  let o =
    {
      run_ns;
      cpu_ns = c1 - c0;
      ops = cfg.Load.conns * cfg.Load.requests;
      failed = (cfg.Load.conns * cfg.Load.requests) - !ok;
      payload = !bytes;
      segs =
        (Client.Tcp_t.stats client_t).Fox_tcp.Tcp.segs_out
        + (Server.Tcp_t.stats server_t).Fox_tcp.Tcp.segs_out;
      rtx = !rtx;
      fast_hits = !fast;
      segs_in =
        (Client.Tcp_t.stats client_t).Fox_tcp.Tcp.segs_in
        + (Server.Tcp_t.stats server_t).Fox_tcp.Tcp.segs_in;
      frames = l0.Link.tx_frames + l1.Link.tx_frames;
      dropped = l0.Link.dropped + l1.Link.dropped;
      queue_drops = l0.Link.queue_drops + l1.Link.queue_drops;
      sim_us = max 1 !last_done;
      end_time = max 1 !last_done;
      samples = Array.length sorted;
      p50_us = Load.percentile sorted 0.50;
      p99_us = Load.percentile sorted 0.99;
      digest =
        Array.map (Load.percentile sorted) [| 0.50; 0.95; 0.99; 1.0 |];
      sched = Some sched;
    }
  in
  forget_worlds ();
  o

(** [same_protocol_work lib copy] is the copy check: the traced copy did
    exactly the library build's protocol work. *)
let same_protocol_work ~rpc (lib : outcome) (copy : outcome) =
  let problems = ref [] in
  let check name a b =
    if a <> b then
      problems := Printf.sprintf "%s: library %d, copy %d" name a b :: !problems
  in
  check "segments" lib.segs copy.segs;
  check "virtual end" lib.end_time copy.end_time;
  check "failed" lib.failed copy.failed;
  check "payload" lib.payload copy.payload;
  if lib.digest <> copy.digest then problems := "latencies differ" :: !problems;
  (* Load reports no retransmission or frame counts *)
  if not rpc then begin
    check "retransmissions" lib.rtx copy.rtx;
    check "frames" lib.frames copy.frames
  end;
  List.rev !problems
