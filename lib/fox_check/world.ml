(** The world the check harnesses build, written once: the address plan
    (harness [s] on 10.[s].0.0/24, MAC 02:00:00:00:[s]:[host], next hops
    mapped statically, no ARP), the engines over it, and the check
    battery around a run. *)

open Fox_basis
module Link = Fox_dev.Link
module Device = Fox_dev.Device
module Ipv4_addr = Fox_ip.Ipv4_addr
module Status = Fox_proto.Status
module Bus = Fox_obs.Bus

(* ------------------------------------------------------------------ *)
(* The address plan                                                   *)
(* ------------------------------------------------------------------ *)

module Eth = Fox_eth.Eth.Standard
module Ip = Fox_ip.Ip.Make (Eth) (Fox_ip.Ip.Default_params)
module Ip_aux = Fox_ip.Ip_aux.Make (Ip)

(* Built from integers, not parsed from text: [Load.make_host] sits in
   the measured set-up of the [rpc] benchmark workload. *)

(** [addr ~subnet n] is host [n] of 10.[subnet].0.0/24. *)
let addr ~subnet n = Ipv4_addr.of_int (0x0a00_0000 lor (subnet lsl 16) lor n)

(** [mac ~subnet addr] is 02:00:00:00:[subnet]:[last byte of addr]. *)
let mac ~subnet addr =
  Fox_eth.Mac.of_int
    (0x0200_0000_0000 lor (subnet lsl 8) lor (Ipv4_addr.to_int addr land 0xff))

(** The IP configuration of [local_ip] on 10.[subnet].0.0/24, for any IP
    application over Ethernet (fuzz runs its own, over a faulty
    Ethernet). *)
module Ip_config
    (I : Fox_ip.Ip.S
           with type lower_address = Fox_eth.Eth.address
            and type lower_pattern = Fox_eth.Eth.pattern) =
struct
  let make ~subnet local_ip =
    let ipv4 = Fox_eth.Frame.ethertype_ipv4 in
    {
      I.local_ip;
      route = Fox_ip.Route.local ~network:(addr ~subnet 0) ~prefix:24;
      lower_address =
        (fun next_hop -> { Fox_eth.Eth.dest = mac ~subnet next_hop; proto = ipv4 });
      lower_pattern = { Fox_eth.Eth.match_proto = ipv4 };
    }
end

let ip_config =
  let module C = Ip_config (Ip) in
  C.make

(** [host ~subnet link index ~addr] is a plain Eth/IP host on port
    [index] of [link]. *)
let host ~subnet link index ~addr =
  let dev = Device.create (Link.port link index) in
  let eth = Eth.create dev ~mac:(mac ~subnet addr) in
  Ip.create eth (ip_config ~subnet addr)

(* ------------------------------------------------------------------ *)
(* Engines                                                            *)
(* ------------------------------------------------------------------ *)

(** [per_cc f] is [f] applied once to every algorithm of
    {!Fox_tcp.Congestion.all}, keyed by name, in registry order. *)
let per_cc f =
  List.map
    (fun (module C : Fox_tcp.Congestion.S) ->
      (C.name, f (module C : Fox_tcp.Congestion.S)))
    Fox_tcp.Congestion.all

(** [by_cc ~who table cc] looks [cc] up in a {!per_cc} table; an unknown
    name raises [Invalid_argument]. *)
let by_cc ~who table cc =
  match List.assoc_opt cc table with
  | Some x -> x
  | None -> invalid_arg (who ^ ": unknown congestion control " ^ cc)

(** Both TCPs behind one face, over a lower layer of type [lower]. *)
module type ENGINE = sig
  type lower
  type t
  type connection

  val create : lower -> t

  val listen :
    t -> port:int -> on_data:(Packet.t -> unit) ->
    on_status:(Status.t -> unit) -> unit

  val connect :
    t -> peer:Ipv4_addr.t -> port:int -> on_status:(Status.t -> unit) ->
    connection

  val send_string : connection -> string -> unit
  val close : connection -> unit
  val abort : connection -> unit
  val stats_line : t -> string
end

module Engines
    (Lower : Fox_proto.Protocol.PROTOCOL
               with type incoming_message = Packet.t
                and type outgoing_message = Packet.t)
    (Aux : Fox_proto.Protocol.IP_AUX
             with type host = Ipv4_addr.t
              and type lower_address = Lower.address
              and type lower_pattern = Lower.address_pattern
              and type lower_connection = Lower.connection) =
struct
  module type S = ENGINE with type lower = Lower.t

  (* Both TCPs open and send through the same address records. *)
  module Adapt (T : sig
    type address = { peer : Ipv4_addr.t; port : int; local_port : int option }
    type pattern = { local_port : int }

    include
      Fox_proto.Protocol.PROTOCOL
        with type address := address
         and type address_pattern := pattern
         and type incoming_message = Packet.t
         and type outgoing_message = Packet.t

    val create : Lower.t -> t
  end) =
  struct
    type lower = Lower.t
    type t = T.t
    type connection = T.connection

    let create = T.create

    let listen t ~port ~on_data ~on_status =
      ignore
        (T.start_passive t { T.local_port = port } (fun _conn ->
             (on_data, on_status)))

    let connect t ~peer ~port ~on_status =
      T.connect t { T.peer; port; local_port = None } (fun _conn ->
          (ignore, on_status))

    let send_string conn str =
      let p = T.allocate_send conn (String.length str) in
      Packet.blit_from_string str 0 p 0 (String.length str);
      T.send conn p

    let close = T.close
    let abort = T.abort
  end

  (* Each application is a fresh [Tcp.Make], with its own
     [tcp-engine-N] bus ids. *)
  module Fox (Cc : Fox_tcp.Congestion.S) (P : Fox_tcp.Tcp.PARAMS) : S = struct
    module Tcp = Fox_tcp.Tcp.Make (Lower) (Aux) (Cc) (P)
    include Adapt (Tcp)

    let stats_line t =
      let s = Tcp.stats t in
      Printf.sprintf "segs_in=%d segs_out=%d rsts=%d send_failures=%d conns=%d"
        s.Fox_tcp.Tcp.segs_in s.Fox_tcp.Tcp.segs_out s.Fox_tcp.Tcp.rsts_sent
        s.Fox_tcp.Tcp.wire_send_failures s.Fox_tcp.Tcp.active_conns
  end

  module Baseline (P : Fox_baseline.Tcp_monolithic.PARAMS) : S = struct
    module B = Fox_baseline.Tcp_monolithic.Make (Lower) (Aux) (P)
    include Adapt (B)

    let stats_line t =
      let s = B.stats t in
      Printf.sprintf "segs_in=%d segs_out=%d rsts=%d rtx=%d"
        s.Fox_baseline.Tcp_monolithic.segs_in
        s.Fox_baseline.Tcp_monolithic.segs_out
        s.Fox_baseline.Tcp_monolithic.rsts_sent
        s.Fox_baseline.Tcp_monolithic.retransmissions
  end

  (** One structured adapter per algorithm, all over [P]. *)
  let fox_table (module P : Fox_tcp.Tcp.PARAMS) =
    per_cc (fun (module C : Fox_tcp.Congestion.S) -> (module Fox (C) (P) : S))
end

(** TCP, sockets and HTTP over the plain {!Ip}, with the bulk-transfer
    server and client the transfer harnesses share. *)
module Stack (Cc : Fox_tcp.Congestion.S) (P : Fox_tcp.Tcp.PARAMS) = struct
  module Tcp = Fox_tcp.Tcp.Make (Ip) (Ip_aux) (Cc) (P)

  module Sock = Fox_proto.Socket.Make (struct
    include Tcp

    type address_pattern = pattern
  end)

  module Http = Fox_app.Http.Make (Sock)

  (** [sink t ~port ~stream] accepts every connection on [port] and
      appends its bytes to the buffer [stream ()] hands back, running the
      returned hook after each segment; our half closes when the peer
      closes theirs, so the client is the active closer. *)
  let sink t ~port ~stream =
    ignore
      (Tcp.start_passive t { Tcp.local_port = port } (fun conn ->
           let buf, on_data = stream () in
           ( (fun packet ->
               Buffer.add_string buf (Packet.to_string packet);
               Packet.release packet;
               on_data ()),
             function Status.Remote_close -> Tcp.close conn | _ -> () )))

  (** [push t ~peer ~port payload] connects, hands [payload] to TCP in
      one send and closes.  [on_open] sees the connection before the
      send; refused connects and sends go to their handlers. *)
  let push ?(on_open = ignore) ?(connect_failed = ignore)
      ?(send_failed = ignore) t ~peer ~port payload =
    match
      Tcp.connect t { Tcp.peer; port; local_port = None } (fun _conn ->
          (ignore, ignore))
    with
    | exception Fox_proto.Common.Connection_failed msg -> connect_failed msg
    | conn ->
      on_open conn;
      let p = Tcp.allocate_send conn (String.length payload) in
      Packet.blit_from_string payload 0 p 0 (String.length payload);
      (match Tcp.send conn p with
      | () -> ()
      | exception Fox_proto.Common.Send_failed msg -> send_failed msg);
      Tcp.close conn
end

(* ------------------------------------------------------------------ *)
(* The check battery                                                  *)
(* ------------------------------------------------------------------ *)

type 'a checked = {
  value : 'a;
  faults : string list;
      (** invariant violations, tagged [t=<now> after <action>:], and
          fast-path divergences, in the order they happened *)
  ring : string list;  (** the flight-recorder ring, oldest first *)
  leaked : int;  (** live packet buffers the run left behind *)
}

(** [checked body] runs [body] under the checks asked for:
    [invariants] installs {!Tcb_invariants} (collected under a mutex, so
    shards on several domains may report), [shadow] replays every
    fast-path hit through the general receive path, [flight] arms a
    fresh flight recorder and dumps it, and [census] counts the live
    packet buffers [body] leaves behind on the calling domain.  Every
    hook, flag and the bus come back to their earlier state however
    [body] exits. *)
let checked ?(invariants = false) ?(shadow = false) ?(flight = false)
    ?(census = false) body =
  let faults = ref [] in
  let lock = Mutex.create () in
  let report msgs = Mutex.protect lock (fun () -> faults := !faults @ msgs) in
  if invariants then
    Tcb_invariants.install
      ~on_violation:(fun info msgs ->
        report
          (List.map
             (Printf.sprintf "t=%d after %s: %s" info.Fox_tcp.Check_hook.now
                (Fox_tcp.Tcb.action_name info.Fox_tcp.Check_hook.action))
             msgs))
      ();
  let saved_diff = !Fox_tcp.Receive.differential in
  let saved_mismatch = !Fox_tcp.Receive.on_mismatch in
  if shadow then begin
    Fox_tcp.Receive.differential := true;
    Fox_tcp.Receive.on_mismatch :=
      fun msg -> report [ "fast-path divergence: " ^ msg ]
  end;
  let bus_was_live = !Bus.live in
  if flight then begin
    Bus.reset ();
    Bus.enable ()
  end;
  let ring = ref [] in
  let live_before = Packet.live_packets () in
  let value =
    Fun.protect
      ~finally:(fun () ->
        Fox_tcp.Receive.differential := saved_diff;
        Fox_tcp.Receive.on_mismatch := saved_mismatch;
        if flight then begin
          ring := Bus.dump ();
          Bus.reset ();
          if not bus_was_live then Bus.disable ()
        end;
        if invariants then Tcb_invariants.uninstall ())
      body
  in
  {
    value;
    faults = !faults;
    ring = !ring;
    leaked = (if census then Packet.live_packets () - live_before else 0);
  }

(** [tail ~cap lines] keeps the newest [cap] lines, noting how many older
    ones were elided. *)
let tail ~cap lines =
  let n = List.length lines in
  if n <= cap then lines
  else
    Printf.sprintf "... %d earlier events elided ..." (n - cap)
    :: List.filteri (fun i _ -> i >= n - cap) lines
