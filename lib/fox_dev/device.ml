open Fox_basis

type stats = {
  tx_frames : int;
  tx_bytes : int;
  rx_frames : int;
  rx_bytes : int;
  tx_dropped : int;
  rx_dropped : int;
}

type t = {
  name : string;
  mtu : int;
  port : Link.port;
  on_send : int -> unit;
  tap : Packet.t -> unit;
  (* each arrival forks a thread, in which the upcall may block *)
  mutable threaded : bool;
  mutable is_up : bool;
  mutable handler : (Packet.t -> unit) option;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable rx_frames : int;
  mutable rx_bytes : int;
  mutable tx_dropped : int;
  mutable rx_dropped : int;
}

let create ?(name = "dev0") ?(mtu = 1518) ?(on_send = ignore) ?on_receive
    ?(tap = ignore) (port : Link.port) =
  let t =
    {
      name;
      mtu;
      port;
      on_send;
      tap;
      threaded = Option.is_some on_receive;
      is_up = true;
      handler = None;
      tx_frames = 0;
      tx_bytes = 0;
      rx_frames = 0;
      rx_bytes = 0;
      tx_dropped = 0;
      rx_dropped = 0;
    }
  in
  port.Link.set_receive (fun frame ->
      if not t.is_up then t.rx_dropped <- t.rx_dropped + 1
      else
        match t.handler with
        | None -> t.rx_dropped <- t.rx_dropped + 1
        | Some h -> (
          t.rx_frames <- t.rx_frames + 1;
          t.rx_bytes <- t.rx_bytes + Packet.length frame;
          if not t.threaded then begin
            tap frame;
            h frame
          end
          else
            (* the wire delivers from the scheduler loop; a metered
               receive may sleep on the host's CPU, so it gets a thread *)
            Fox_sched.Scheduler.fork (fun () ->
                (match on_receive with
                | Some charge -> charge (Packet.length frame)
                | None -> ());
                tap frame;
                h frame)));
  t

let send t frame =
  if (not t.is_up) || Packet.length frame > t.mtu then
    t.tx_dropped <- t.tx_dropped + 1
  else begin
    t.tx_frames <- t.tx_frames + 1;
    t.tx_bytes <- t.tx_bytes + Packet.length frame;
    t.on_send (Packet.length frame);
    t.tap frame;
    t.port.Link.transmit frame
  end

let set_receive t handler = t.handler <- Some handler

let thread_receives t = t.threaded <- true

let up t = t.is_up <- true

let down t = t.is_up <- false

let mtu t = t.mtu

let stats t =
  {
    tx_frames = t.tx_frames;
    tx_bytes = t.tx_bytes;
    rx_frames = t.rx_frames;
    rx_bytes = t.rx_bytes;
    tx_dropped = t.tx_dropped;
    rx_dropped = t.rx_dropped;
  }
