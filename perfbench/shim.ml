(* Pass-through span shims at the [PROTOCOL] boundaries: the x-kernel
   virtual-protocol idiom of [Fox_proto.Meter.Make], but instead of
   wrapping the connection type the shim re-exports the protocol with
   its own types and only its boundary functions replaced, so a shimmed
   Ethernet still satisfies [Fox_eth.Eth.S] and a shimmed IP [Ip.S]:

   {[
     module Eth_t = struct
       include Fox_eth.Eth.Standard
       include Shim.Ops (Fox_eth.Eth.Standard) (Layers) (Shim.Inherit)
     end
   ]}

   Down-calls ([connect], [send], the staged send, [close], [abort]) run
   as spans of the lower layer; upcalls (the handler's specialisation and
   the data and status handlers it returns) as spans of the upper one. *)

module type LAYERS = sig
  val host : int
  val lower : int
  val upper : int
end

module Inherit = struct
  let id _ = -1
end

module Ops
    (P : Fox_proto.Protocol.PROTOCOL)
    (L : LAYERS)
    (Id : sig
      val id : P.connection -> int
    end) =
struct
  let down f x = Span.span L.lower L.host (-1) f x

  let wrap (h : P.handler) : P.handler =
   fun conn ->
    let c = Id.id conn in
    let data, status = Span.span L.upper L.host c h conn in
    ( (fun m -> Span.span L.upper L.host c data m),
      fun s -> Span.span L.upper L.host c status s )

  let connect t a h = down (fun () -> P.connect t a (wrap h)) ()

  let start_passive t p h = P.start_passive t p (wrap h)

  let send conn m = Span.span L.lower L.host (Id.id conn) (P.send conn) m

  let prepare_send conn =
    let late = P.prepare_send conn in
    let c = Id.id conn in
    fun m -> Span.span L.lower L.host c late m

  let close conn = down P.close conn

  let abort conn = down P.abort conn
end

(** [port host p] times the wire: a transmit is [link] work, and a
    delivered frame enters the stack as a root [eth] span (device and
    Ethernet demultiplexing). *)
let port host (p : Fox_dev.Link.port) =
  {
    Fox_dev.Link.transmit = (fun f -> Span.span Span.link host (-1) p.transmit f);
    set_receive =
      (fun h -> p.set_receive (fun f -> Span.span Span.eth host (-1) h f));
  }
