(** The x-kernel's virtual protocol, written once.

    The x-kernel calls a protocol that adds behaviour without adding a
    header a {e virtual protocol}; the paper lists them among the x-kernel
    ideas its stack had "not (yet) made use of".  [Make (P) (H)] is a
    protocol identical to [P] — same addresses, same wire format, no
    header pushed — that crosses [H]'s hooks on the way through.  Its two
    instances are {!Meter} (per-layer costs and the flight recorder) and
    [Fox_check.Faulty] (fault injection).

    Staging is kept: the wrapped late send stage is built once per
    [prepare_send], and a connection's wrapped upcall once per
    connection.  Because the functor preserves the address types, a
    virtual layer slots in anywhere in a composition, and [Lift_aux]
    carries the [IP_AUX] structure of the layer below across it. *)

open Fox_basis

(** The two operations a hook may refuse before they reach [P]. *)
type crossing = Allocate | Connect

module type HOOKS = sig
  (** Per-instance state. *)
  type state

  (** [send_stage s inner] is the late send stage wrapped around [inner],
      the layer below's.  Applied once per [prepare_send], and once per
      connection for the unstaged [send]. *)
  val send_stage : state -> (Packet.t -> unit) -> Packet.t -> unit

  (** [upcall s data] wraps a connection's data upcall, once per
      connection. *)
  val upcall : state -> (Packet.t -> unit) -> Packet.t -> unit

  (** [check s crossing] runs before [allocate_send] or [connect] reaches
      [P]; it refuses by raising. *)
  val check : state -> crossing -> unit

  (** [finalize s inner] is the instance's [finalize], where [inner ()]
      is one [P.finalize] of the wrapped instance. *)
  val finalize : state -> (unit -> int) -> int
end

(** What a virtual protocol over a lower one presents.  The [lower_*]
    types are the wrapped protocol's; an instance substitutes them away
    ([with type lower_connection := P.connection ...]). *)
module type S = sig
  type lower_connection
  type lower_address
  type lower_pattern

  include
    Protocol.PROTOCOL
      with type address = lower_address
       and type address_pattern = lower_pattern
       and type incoming_message = Packet.t
       and type outgoing_message = Packet.t

  (** The wrapped connection, for auxiliary structures. *)
  val inner : connection -> lower_connection

  (** Lift an [IP_AUX] structure over the wrapped protocol to one over
      the virtual protocol. *)
  module Lift_aux
      (Aux : Protocol.IP_AUX
               with type lower_connection = lower_connection
                and type lower_address = lower_address
                and type lower_pattern = lower_pattern) :
    Protocol.IP_AUX
      with type host = Aux.host
       and type lower_address = address
       and type lower_pattern = address_pattern
       and type lower_connection = connection
end

module Make
    (P : Protocol.PROTOCOL
           with type incoming_message = Packet.t
            and type outgoing_message = Packet.t)
    (H : HOOKS) : sig
  include
    S
      with type lower_connection := P.connection
       and type lower_address := P.address
       and type lower_pattern := P.address_pattern

  (** [make inner state] wraps [inner]. *)
  val make : P.t -> H.state -> t

  val state : t -> H.state
end = struct
  include Common

  type address = P.address

  type address_pattern = P.address_pattern

  type incoming_message = Packet.t

  type outgoing_message = Packet.t

  type data_handler = incoming_message -> unit

  type status_handler = Status.t -> unit

  type t = { instance : P.t; state : H.state }

  (* [unstaged] is the stage around [P.send], built by the first
     unstaged [send], so that later ones allocate nothing. *)
  type connection = {
    pconn : P.connection;
    conn_state : H.state;
    mutable unstaged : (Packet.t -> unit) option;
  }

  type listener = P.listener

  type handler = connection -> data_handler * status_handler

  let make instance state = { instance; state }

  let state t = t.state

  let inner conn = conn.pconn

  let connection t pconn = { pconn; conn_state = t.state; unstaged = None }

  let wrap_handler t (handler : handler) pconn =
    let data, status = handler (connection t pconn) in
    (H.upcall t.state data, status)

  let connect t address handler =
    H.check t.state Connect;
    connection t (P.connect t.instance address (wrap_handler t handler))

  let start_passive t pattern handler =
    P.start_passive t.instance pattern (wrap_handler t handler)

  let stop_passive = P.stop_passive

  let allocate_send conn len =
    H.check conn.conn_state Allocate;
    P.allocate_send conn.pconn len

  let send conn packet =
    match conn.unstaged with
    | Some stage -> stage packet
    | None ->
      let stage = H.send_stage conn.conn_state (P.send conn.pconn) in
      conn.unstaged <- Some stage;
      stage packet

  let prepare_send conn =
    H.send_stage conn.conn_state (P.prepare_send conn.pconn)

  let close conn = P.close conn.pconn

  let abort conn = P.abort conn.pconn

  let initialize t = P.initialize t.instance

  let finalize t = H.finalize t.state (fun () -> P.finalize t.instance)

  let max_packet_size conn = P.max_packet_size conn.pconn

  let headroom conn = P.headroom conn.pconn

  let tailroom conn = P.tailroom conn.pconn

  let pp_address = P.pp_address

  module Lift_aux
      (Aux : Protocol.IP_AUX with type lower_connection = P.connection) =
  struct
    include (
      Aux :
        Protocol.IP_AUX
          with type host = Aux.host
           and type lower_address = Aux.lower_address
           and type lower_pattern = Aux.lower_pattern
           and type lower_connection := P.connection)

    type lower_connection = connection

    let source conn = Aux.source conn.pconn

    let pseudo conn ~proto ~len = Aux.pseudo conn.pconn ~proto ~len

    let mtu conn = Aux.mtu conn.pconn
  end
end
