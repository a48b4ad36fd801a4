(** Routing tables: longest-prefix match over CIDR entries.

    The stack does not forward (the paper's hosts are end stations on one
    Ethernet); the table decides the {e next hop} for outgoing datagrams —
    the destination itself when it is on-link, or a gateway. *)

type t

type entry = {
  network : Ipv4_addr.t;
  prefix : int;
  gateway : Ipv4_addr.t option;  (** [None] means directly connected *)
}

(** [create entries] builds a table; entries may be given in any order. *)
val create : entry list -> t

(** [local ~network ~prefix] is a table with one connected route — the
    common single-LAN configuration. *)
val local : network:Ipv4_addr.t -> prefix:int -> t

(** [next_hop t dst] is the address to hand to the lower layer: the
    matched route's gateway, or [dst] for a connected route; [None] when no
    route matches. *)
val next_hop : t -> Ipv4_addr.t -> Ipv4_addr.t option
