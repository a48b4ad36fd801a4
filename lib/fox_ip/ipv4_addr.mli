(** IPv4 addresses. *)

type t

(** [of_string "10.0.0.1"] parses dotted-quad notation; raises
    [Invalid_argument] on malformed input. *)
val of_string : string -> t

val to_string : t -> string

(** [of_int n] uses the low 32 bits of [n]; [to_int] is the inverse. *)
val of_int : int -> t

val to_int : t -> int

(** [is_broadcast a] is true for 255.255.255.255, the limited broadcast
    address. *)
val is_broadcast : t -> bool

(** [in_subnet a ~network ~prefix] tests membership of a CIDR block. *)
val in_subnet : t -> network:t -> prefix:int -> bool

(** [write a b off] stores the 4 bytes big-endian; [read] loads them. *)
val write : t -> Bytes.t -> int -> unit

val read : Bytes.t -> int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
