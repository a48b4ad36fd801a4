(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic element of the simulation — packet loss, duplication,
    reordering jitter, bit corruption, initial sequence numbers in tests —
    draws from a seeded generator so that runs are exactly reproducible,
    which is what makes the paper's "completely deterministic and testable"
    claim hold for adverse-network tests too. *)

type t

(** [create seed] is a fresh generator. *)
val create : int -> t

(** [bits64 t] is the top 62 bits of the next raw 64-bit output, as a
    non-negative int. *)
val bits64 : t -> int

(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** [bytes t n] is [n] random bytes. *)
val bytes : t -> int -> Bytes.t
