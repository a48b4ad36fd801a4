(** Power-of-two bucketed histograms.

    A meter created with a probe name ([Fox_proto.Meter.create ~probe])
    feeds three of these: bytes per send, bytes per delivery, and the
    send span's latency in µs.  Buckets are powers of two, so
    [add] is O(word size), allocation-free, and deterministic — safe to
    leave armed on the fast path while the bus is enabled. *)

type t

(** [create ?name ()] is an empty histogram. *)
val create : ?name:string -> unit -> t

(** [add t v] records one sample ([v <= 0] shares the zero bucket). *)
val add : t -> int -> unit

val count : t -> int
val sum : t -> int
val min_value : t -> int
val max_value : t -> int
val mean : t -> float

(** [buckets t] lists [(bucket_upper_bound, samples)] for the non-empty
    buckets, smallest bound first. *)
val buckets : t -> (int * int) list

(** [percentile t p] is the smallest bucket upper bound covering at least
    fraction [p] of the samples (coarse: factor-of-two resolution). *)
val percentile : t -> float -> int

val clear : t -> unit

(** One-line summary: count, mean, min, p50, p99, max. *)
val to_string : t -> string
