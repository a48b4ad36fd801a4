(** Internet (one's-complement) checksum.

    Two implementations of the same function are provided:

    - [`Basic] — the straightforward algorithm the paper attributes to the
      x-kernel: load 16 bits at a time and fold the carry on every step.
    - [`Optimized] — the paper's Figure 10 at the machine's word size
      ("using the techniques described by Braden, Borman, and Partridge",
      RFC 1071): load 8 bytes at a time, add both 32-bit halves into the
      native int so carries pile up in its high bits (no renormalisation
      below 4 GB), sum in native byte order and swap once at the end.

    A checksum over scattered ranges (pseudo-header, header, payload) is
    built by threading an accumulator through [add_*] calls; [finish] folds
    it to 16 bits.  Odd-length ranges are handled: the accumulator tracks
    byte parity so a range may start at an odd byte position in the
    conceptual 16-bit stream. *)

type alg = [ `Basic | `Optimized ]

type acc

(** The empty accumulator (even parity, zero sum). *)
val zero : acc

(** No accumulator: what a codec is given when checksums are off.  Every
    real accumulator is non-negative and this one is negative, so "no
    checksum" is carried as an immediate value, not an option. *)
val none : acc

(** [is_none acc] is true iff [acc] is {!none}. *)
val is_none : acc -> bool

(** [fold16 s] folds an un-normalised one's-complement sum down to 16 bits
    by repeatedly adding the carry back in.  Exposed so fused copy/checksum
    code and incremental-update arithmetic can share the exact fold the
    accumulator uses. *)
val fold16 : int -> int

(** [finish_wide native b off len init] ends a word-wide pass: [native] is
    the unfolded sum of 32-bit halves of 8-byte native-order loads; it is
    folded, swapped to big-endian once, and continued with [init] and the
    [len] (< 8) tail bytes at [b.[off]].  Returns the folded 16-bit sum.
    Shared by [`Optimized] and {!Copy.blit_checksum}, which keep the
    8-byte loop itself local so it is never a cross-module call. *)
val finish_wide : int -> Bytes.t -> int -> int -> int -> int

(** Total bytes pushed through [add_bytes] since program start — a
    data-touching meter for the fast-path ablation (how many payload bytes
    the standalone checksum traverses). *)
val bytes_summed : int ref

(** [add_bytes ~alg acc b off len] accumulates the range [b.[off..off+len-1]]
    interpreted as big-endian 16-bit words continuing the stream in [acc]. *)
val add_bytes : ?alg:alg -> acc -> Bytes.t -> int -> int -> acc

(** [add_string ~alg acc s] accumulates a whole string. *)
val add_string : ?alg:alg -> acc -> string -> acc

(** [add_u16 acc v] accumulates one 16-bit word.  The accumulator must be at
    even parity (raises [Invalid_argument] otherwise). *)
val add_u16 : acc -> int -> acc

(** [finish acc] folds the accumulator to the 16-bit one's-complement sum
    (not complemented). *)
val finish : acc -> int

(** [checksum ?alg b off len] is the Internet checksum of the range: the
    complement of the folded one's-complement sum, as transmitted in
    protocol headers. *)
val checksum : ?alg:alg -> Bytes.t -> int -> int -> int

(** [checksum_of acc] is the complement of [finish acc], i.e. the header
    field value for a fully accumulated message. *)
val checksum_of : acc -> int

(** [valid acc] is true iff a message accumulated {e including} its checksum
    field sums to the all-ones pattern, i.e. verifies correctly. *)
val valid : acc -> bool

(** [pseudo_ipv4 ~src ~dst ~proto ~len] is an accumulator pre-loaded with
    the TCP/UDP pseudo-header: source and destination 32-bit addresses, the
    protocol number and the transport-layer length. *)
val pseudo_ipv4 : src:int -> dst:int -> proto:int -> len:int -> acc

(** Slow, obviously-correct per-byte implementation, used as the oracle in
    property tests. *)
val reference : Bytes.t -> int -> int -> int
