(** Data-copy routines.

    The paper reports that its safe SML copy loop ran at ~300 µs/KB versus
    61 µs/KB for the C library [bcopy], and that data-touching operations
    dominate TCP cost.  We keep the whole family so the benchmark harness
    can reproduce that comparison:

    - [byte_copy] — one bounds-checked byte per iteration (the paper's
      unoptimised safe copy);
    - [unrolled_copy] — the same loop unrolled four ways;
    - [word_copy] — eight bytes per iteration through 64-bit accesses (what
      the paper hoped improved compilation would reach);
    - [blit] — the runtime's [memmove], standing in for [bcopy].

    All four implement the same function.  Source and destination ranges
    must not overlap (they never do in the stack: copies always cross
    buffer boundaries). *)

type impl = Byte | Unrolled | Word | Blit

(** [copy impl src soff dst doff len] copies [len] bytes. *)
val copy : impl -> Bytes.t -> int -> Bytes.t -> int -> int -> unit

val blit : Bytes.t -> int -> Bytes.t -> int -> int -> unit

(** [blit_checksum src soff dst doff len ~init] copies [len] bytes and, in
    the same pass, accumulates their one's-complement sum (big-endian
    16-bit words at even parity, an odd final byte padded with a zero low
    half) continuing the partial sum [init].  Returns the folded 16-bit
    result, bit-identical to [Checksum]'s.  This is the paper's "touch the
    data once" fusion: a segment that must be both copied across a buffer
    boundary and checksummed pays one traversal instead of two.  The loop
    moves 8 bytes per load and store and sums them as the [`Optimized]
    checksum does (native order, one byte swap at the end).  Ranges must
    not overlap. *)
val blit_checksum :
  Bytes.t -> int -> Bytes.t -> int -> int -> init:int -> int

(** Total bytes pushed through [blit_checksum] since program start (the
    fused-traversal meter for the fast-path ablation). *)
val bytes_fused : int ref

(** All implementations, with display names, for benches and tests. *)
val all : (string * impl) list
