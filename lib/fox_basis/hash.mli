(** Hashing of integer keys for the demultiplexing tables.

    [Hashtbl.hash] is a C call that walks its argument generically; the
    demux keys (addresses, ports, protocol numbers) are plain ints, so an
    inline multiply-and-shift mix does the job.  The identity would not:
    [Hashtbl.Make] and the tombstone table pick a bucket from the low
    bits, and host addresses in one subnet differ only there. *)

(** [int k] is a non-negative hash of [k] whose low bits depend on every
    bit of [k]. *)
val int : int -> int

(** Tables keyed by plain ints (ports, protocol numbers, ethertypes,
    addresses) with [Int.equal] and {!int}: no polymorphic compare or
    generic hash on a lookup. *)
module Ints : Hashtbl.S with type key = int
