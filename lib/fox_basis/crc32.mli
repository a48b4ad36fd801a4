(** IEEE 802.3 CRC-32 (the Ethernet frame check sequence).

    The paper's non-standard stack runs TCP directly over Ethernet with TCP
    checksums off, relying on the Ethernet CRC for integrity — and a
    reviewer's footnote warns this is only sound when the CRC is known to
    be implemented correctly.  Our simulated Ethernet implements it
    correctly (reflected polynomial 0xEDB88320, initial value and final
    XOR of 0xFFFFFFFF). *)

(** [digest b off len] is the CRC-32 of the range, as an unsigned int. *)
val digest : Bytes.t -> int -> int -> int

(** Streaming interface: [update crc b off len] continues a digest started
    from [init]. [finish] applies the final complement. *)
val init : int
val update : int -> Bytes.t -> int -> int -> int
val finish : int -> int
