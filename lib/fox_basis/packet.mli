(** Packets with headroom.

    A packet is a window onto a byte buffer.  The send path of the stack
    copies user data exactly once: the application's bytes are placed into a
    buffer allocated with enough {e headroom} that each layer can prepend its
    header in place with [push_header] instead of copying the payload.  The
    receive path strips headers with [pull_header], again without copying.
    This is the single-copy discipline the paper's Section 5 describes. *)

type t

(** [create ~headroom ~tailroom len] is a zero-filled packet of [len]
    payload bytes preceded by [headroom] and followed by [tailroom] spare
    bytes for headers and trailers.  The buffer is a recycled one of
    exactly that total size when one is free (see {!release}). *)
val create : ?headroom:int -> ?tailroom:int -> int -> t

(** [of_string ?headroom ?tailroom s] is a packet whose payload is a copy
    of [s]. *)
val of_string : ?headroom:int -> ?tailroom:int -> string -> t

(** [length p] is the current length of the visible window. *)
val length : t -> int

(** [headroom p] is the number of spare bytes before the window. *)
val headroom : t -> int

(** [tailroom p] is the number of spare bytes after the window. *)
val tailroom : t -> int

(** [push_header p n] grows the window by [n] bytes at the front, exposing
    space for a header.  If the headroom is insufficient the packet is
    reallocated (and {!reallocations} is incremented), preserving contents. *)
val push_header : t -> int -> unit

(** [pull_header p n] shrinks the window by [n] bytes at the front
    (consuming a decoded header).  Raises [Invalid_argument] if [n] exceeds
    the window. *)
val pull_header : t -> int -> unit

(** [push_trailer p n] grows the window by [n] bytes at the back, exposing
    space for a trailer (e.g. an Ethernet FCS); reallocates like
    {!push_header} when the tailroom is insufficient. *)
val push_trailer : t -> int -> unit

(** [pull_trailer p n] shrinks the window by [n] bytes at the back. *)
val pull_trailer : t -> int -> unit

(** [trim p len] truncates the window to its first [len] bytes.  Raises
    [Invalid_argument] if [len] exceeds the window. *)
val trim : t -> int -> unit

(** [sub p off len] is a fresh packet copying [len] bytes of [p] starting
    at window offset [off]. *)
val sub : ?headroom:int -> t -> int -> int -> t

(** [copy p] is [sub p 0 (length p)] with the same headroom. *)
val copy : t -> t

(** {1 Checksum offload}

    The datapath treats the link-layer copy as a NIC: the transport
    encoder may {e defer} its checksum ([request_tx_csum]) and the copy
    that models the wire crossing computes it in the same pass that moves
    the bytes ([copy_fused]), patching the field in the copy — and, on the
    receive side, remembering the folded sum of the copied bytes so the
    transport decoder can validate without re-traversing the payload
    ([cached_window_sum]).  Each payload byte is copied and summed once. *)

(** [copy_fused p] is [copy p] that additionally settles offload state: a
    deferred TX checksum is computed from the fused copy-and-sum and
    patched into the copy (the source keeps its defer, so a later
    retransmission re-encodes and re-defers), and the folded sum of the
    copied range is recorded on the copy for the receiver. *)
val copy_fused : t -> t

(** [request_tx_csum p ~at ~init] records that the 16-bit field at window
    offset [at] (currently zero) should be patched with the complement of
    [init] (the folded pseudo-header sum) plus the sum of the window from
    its current start.  Survives later [push_header]s — offsets are kept
    absolute. *)
val request_tx_csum : t -> at:int -> init:int -> unit

(** [finalize_tx_csum p] computes and writes a deferred checksum in place.
    Required before any path that bypasses the link copy or freezes the
    bytes earlier: self-delivery, fragmentation, FCS computation, TAP
    writes.  No-op when nothing is deferred. *)
val finalize_tx_csum : t -> unit

(** [cached_window_sum p] is the folded one's-complement sum of the current
    window if it can be derived from a recorded RX memo by subtracting the
    uncovered prefix/suffix (which are re-summed — they are the short
    headers, not the payload); [-1] when no memo covers the window or
    parity does not allow subtraction (a folded sum is never negative).
    Any in-window mutation invalidates the memo. *)
val cached_window_sum : t -> int

(** {1 Ownership, recycling and the leak census}

    Packets carry a reference count (1 at creation).  A packet is live
    from creation until [release] takes its count to zero; a run that
    brackets itself with {!live_packets} counts every buffer some drop
    path forgot to give back.

    Releasing the last reference also {e recycles} the buffer: it is
    zeroed and kept on a per-domain free list for the next {!create} of
    exactly its length (a bounded number per length; the rest go to the
    GC).  A recycled buffer is byte-identical to a fresh one, so the
    reuse is invisible — provided every holder keeps the ownership
    contract:

    - whoever holds a reference owns it and must release it exactly
      once, or hand it on (a protocol's [send] consumes its argument's
      reference; a data upcall hands the receiver one);
    - after its last release a packet must not be read, written,
      retained, sent or released-and-counted again: its buffer already
      belongs to another packet, or sits zeroed on the free list (a
      stale reader sees zeros, which the byte-exact checks catch).
      Its length, headroom and tailroom may still be read: they live
      in the packet, not in the buffer. *)

(** [retain p] adds a reference (e.g. a retransmission queue keeping the
    segment alive alongside the in-flight send action). *)
val retain : t -> unit

(** [release p] drops a reference; the last one recycles the buffer.
    Releasing a packet whose count is already zero is a no-op. *)
val release : t -> unit

(** [discard p] drops every remaining reference at once, recycling the
    buffer if any was held — for a throwaway owner that cannot tell how
    many references its private copy ended up with (the differential
    receive check's shadow TCB). *)
val discard : t -> unit

(** A zero-length packet outside the census, for filling the unused
    cells of packet containers.  Its count is zero, so releasing it is a
    no-op; it must never be sent, retained or handed out. *)
val placeholder : t

(** Packets currently alive: created by any constructor and not yet
    released down to a zero reference count.  The difference across a
    run is the number of leaked buffers — the overload soak asserts it
    is zero. *)
val live_packets : unit -> int

(** Accessors, indexed from the start of the current window. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit

(** [blit_from_string s soff p poff len] copies into the packet window. *)
val blit_from_string : string -> int -> t -> int -> int -> unit

(** [blit_from_bytes b soff p poff len] copies into the packet window. *)
val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit

(** [blit p poff dst doff len] copies out of the packet window. *)
val blit : t -> int -> Bytes.t -> int -> int -> unit

(** [to_string p] is a copy of the window as a string. *)
val to_string : t -> string

(** Expose the underlying buffer for checksum/copy inner loops:
    [buffer p] with [offset p] is the start of the window.  Mutating
    functions must stay within [length p]. *)

val buffer : t -> Bytes.t
val offset : t -> int

(** [fill p v] sets every window byte to [v land 0xff]. *)
val fill : t -> int -> unit

(** A snapshot of a packet's window, for the retransmission discipline:
    TCP pushes headers into a queued segment's buffer, hands it to the
    wire (which copies it synchronously), then {!restore}s the window so
    the same packet can be retransmitted later.  Restoring is correct even
    if a push reallocated the buffer, because the saved buffer is never
    mutated inside its saved window. *)
type saved

(** [save p] snapshots the current window. *)
val save : t -> saved

(** [restore p s] rewinds [p] to the snapshot. *)
val restore : t -> saved -> unit

(** Number of packets reallocated because [push_header] ran out of
    headroom — a measure of mis-sized allocations on the fast path. *)
val reallocations : unit -> int

(** Total bytes moved by plain packet copies ([sub]/[copy] and
    blits) since program start — the copy half of the data-touching meter
    for the fast-path ablation ({!Copy.bytes_fused} counts [copy_fused]). *)
val bytes_copied : int ref

val pp : Format.formatter -> t -> unit
