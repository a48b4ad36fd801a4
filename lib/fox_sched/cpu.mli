(** Virtual-CPU cost model.

    The paper's Table 1 and Table 2 were measured on a DECstation 5000/125
    whose per-component costs (copy and checksum µs/KB, scheduler switch
    time, counter overhead…) the paper reports.  To reproduce the shape of
    those results on modern hardware we charge each protocol component's
    cost in {e virtual} time: a host's CPU is a serial resource, so a charge
    occupies the CPU from when it is free and suspends the charging thread
    until the work "completes".  Every charge is also recorded in a
    {!Fox_basis.Counters} bucket, which is exactly the paper's profiling
    mechanism and yields Table 2. *)

type t

(** [create ?scale counters] is a fresh CPU charging into [counters].
    [scale] multiplies every cost (default 1.0); it models a faster or
    slower machine. *)
val create : ?scale:float -> Fox_basis.Counters.t -> t

(** [charge cpu name cost_us] blocks the calling thread while the CPU
    performs [cost_us] (scaled) microseconds of [name]-work, serialised
    after any work already queued on this CPU. *)
val charge : t -> string -> int -> unit

(** [charge_async cpu name cost_us] accounts for the work and occupies the
    CPU but does not block the caller (used for costs that overlap with the
    caller, e.g. device DMA). *)
val charge_async : t -> string -> int -> unit
