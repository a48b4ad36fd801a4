(** Segmentation of outgoing data.

    This is the paper's [Send] module: it "segments outgoing data and
    places corresponding Send_Segment actions onto the to_do queue".  User
    data accumulates on the TCB's [queued] deque (a reference to the
    caller's packet — no copy); [segmentize] cuts it into segments bounded
    by the send MSS and the usable window, applying sender-side
    silly-window avoidance (Nagle, switchable) and piggybacking a pending
    FIN on the last segment. *)

(** [enqueue params tcb packet ~now] appends user data and segmentises. *)
val enqueue : Tcb.params -> Tcb.tcp_tcb -> Fox_basis.Packet.t -> now:int -> unit

(** [enqueue_fin params tcb ~now] records that the user closed the send
    side; the FIN goes out after all queued data. *)
val enqueue_fin : Tcb.params -> Tcb.tcp_tcb -> now:int -> unit

(** [segmentize params tcb ~now] emits as many segments as the window and
    the queue allow.  Called after every event that could open the window
    (ACKs, window updates) as well as after [enqueue]. *)
val segmentize : Tcb.params -> Tcb.tcp_tcb -> now:int -> unit

(** [probe params tcb ~now] sends a one-byte zero-window probe if the
    window is still closed and data is waiting (invoked from the
    window-probe timer). *)
val probe : Tcb.params -> Tcb.tcp_tcb -> now:int -> unit
