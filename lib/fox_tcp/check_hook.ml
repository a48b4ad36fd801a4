(** An optional observation hook on the quasi-synchronous executor.

    The paper's central testing claim is that, given the order of the
    [to_do] queue, TCP is completely deterministic — so a checker can
    "compare the TCB produced by an operation with the TCB the standard
    requires" after every single step.  This module is the seam that makes
    that cheap: {!Engine}'s drain loop consults {!hook} once per drained
    action and, when a function is installed, hands it a snapshot of the
    step just executed.  With no hook installed the cost is one reference
    read and a branch; nothing is allocated. *)

(** Everything a checker needs about one executed action. *)
type info = {
  tcb : Tcb.tcp_tcb;  (** the connection's TCB, after the action ran *)
  before : Tcb.tcp_state;  (** RFC 793 state before the action *)
  after : Tcb.tcp_state;  (** RFC 793 state after the action *)
  action : Tcb.tcp_action;  (** the action that was executed *)
  pending : Tcb.tcp_action list;  (** to_do contents after the action *)
  armed : Tcb.timer_kind list;  (** timers actually running (host side) *)
  now : int;  (** virtual time, microseconds *)
  dead : bool;  (** the connection was deleted (TCB is history) *)
}

let hook : (info -> unit) option ref = ref None

(** [install check] runs [check] after every executed action, of every
    connection, until {!uninstall}. *)
let install f = hook := Some f

let uninstall () = hook := None
