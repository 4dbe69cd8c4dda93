(** Causal violation traces.

    A bounded ring buffer records the evaluator's recent events (one
    entry per output-change event: sequence number, driving instance,
    driven net).  Recording is O(1) per event and allocation-free after
    creation; with tracing off the evaluator's hook is [None] and the
    hot path is untouched.

    After a run, {!explain} reconstructs — for one violation — the chain
    of events that produced the failing edge: starting from the last
    event on the violated signal, it repeatedly steps to the most recent
    earlier event on one of the driving instance's inputs.  Sequence
    numbers strictly decrease along the chain, so it always terminates,
    cycles included. *)

type event = {
  e_seq : int;  (** global event sequence number, starting at 0 *)
  e_inst : int;  (** instance whose evaluation produced the event *)
  e_net : int;  (** output net that changed *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val record : t -> inst_id:int -> net_id:int -> unit

val hook : t -> inst_id:int -> net_id:int -> unit
(** [record] in the shape expected by {!Scald_core.Eval.set_event_hook}
    and {!Scald_core.Verifier.probe}. *)

val recorded : t -> int
(** Total events ever recorded (may exceed the capacity). *)

val events : t -> event list
(** The retained window, oldest first; at most [capacity] entries. *)

type step = {
  st_seq : int;
  st_inst : string;  (** name of the driving instance *)
  st_prim : string;  (** its primitive mnemonic *)
  st_net : string;  (** the driven signal *)
  st_value : string;  (** the signal's final waveform, rendered *)
  st_at_ns : float option;
      (** start of the signal's first transition window, when it has
          one — the circuit time of the edge the event introduced *)
}

val explain :
  ?depth:int -> t -> Scald_core.Eval.t -> Scald_core.Check.t -> step list
(** Causal chain for the violation's signal, root cause first, at most
    [depth] (default 8) steps.  Names come from the evaluator's netlist
    and each step's [st_value] from the evaluator's reference-corner
    waveform, so pass the evaluator whose events the ring recorded
    (a report's [r_eval]).  Empty when the signal has no recorded
    events — e.g. its value came from an assertion, or the buffer was
    too small to retain them. *)

val explain_signal :
  ?depth:int -> ?before:int -> t -> Scald_core.Eval.t -> string -> step list
(** Chain for an arbitrary signal name; [before] bounds the sequence
    numbers considered (exclusive). *)

val pp_explanation :
  t -> Scald_core.Eval.t -> Format.formatter -> Scald_core.Check.t -> unit
(** Render the violation line followed by the causal chains of its
    signal and (when named) its clock, with a graceful note for signals
    without recorded events. *)
