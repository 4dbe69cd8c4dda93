(** Causal violation traces (§2.9): why each checker saw what it saw.

    A violation is explained from the report alone, on the waveforms of
    the first case that raised it (the first [r_cases] entry whose
    verdicts hold it), at the reference corner.  {!explain} runs those
    cases, in ascending case order, on one fresh evaluator over the
    report's netlist and schedule, leaving [r_eval] untouched; a
    warm-started case settles where a fresh one does, so the result does
    not depend on [-j].

    The walk starts at the checked signal, as the checker sees it, at
    the instant of its transition windows nearest the listing's [AT]
    time.  From a net changing at instant [t] it steps to an input of
    the net's driver whose transition window, as the driver sees it
    ({!Scald_core.Eval.input_waveform}), meets [t] minus the hop's delay
    range: the driver's scaled element delay
    ({!Scald_core.Eval.element_delay}; a 2 MUX select adds its SELDELAY)
    plus the net's wire delay into the instance the walk came from
    ({!Scald_core.Eval.wire_delay}).  The inputs a step may take:
    - a gate (CHG included) or a BUF: any input;
    - a 2 MUX: its select, and each data input the select's value at
      that instant can pass ([0] passes input 0, [1] input 1, anything
      else both);
    - a REG: its clock, within its rising windows (the only edges it
      samples on), SET and RESET, never its data;
    - a LATCH: its enable, SET and RESET, and its data while the
      enable may be high (anything but [0]).

    The latest instant wins and the lowest input index breaks ties.  The
    walk stops at an undriven net, whose waveform is its assertion's
    under the case, or when the next net is already on the chain
    (feedback), with no depth limit. *)

open Scald_core

type origin =
  | Asserted  (** the root is an undriven net holding its assertion *)
  | Case_assigned  (** ... one the case assigns a value *)
  | Feedback of int  (** the root's driver steps back to this net, already on the chain *)
  | Unexplained  (** no input of the root's driver changes within the hop's delay range *)
  | Settled  (** the signal has no transition window: the chain has no steps *)

type step = {
  st_net : int;
  st_at : Timebase.ps;
      (** the instant, in [\[0, period)], inside a transition window of
          the net as [st_view] sees it *)
  st_view : (int * int) option;
      (** the instance id and input index whose view the instant is in:
          the next step's driver, or the checker for the last step;
          [None] for a net checked against its own assertion *)
}

type chain = {
  c_net : int;  (** the explained signal *)
  c_value : Waveform.t;  (** its waveform in the case, at the reference corner *)
  c_origin : origin;
  c_steps : step list;  (** root first; the last step is [c_net] *)
}

type explanation = {
  x_violation : Check.t;
  x_case : Case_analysis.case;  (** the first case that raised it *)
  x_corner : Corner.t;  (** the reference corner, whose verdicts the listing prints *)
  x_signal : chain option;  (** [None] when [v_signal] names no net *)
  x_clock : chain option;  (** when [v_clock] names a net other than the signal *)
}

val explain : Verifier.report -> explanation list
(** One explanation per violation of [r_violations], in order. *)

val pp_explanation : Netlist.t -> Format.formatter -> explanation -> unit
(** One [EXPLAIN] block: the violation line, its case and corner, and
    the chains of its signal and clock, root cause first, each followed
    by the signal's waveform.  It names no case number, so a violation's
    block reads the same whatever cases surround its own. *)

val pp_listing : Format.formatter -> Verifier.report -> unit
(** The [--explain] listing: a [CAUSAL VIOLATION TRACES] heading and the
    block of every violation. *)
