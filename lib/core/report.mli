(** Output listings in the style of the thesis (Figures 3-10 and 3-11).

    The timing summary lists every signal's value over the cycle; the
    error listing shows each violation with the values seen by the
    checker on its data and clock inputs. *)

val pp_summary : Format.formatter -> Eval.t -> unit
(** Figure 3-10: one line per net, sorted by name, with the evaluator's
    reference-corner waveform rendered as [VALUE time] pairs (times in
    ns). *)

val pp_signal : Format.formatter -> Eval.t -> string -> unit
(** The summary line of one signal, by base name. *)

val pp_violations : Format.formatter -> Check.t list -> unit
(** Figure 3-11: the setup, hold and minimum-pulse-width error listing. *)

val pp_violation_with_values : Format.formatter -> Eval.t -> Check.t -> unit
(** One violation followed by the values seen on its data and clock
    inputs, as the thesis prints them. *)

val pp_cross_reference : Format.formatter -> Netlist.t -> unit
(** The special cross-reference listing of signals with neither a driver
    nor an assertion, which the verifier treats as always stable
    (§2.5). *)
