(** Timing-constraint checks and their violation reports (§2.9, Figures
    2-3, 2-4, 3-11).

    All checkers work on the waveforms computed by the evaluator.  Times
    in reports are picoseconds from the start of the cycle. *)

type kind =
  | Setup_violation      (** data changing inside the set-up interval *)
  | Hold_violation       (** data changing inside the hold interval *)
  | Stable_high_violation
      (** data changing while the clock is true
          (SETUP RISE HOLD FALL CHK) *)
  | Min_high_width       (** high pulse narrower than its minimum *)
  | Min_low_width        (** low pulse narrower than its minimum *)
  | Hazard
      (** a control input of a gated clock changing while the clock is
          asserted ([&A]/[&H] directives, §2.6) *)
  | Stable_assertion_violation
      (** a generated signal changing inside its own [.S] window *)
  | Undefined_clock
      (** a checker clock input that never exhibits the required edge *)
  | Reflection_hazard
      (** a signal run flagged by the physical-design subsystem for
          voltage-wave reflections feeding an edge-sensitive input —
          possible extra clock transitions (§1.3.2) *)
  | No_convergence       (** the relaxation did not reach a fixpoint *)

type t = {
  v_kind : kind;
  v_inst : string;       (** instance reporting the violation *)
  v_signal : string;     (** signal being checked *)
  v_clock : string option;  (** clock input, if any *)
  v_required : Timebase.ps;  (** the constraint (set-up time, width...) *)
  v_actual : Timebase.ps option;
      (** the margin or width actually achieved, when measurable; the
          miss amount is [v_required - v_actual] *)
  v_at : Timebase.ps option;  (** cycle time at which it occurred *)
  v_detail : string;
}

val pp : Format.formatter -> t -> unit
(** One-line rendering in the style of the Figure 3-11 error listing. *)

val kind_name : kind -> string

val check_setup_hold :
  inst:string ->
  signal:string ->
  clock:string ->
  setup:Timebase.ps ->
  hold:Timebase.ps ->
  data:Waveform.t ->
  ck:Waveform.t ->
  t list
(** SETUP HOLD CHK: for every window in which the clock may rise, the
    data input must be stable from [setup] before the earliest rise
    until [hold] after the latest rise. *)

val pair_falling :
  Timebase.ps -> Waveform.window -> Waveform.window list -> Waveform.window option
(** [pair_falling period r fallings] is the falling window a SETUP RISE
    HOLD FALL check pairs with the rising window [r]: the first whose
    start follows [r]'s start, modulo [period].  [None] when [fallings]
    is empty. *)

val check_setup_rise_hold_fall :
  inst:string ->
  signal:string ->
  clock:string ->
  setup:Timebase.ps ->
  hold:Timebase.ps ->
  data:Waveform.t ->
  ck:Waveform.t ->
  t list
(** SETUP RISE HOLD FALL CHK: set-up before the rising edge, stability
    for the whole interval the clock is true, hold after the falling
    edge (used for memory write constraints, §3.1). *)

val check_min_pulse_width :
  inst:string ->
  signal:string ->
  high:Timebase.ps ->
  low:Timebase.ps ->
  Waveform.t ->
  t list
(** MIN PULSE WIDTH: guaranteed widths are measured on the nominal value
    list, so that skew that merely delays a signal does not narrow its
    pulses (§2.8); skew already folded into [Rise]/[Fall] values does. *)

val check_stable_while :
  inst:string ->
  signal:string ->
  clock:string ->
  gate_wf:Waveform.t ->
  Waveform.t ->
  t list
(** Hazard check for the [&A]/[&H] directives: the signal must be stable
    whenever [gate_wf] (the gating clock, after complementation) is
    possibly asserted. *)

val check_stable_assertion :
  signal:string ->
  tb:Timebase.t ->
  Assertion.t ->
  Waveform.t ->
  t list
(** A generated signal carrying a [.S] assertion must actually be stable
    over the asserted ranges (§2.5.2). *)
