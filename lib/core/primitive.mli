(** The primitive functions built into the Timing Verifier (§2.4, §3.1).

    Circuits are described in terms of gates, registers, latches,
    set-up/hold checkers and minimum-pulse-width checkers; all more
    complex components (register files, multiplexer chips, ALUs) are
    defined as macros over these primitives.  Each primitive represents
    an arbitrarily wide data path — the width lives on the nets, and one
    primitive instance stands for the whole vector (§3.3.2). *)

type gate_fn =
  | And
  | Or
  | Xor
  | Chg  (** the CHANGE function: models complex combinational logic
             (adders, parity trees) whose Boolean function is irrelevant
             to timing (§2.4.2) *)

type t =
  | Gate of { fn : gate_fn; n_inputs : int; invert : bool; delay : Delay.t }
      (** [n_inputs >= 1]; [invert] gives NAND/NOR/XNOR *)
  | Buf of { invert : bool; delay : Delay.t }
      (** buffer or inverter; with [invert = false] also serves as an
          explicit delay element (e.g. the [CORR] fictitious delay of
          §4.2.3) *)
  | Mux2 of { delay : Delay.t; select_extra : Delay.t }
      (** 2-input multiplexer: inputs [A; B; S]; output follows [A] when
          [S = 0] and [B] when [S = 1].  The select input sees
          [select_extra] additional delay (Figure 3-6). *)
  | Reg of { delay : Delay.t; has_set_reset : bool }
      (** edge-triggered register: inputs [DATA; CLOCK] or
          [DATA; CLOCK; SET; RESET] (Figure 2-1) *)
  | Latch of { delay : Delay.t; has_set_reset : bool }
      (** transparent latch: inputs [DATA; ENABLE] or
          [DATA; ENABLE; SET; RESET]; output follows [DATA] while
          [ENABLE] is high (Figure 2-2) *)
  | Setup_hold_check of { setup : Timebase.ps; hold : Timebase.ps }
      (** inputs [I; CK]: [I] must be stable from [setup] before each
          rising edge of [CK] until [hold] after it (Figure 2-3) *)
  | Setup_rise_hold_fall_check of { setup : Timebase.ps; hold : Timebase.ps }
      (** inputs [I; CK]: set-up before the rising edge, stability while
          [CK] is true, hold after the falling edge — used for memory
          write-enable constraints (Figure 2-3) *)
  | Min_pulse_width of { high : Timebase.ps; low : Timebase.ps }
      (** input [I]: every high pulse at least [high] wide, every low
          pulse at least [low] wide; a zero bound disables that direction
          (Figure 2-4) *)
  | Const of Tvalue.t
      (** a source holding one value for the whole cycle — e.g. a
          grounded SET/RESET input, which must be a true [0] rather than
          merely "stable" for the register model to ignore it *)

val n_inputs : t -> int
val has_output : t -> bool
val is_checker : t -> bool

val enabling_value : gate_fn -> Tvalue.t
(** The input value that lets a gate pass its other inputs through: what
    an [&A]/[&H] directive assumes of the control inputs (§2.6). *)

val gate_fold : gate_fn -> Tvalue.t list -> Tvalue.t
(** The gate function over its input values at one instant, before the
    output inversion. *)

val input_label : t -> int -> string
(** Diagnostic name of input port [i], e.g. ["DATA"], ["CK"]. *)

val mnemonic : t -> string
(** Short type name used in listings and statistics, e.g. ["2 OR"],
    ["REG RS"], ["SETUP HOLD CHK"]. *)

val pp : Format.formatter -> t -> unit
