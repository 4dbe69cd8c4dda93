(** Signal assertions (§2.5): clock assertions and stable assertions
    given at the end of signal names, preceded by a period.

    Grammar (from the thesis):
    {v
    <precision clock>     ::= <signal name> .P <assert spec>
    <non-precision clock> ::= <signal name> .C <assert spec>
    <stable assertion>    ::= <signal name> .S <value spec> <polarity>
    <assert spec>  ::= <skew spec>? <value spec> <polarity>?
    <value spec>   ::= <range> | <range> , <value spec>
    <range>        ::= <time> | <time> - <time> | <time> + <time>
    <skew spec>    ::= ( <minus skew> , <plus skew> )
    <polarity>     ::= L
    v}

    Times in a range are designer clock units; in the [<time> + <time>]
    form the second number is a width in {e nanoseconds} (it does not
    scale with the cycle time).  Skews are nanoseconds.  A single time
    denotes an interval of one clock unit.  Ranges are taken modulo the
    cycle time (§3.2), so [.S4-9] on an 8-unit cycle means stable from 4
    to 1 of the next cycle. *)

type kind =
  | Precision_clock      (** [.P] — clock de-skewed by hand adjustment *)
  | Nonprecision_clock   (** [.C] — clock with the larger default skew *)
  | Stable               (** [.S] — control/data signal stability window *)

type range =
  | Unit_at of float          (** a single clock-unit-wide interval *)
  | Between of float * float  (** \[start, stop) in clock units *)
  | For_ns of float * float   (** start in clock units, width in ns *)

type t = {
  kind : kind;
  skew_ns : (float * float) option;
      (** explicit [(minus, plus)] skew in ns; [None] takes the default *)
  ranges : range list;
  low_active : bool;  (** [L]: the listed ranges are the {e low} times *)
}

val parse : string -> (t, string) result
(** Parse the text after the period, e.g. ["P2-3 L"], ["C 4-6 L"],
    ["S0-6"], ["C2,5"], ["C2+10.0"], ["P(-0.5,0.5)2-3"]. *)

val to_string : t -> string
(** Canonical rendering, suitable for interface-consistency comparison of
    modular verification (§2.5.2). *)

val equal : t -> t -> bool

val is_clock : t -> bool
(** A precision or non-precision clock assertion ([.P], [.C]). *)

type defaults = {
  precision_skew : Timebase.ps * Timebase.ps;     (** (early <= 0, late >= 0) *)
  nonprecision_skew : Timebase.ps * Timebase.ps;
}

val s1_defaults : defaults
(** The S-1 Mark IIA design rules (§3.3): precision clocks ±1.0 ns,
    non-precision clocks ±5.0 ns. *)

val intervals : Timebase.t -> t -> (Timebase.ps * Timebase.ps) list
(** The asserted ranges as absolute [(start, stop)] picosecond pairs
    (half-open, not yet wrapped).
    @raise Invalid_argument when a time in clock units lies beyond
    {!Timebase.max_ns} under this timebase (see {!check}). *)

val check : Timebase.t -> t -> (unit, string) result
(** Whether every time of the assertion lies within {!Timebase.max_ns}
    under this timebase.  A clock-unit count is only bounded once the
    clock unit is known, so {!parse} accepts any; {!Netlist.signal},
    {!Netlist.set_assertion} and the service's edit check call this.
    The error quotes the assertion. *)

val to_waveform : defaults -> Timebase.t -> t -> Waveform.t
(** The waveform asserted for a signal over one clock period: clocks are
    [V1] during their ranges and [V0] outside (swapped for [L]), with the
    explicit or default skew; stable assertions are [Stable] during their
    ranges and [Change] outside, zero skew. *)

val pp : Format.formatter -> t -> unit
