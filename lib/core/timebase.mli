(** Time representation for the Timing Verifier.

    The thesis uses two sets of units (§2.3): absolute time (nanoseconds)
    for component timing properties, and designer-chosen {e clock units}
    for clocks and assertions, which scale with the circuit period.

    Internally all times are exact integer picoseconds, so that modular
    arithmetic on the clock period is exact and value lists can be
    required to sum to the period precisely (§2.8). *)

type ps = int
(** A duration or instant in picoseconds. *)

type t
(** A timebase: the circuit clock period together with the size of one
    designer clock unit. *)

val make : period_ns:float -> clock_unit_ns:float -> t
(** [make ~period_ns ~clock_unit_ns] builds a timebase.

    @raise Invalid_argument if the period is not positive, the clock unit
    is not positive, or the period is not an integral number of
    picoseconds. *)

val of_period_ps : period:ps -> clock_unit:ps -> t
(** Exact constructor, picosecond granularity. *)

val period : t -> ps
(** Clock period in picoseconds. *)

val clock_unit : t -> ps
(** One designer clock unit in picoseconds. *)

val units_per_period : t -> float
(** Number of clock units in one period (need not be integral). *)

val max_ns : float
(** The largest time magnitude accepted in nanoseconds: [1e9] (one
    second).  Its picosecond value, [1e12], leaves a factor of a million
    of headroom below the integer range, so scaled delays
    ({!Corner.max_scale}) and sums along a path cannot wrap. *)

val ps_of_ns : float -> ps
(** Convert nanoseconds to picoseconds, rounding to the nearest ps.  This
    is the one conversion of user-given times: the SDL parser, delay
    constructors, assertions and service edits all go through it.
    @raise Invalid_argument on a non-finite value or one whose magnitude
    exceeds {!max_ns}. *)

val ns_of_ps : ps -> float
(** Convert picoseconds back to nanoseconds. *)

val ps_of_units : t -> float -> ps
(** Convert designer clock units to picoseconds, rounding to the nearest
    ps.
    @raise Invalid_argument on a non-finite value or one whose magnitude
    in nanoseconds exceeds {!max_ns}. *)

val units_of_ps : t -> ps -> float
(** Convert picoseconds to designer clock units. *)

val wrap : t -> ps -> ps
(** [wrap tb x] reduces an instant modulo the period, yielding a value in
    [\[0, period)]. Assertions are taken modulo the cycle time (§3.2). *)

val wrap_period : ps -> ps -> ps
(** [wrap_period period x] is {!wrap} given the period itself. *)

val modular_range : period:ps -> ps * ps -> ps * ps
(** [modular_range ~period (start, stop)] is the modular interval
    [(start mod period, width)] that a range from [start] to [stop]
    denotes: the width is the period when [stop - start >= period], and
    [(stop - start) mod period] otherwise, so a stop before its start
    wraps however far back it lies.  A width of 0 is empty.  Assertion
    ranges, their checks and {!Waveform.of_intervals} all read ranges
    through it. *)

val pp_ns : Format.formatter -> ps -> unit
(** Print a time as nanoseconds with one fractional digit, e.g. ["25.5"]. *)
